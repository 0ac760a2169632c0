"""``Session.run_many`` has exactly the effects of one ``run`` per request.

One session evaluates a mixed batch in one call; a fresh session runs
the same requests one at a time.  Results (by value and by pickle),
errors, the memo's key order, the cache statistics and the rows of the
persistent store must all agree.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import re
import sqlite3
from pathlib import Path

import pytest

import repro.api.session as session_module
from repro.api import Session
from repro.dse.space import materialise
from repro.errors import ReproError
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.kernels.elementwise import ElementwiseModel
from repro.kernels.library import KernelLibrary
from repro.models.registry import get_model

STRATEGIES = (
    "paper",
    "tensor_parallel",
    "single_chip",
    "weight_replicated",
    "pipeline_parallel",
)


def _requests():
    """A batch mixing structures, model variants, strategies and repeats."""
    base = autoregressive(get_model("tinyllama-42m"), 128)
    requests = []
    for kv_heads in (2, 8):
        for chips in (2, 8, 16):  # 16 chips cannot split 8 heads
            for freq_mhz in (300.0, 500.0):
                design = materialise(
                    {"chips": chips, "freq_mhz": freq_mhz, "kv_heads": kv_heads},
                    workload=base,
                )
                for strategy in STRATEGIES:
                    requests.append((design.workload, strategy, design.platform))
    # Equal by value to earlier requests (fresh objects): a feasible one
    # under an alias, and an infeasible one.
    again = materialise({"chips": 8, "freq_mhz": 300.0, "kv_heads": 2}, workload=base)
    requests.append((again.workload, "ours", again.platform))
    again = materialise({"chips": 16, "freq_mhz": 500.0, "kv_heads": 8}, workload=base)
    requests.append((again.workload, "paper", again.platform))
    requests.append((base, "nope", again.platform))
    return requests


def _one_by_one(session, requests):
    outcomes = []
    for workload, strategy, platform in requests:
        try:
            outcomes.append(session.run(workload, strategy, platform=platform))
        except ReproError as error:
            outcomes.append(error)
    return outcomes


def _stored_rows(directory):
    connection = sqlite3.connect(str(Path(directory) / "evals.sqlite"))
    try:
        return connection.execute(
            "SELECT key, value FROM evals ORDER BY rowid"
        ).fetchall()
    finally:
        connection.close()


def _describe(outcome):
    if isinstance(outcome, ReproError):
        return (type(outcome), str(outcome))
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def test_run_many_equals_consecutive_runs(tmp_path):
    requests = _requests()
    batch = Session(cache_dir=tmp_path / "batch")
    serial = Session(cache_dir=tmp_path / "serial")
    batched = batch.run_many(requests)
    expected = _one_by_one(serial, requests)

    assert len(batched) == len(requests)
    assert [_describe(o) for o in batched] == [_describe(o) for o in expected]
    for got, want in zip(batched, expected):
        if not isinstance(want, ReproError):
            assert got == want
    assert list(batch._cache) == list(serial._cache)
    assert batch.cache_info() == serial.cache_info()
    assert len(batch._programs) == len(serial._programs)
    batch.persistent_cache.flush()
    serial.persistent_cache.flush()
    assert _stored_rows(tmp_path / "batch") == _stored_rows(tmp_path / "serial")

    # The aliased repeat is the one hit and returns the earlier result
    # object; the repeated infeasible request is a miss again.
    workload, _, platform = requests[-3]
    earlier = next(
        index
        for index, (w, strategy, p) in enumerate(requests)
        if strategy == "paper" and w == workload and p == platform
    )
    assert batched[-3] is batched[earlier]
    assert isinstance(batched[-2], ReproError)
    infeasible = sum(isinstance(outcome, ReproError) for outcome in batched[:-1])
    info = batch.cache_info()
    assert (info.hits, info.misses) == (1, info.size + infeasible)


def test_a_repeat_within_the_batch_returns_the_earlier_object():
    base = autoregressive(get_model("tinyllama-42m"), 128)
    first = materialise({"chips": 4}, workload=base)
    second = materialise({"chips": 4}, workload=base)
    assert first.platform is not second.platform
    session = Session()
    one, two = session.run_many(
        [(base, "paper", first.platform), (base, "ours", second.platform)]
    )
    assert two is one
    assert session.cache_info()[:3] == (1, 1, 1)


def test_the_batch_warms_the_memo_of_later_runs():
    base = autoregressive(get_model("tinyllama-42m"), 128)
    design = materialise({"chips": 8, "link_gbps": 0.5}, workload=base)
    session = Session()
    (result,) = session.run_many([(base, "paper", design.platform)])
    assert session.run(base, platform=design.platform) is result


def test_run_raises_the_error_run_many_carries():
    base = autoregressive(get_model("tinyllama-42m"), 128)
    session = Session()
    (error,) = session.run_many([(base, "paper", materialise({"chips": 16}).platform)])
    assert isinstance(error, ReproError)
    with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
        session.run(base, chips=16)


def test_memoize_false_evaluates_every_request():
    base = autoregressive(get_model("tinyllama-42m"), 128)
    platform = materialise({"chips": 2}).platform
    session = Session(memoize=False)
    one, two = session.run_many([(base, "paper", platform), (base, "paper", platform)])
    assert one == two and one is not two
    assert session.cache_info()[:3] == (0, 0, 0)
    assert len(session._programs) == 0


def _scaled_energy(platform):
    """A custom energy factory: the paper's model at twice the link cost."""
    from dataclasses import replace

    from repro.energy.model import EnergyModel

    link = platform.link
    return EnergyModel(
        replace(platform, link=replace(link, energy_pj_per_byte=2 * link.energy_pj_per_byte))
    )


SESSION_MODES = {
    "memoize_false": (lambda: Session(memoize=False), False),
    "record_events": (Session, True),
    "custom_kernels": (
        lambda: Session(
            kernels=KernelLibrary(
                cluster=siracusa_platform(1).chip.cluster,
                elementwise_model=ElementwiseModel(parallel_efficiency=0.35),
            )
        ),
        False,
    ),
    "custom_energy": (lambda: Session(energy=_scaled_energy), False),
}


@pytest.mark.parametrize("mode", sorted(SESSION_MODES))
def test_session_modes_match_consecutive_runs(mode):
    make, record_events = SESSION_MODES[mode]
    base = autoregressive(get_model("tinyllama-42m"), 128)
    requests = [
        (base, strategy, materialise(point, workload=base).platform)
        for point in (
            {"chips": 4, "freq_mhz": 300.0},
            {"chips": 4, "freq_mhz": 500.0},
            {"chips": 16},
            {"chips": 4, "freq_mhz": 300.0},
        )
        for strategy in ("paper", "single_chip", "pipeline_parallel")
    ]
    batch, serial = make(), make()
    batched = batch.run_many(requests, record_events=record_events)
    expected = []
    for workload, strategy, platform in requests:
        try:
            expected.append(
                serial.run(
                    workload, strategy, platform=platform, record_events=record_events
                )
            )
        except ReproError as error:
            expected.append(error)
    assert [_describe(o) for o in batched] == [_describe(o) for o in expected]
    assert batch.cache_info() == serial.cache_info()
    assert list(batch._cache) == list(serial._cache)
    if record_events:
        events = batched[0].report.simulation.chip_traces[0].events
        assert events == expected[0].report.simulation.chip_traces[0].events
        assert events


# ----------------------------------------------------------------------
# Worker processes run only the engine step
# ----------------------------------------------------------------------
def test_parallel_run_many_equals_the_serial_call(tmp_path):
    requests = _requests()
    fanned = Session(cache_dir=tmp_path / "fanned")
    serial = Session(cache_dir=tmp_path / "serial")
    got = fanned.run_many(requests, parallel=2)
    want = serial.run_many(requests)

    assert [_describe(o) for o in got] == [_describe(o) for o in want]
    assert list(fanned._cache) == list(serial._cache)
    assert fanned.cache_info() == serial.cache_info()
    fanned.persistent_cache.flush()
    serial.persistent_cache.flush()
    assert _stored_rows(tmp_path / "fanned") == _stored_rows(tmp_path / "serial")
    # Every engine step ran in a worker, under the worker's own memo.
    assert len(fanned._programs) == 0 < len(serial._programs)


def _small_batch():
    base = autoregressive(get_model("tinyllama-42m"), 128)
    return [
        (base, strategy, materialise({"chips": chips}, workload=base).platform)
        for chips in (2, 4)
        for strategy in ("paper", "weight_replicated")
    ]


@pytest.mark.parametrize("parallel", [None, 1])
def test_without_workers_run_many_never_enters_pool_code(monkeypatch, parallel):
    def refuse(*args, **kwargs):
        raise AssertionError("pool code entered")

    monkeypatch.setattr(session_module, "_evaluate_in_workers", refuse)
    outcomes = Session().run_many(_small_batch(), parallel=parallel)
    assert not any(isinstance(outcome, ReproError) for outcome in outcomes)


@pytest.mark.parametrize("mode", ["custom_kernels", "custom_energy"])
def test_sessions_with_custom_models_stay_in_process(mode, pools):
    make, _ = SESSION_MODES[mode]
    requests = _small_batch()
    fanned, serial = make(), make()
    got = fanned.run_many(requests, parallel=2)
    assert not pools
    assert [_describe(o) for o in got] == [
        _describe(o) for o in serial.run_many(requests)
    ]


def test_a_single_pending_request_starts_no_pool(pools):
    session = Session()
    requests = _small_batch()
    session.run_many(requests[1:])
    session.run_many(requests, parallel=2)
    assert not pools
    assert session.cache_info().misses == len(requests)


def _refusing_pool(*args, **kwargs):
    raise OSError("no semaphores")


class _BreakingPool(concurrent.futures.ProcessPoolExecutor):
    """Takes one task, then reports a dead worker on every submit."""

    def submit(self, *args, **kwargs):
        if getattr(self, "took_one", False):
            raise concurrent.futures.process.BrokenProcessPool("a worker died")
        self.took_one = True
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize(
    "pool, warning",
    [
        (
            _refusing_pool,
            r"parallel evaluation unavailable \(no semaphores\); "
            r"evaluating in process",
        ),
        (  # four one-request tasks at two workers: three never sent
            _BreakingPool,
            r"parallel evaluation lost 3 of 4 point\(s\) \(a worker died\); "
            r"evaluating them in process",
        ),
    ],
)
def test_a_failing_pool_warns_and_gives_the_serial_answer(
    monkeypatch, pool, warning
):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    requests = _small_batch()
    fanned, serial = Session(), Session()
    with pytest.warns(RuntimeWarning, match=warning):
        got = fanned.run_many(requests, parallel=2)
    assert [_describe(o) for o in got] == [
        _describe(o) for o in serial.run_many(requests)
    ]
    assert fanned.cache_info() == serial.cache_info()
