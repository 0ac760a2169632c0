"""The session's block-program memo ("compile once, price many").

Design points that differ only in the cluster clock or the chip-to-chip
link share one scheduled program; the simulator and the energy model
still price every point.  A memo hit must be indistinguishable from a
fresh evaluation, down to the bits of every number and the bytes of its
pickle.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import assume, given, settings, strategies as st

from repro.analysis.evaluate import ProgramMemo
from repro.api import Session
from repro.arch.zoo import SHIPPED_DIR
from repro.core.scheduler import BlockScheduler
from repro.dse.space import ChoiceAxis, FloatAxis, SearchSpace, materialise
from repro.errors import ReproError
from repro.graph.workload import autoregressive, prompt
from repro.models.registry import get_model

#: Pickled size of ``Session().run(<TinyLlama-42M decode at 128>,
#: chips=8)`` before the memo existed: memo state must never leak into
#: stored results.
PICKLED_DECODE_RESULT_BYTES = 4577

SIMULATED_STRATEGIES = ("paper", "single_chip", "tensor_parallel")

prices = st.fixed_dictionaries(
    {
        "link_gbps": st.floats(min_value=0.05, max_value=4.0),
        "freq_mhz": st.floats(min_value=100.0, max_value=800.0),
        "link_pj_per_byte": st.floats(min_value=0.0, max_value=300.0),
    }
)


def _outcome(session: Session, workload, strategy: str, platform):
    """The result, or the type of the error the evaluation raised."""
    try:
        return session.run(workload, strategy, platform=platform)
    except ReproError as error:
        return type(error)


def _fingerprint(result) -> str:
    """Every measured number of a simulator-backed result, as exact text."""
    report = result.report
    return repr(
        (
            result.block_cycles,
            result.block_energy_joules,
            result.frequency_hz,
            result.l3_bytes_per_block,
            result.c2c_bytes_per_block,
            result.weight_bytes_per_chip,
            sorted(report.runtime_breakdown().items()),
            report.residencies(),
            [
                (
                    trace.chip_id,
                    list(trace.cycles.values()),
                    trace.l3_l2_bytes,
                    trace.l2_l1_bytes,
                    trace.c2c_bytes_sent,
                    trace.finish_cycle,
                )
                for trace in report.simulation.chip_traces.values()
            ],
            report.energy.total,
            report.energy.runtime_seconds,
            report.simulation.total_l2_l1_bytes,
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(("tinyllama-42m", "mobilebert", "gqa-moe-tiny")),
    prompt_mode=st.booleans(),
    strategy=st.sampled_from(SIMULATED_STRATEGIES),
    structure=st.fixed_dictionaries(
        {
            "chips": st.sampled_from((1, 2, 3, 4, 8, 16)),
            "l2_kib": st.sampled_from((512, 1024, 2048, 4096)),
            "group_size": st.sampled_from((2, 4)),
        }
    ),
    first=prices,
    second=prices,
)
def test_memo_hit_matches_a_fresh_session_bit_for_bit(
    model, prompt_mode, strategy, structure, first, second
):
    assume(first != second)  # equal prices are a session-cache hit instead
    config = get_model(model)
    workload = prompt(config, 16) if prompt_mode else autoregressive(config, 128)
    base = materialise({**structure, **first}, workload=workload).platform
    target = materialise({**structure, **second}, workload=workload).platform

    session = Session()
    _outcome(session, workload, strategy, base)
    programs = len(session._programs)
    hit = _outcome(session, workload, strategy, target)
    expected = _outcome(Session(), workload, strategy, target)

    if isinstance(expected, type):
        # Infeasible structures fail the same way with or without the memo.
        assert hit is expected
        return
    assert len(session._programs) == programs  # the program was reused
    assert _fingerprint(hit) == _fingerprint(expected)
    report = hit.report
    assert report.program.schedules == expected.report.program.schedules
    assert report.program.memory_plans == expected.report.program.memory_plans
    # The rebound program prices from the caller's platform.
    assert report.program.platform is report.platform
    assert report.simulation.program is report.program
    if strategy != "single_chip":
        assert report.platform is target

    restored = pickle.loads(pickle.dumps(hit, protocol=pickle.HIGHEST_PROTOCOL))
    assert restored.report.program.schedules == report.program.schedules
    assert _fingerprint(restored) == _fingerprint(hit)


def test_pricing_only_grid_schedules_each_structure_once(monkeypatch):
    builds = []
    original = BlockScheduler.build

    def counting_build(self, workload, partition=None):
        builds.append(self.platform.num_chips)
        return original(self, workload, partition)

    monkeypatch.setattr(BlockScheduler, "build", counting_build)
    space = SearchSpace(
        axes=(
            ChoiceAxis("chips", (2, 8)),
            FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 0.5, 1.0)),
            FloatAxis("freq_mhz", 200.0, 500.0, levels=(200.0, 500.0)),
            FloatAxis("link_pj_per_byte", 50.0, 100.0, levels=(50.0, 100.0)),
        )
    )
    result = Session().tune(
        autoregressive(get_model("tinyllama-42m"), 128),
        space,
        searcher="grid",
        budget=space.size,
    )
    assert len(result.candidates) == 24
    assert all(candidate.feasible for candidate in result.candidates)
    assert sorted(builds) == [2, 8]


def test_memoize_false_never_consults_the_memo(monkeypatch):
    def forbidden(self, scheduler, workload):
        raise AssertionError("the program memo was consulted")

    monkeypatch.setattr(ProgramMemo, "program", forbidden)
    workload = autoregressive(get_model("tinyllama-42m"), 128)
    session = Session(memoize=False)
    for freq_mhz in (200.0, 400.0):
        design = materialise({"chips": 4, "freq_mhz": freq_mhz}, workload=workload)
        session.run(workload, platform=design.platform)
    assert len(session._programs) == 0


def test_cache_clear_forgets_programs():
    session = Session()
    session.run(autoregressive(get_model("tinyllama-42m"), 128), chips=2)
    assert len(session._programs) == 1
    session.cache_clear()
    assert len(session._programs) == 0


def test_pickled_results_carry_no_memo_state():
    workload = autoregressive(get_model("tinyllama-42m"), 128)
    session = Session()
    decode = session.run(workload, chips=8)
    point = {"chips": 8, "kv_heads": 4, "l2_kib": 2048, "link_gbps": 1.0}
    results = []
    for freq_mhz in (200.0, 400.0):  # the second one is a memo hit
        design = materialise(dict(point, freq_mhz=freq_mhz), workload=workload)
        results.append(
            session.run(design.workload, design.strategy, platform=design.platform)
        )
    fresh = Session(memoize=False).run(
        design.workload, design.strategy, platform=design.platform
    )

    def pickled(result) -> bytes:
        return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)

    for result in (decode, *results):
        payload = pickled(result)
        assert b"_repro_" not in payload  # content-hash memo attributes
        assert b"ProgramMemo" not in payload
    assert len(pickled(decode)) <= PICKLED_DECODE_RESULT_BYTES
    assert len(pickled(results[1])) == len(pickled(fresh))


def test_nested_sessions_keep_their_own_memos():
    workload = autoregressive(get_model("tinyllama-42m"), 128)
    outer, inner = Session(), Session()
    with outer._programs.active():
        inner.run(workload, chips=2)
    assert len(inner._programs) == 1
    assert len(outer._programs) == 0


def _clock_points(session: Session, *freqs_mhz: float):
    """TinyLlama-42M decode on 4 chips at each clock: one structure."""
    workload = autoregressive(get_model("tinyllama-42m"), 128)
    results = []
    for freq_mhz in freqs_mhz:
        design = materialise({"chips": 4, "freq_mhz": freq_mhz}, workload=workload)
        results.append(session.run(workload, platform=design.platform))
    return results


def test_a_structure_evaluated_once_keeps_no_compiled_sweep():
    session = Session()
    (result,) = _clock_points(session, 200.0)
    assert "_compiled_sweep" not in result.report.program.__dict__
    (stored,) = session._programs._programs.values()
    assert "_compiled_sweep" not in stored.__dict__


def test_rebinds_of_a_structure_share_one_compiled_sweep():
    session = Session()
    first, second, third = _clock_points(session, 200.0, 300.0, 400.0)
    programs = [result.report.program for result in (first, second, third)]
    holders = [program.__dict__["_compiled_sweep"] for program in programs]
    # The stored program (the first result's) got the slot on reuse.
    assert holders[0] is holders[1] is holders[2]
    assert holders[0][0] is not None
    assert len({id(program) for program in programs}) == 3


def test_cache_clear_drops_compiled_sweeps():
    session = Session()
    _, reused = _clock_points(session, 200.0, 400.0)
    holder = reused.report.program.__dict__["_compiled_sweep"]
    assert holder[0] is not None
    session.cache_clear()
    assert holder[0] is None
    assert len(session._programs) == 0


#: Every strategy, simulator-backed and analytical.
ALL_STRATEGIES = (
    "paper",
    "single_chip",
    "tensor_parallel",
    "weight_replicated",
    "pipeline_parallel",
)


def _zoo_points():
    """Shipped models x modes x chip counts (up to the head count) x strategies."""
    points = []
    for path in sorted(SHIPPED_DIR.glob("*.json")):
        config = get_model(path.stem.replace("_", "-"))
        for workload in (
            autoregressive(config, 128),
            prompt(config, 16),
            prompt(config, 64),
        ):
            for chips in sorted({1, 2, 3, 5, 8, config.num_heads}):
                for strategy in ALL_STRATEGIES:
                    points.append((workload, strategy, chips))
    return points


def test_shared_session_matches_fresh_evaluations_byte_for_byte():
    # One session shares stage programs (pipeline_parallel) and per-chip
    # blocks (weight_replicated) across the zoo; an unmemoised session
    # evaluates every point on its own.  Results and pickles must agree.
    points = _zoo_points()
    random.Random(23).shuffle(points)
    shared = Session()

    def outcome(session: Session, workload, strategy: str, chips: int):
        try:
            return session.run(workload, strategy, chips=chips)
        except ReproError as error:
            return type(error)

    for workload, strategy, chips in points:
        expected = outcome(Session(memoize=False), workload, strategy, chips)
        got = outcome(shared, workload, strategy, chips)
        if isinstance(expected, type):
            assert got is expected, (workload.name, strategy, chips)
            continue
        assert got == expected, (workload.name, strategy, chips)
        assert pickle.dumps(got, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            expected, protocol=pickle.HIGHEST_PROTOCOL
        ), (workload.name, strategy, chips)
    memo = shared._programs
    assert len(memo) > 0 and memo._replicated
    shared.cache_clear()
    assert len(memo) == 0 and not memo._replicated
