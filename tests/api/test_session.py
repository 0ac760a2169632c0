"""Unit tests for Session.run/sweep/compare and the memoisation cache."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

import repro.api.session as session_module
from repro.api import Session
from repro.errors import AnalysisError, UnknownStrategyError
from repro.graph.workload import autoregressive, prompt
from repro.hw.presets import siracusa_platform
from repro.models import get_model, tinyllama_42m


@pytest.fixture
def workload():
    return autoregressive(tinyllama_42m(), 128)


@pytest.fixture
def session():
    return Session()


class TestRun:
    def test_run_returns_eval_result(self, session, workload):
        result = session.run(workload, "paper", chips=8)
        assert result.strategy == "paper"
        assert result.num_chips == 8
        assert result.block_cycles > 0
        assert result.report is not None

    def test_unknown_strategy_raises(self, session, workload):
        with pytest.raises(UnknownStrategyError):
            session.run(workload, "nope", chips=8)

    def test_platform_resolution_precedence(self, workload):
        session = Session(platform=siracusa_platform(4))
        assert session.run(workload).num_chips == 4
        assert session.run(workload, chips=2).num_chips == 2
        explicit = siracusa_platform(8)
        assert session.run(workload, platform=explicit).num_chips == 8

    def test_no_platform_anywhere_raises(self, workload):
        session = Session()
        session.platform = None
        with pytest.raises(AnalysisError):
            session.resolve_platform()

    def test_invalid_chip_count_rejected(self, session, workload):
        with pytest.raises(AnalysisError):
            session.run(workload, chips=0)


class TestMemoisation:
    def test_mutated_session_configuration_is_honoured(self, workload):
        from repro.core.placement import PrefetchAccounting

        session = Session()
        hidden = session.run(workload, chips=8)
        session.prefetch_accounting = PrefetchAccounting.BLOCKING
        blocking = session.run(workload, chips=8)
        # The shared default-options instance must not freeze the
        # session's configuration at first use.
        assert blocking.block_cycles != hidden.block_cycles
        assert session.cache_info().misses == 2

    def test_repeated_run_hits_cache_and_returns_same_object(
        self, session, workload
    ):
        first = session.run(workload, "paper", chips=8)
        second = session.run(workload, "paper", chips=8)
        assert first is second
        info = session.cache_info()
        assert info.hits == 1
        assert info.misses == 1
        assert info.size == 1

    def test_equal_but_distinct_inputs_hit_cache(self, session):
        # Content-hash memoisation: equality of configuration is enough,
        # object identity is not required.
        first = session.run(autoregressive(tinyllama_42m(), 128), chips=8)
        second = session.run(autoregressive(tinyllama_42m(), 128), chips=8)
        assert first is second
        assert session.cache_info().hits == 1

    def test_alias_shares_cache_with_canonical_name(self, session, workload):
        first = session.run(workload, "paper", chips=8)
        second = session.run(workload, "ours", chips=8)
        assert first is second

    def test_different_inputs_miss(self, session, workload):
        session.run(workload, "paper", chips=8)
        session.run(workload, "paper", chips=4)
        session.run(workload, "single_chip", chips=8)
        session.run(prompt(tinyllama_42m(), 16), "paper", chips=8)
        info = session.cache_info()
        assert info.hits == 0
        assert info.misses == 4

    def test_cache_clear_resets(self, session, workload):
        session.run(workload, chips=8)
        session.cache_clear()
        info = session.cache_info()
        assert info == (0, 0, 0, 0, 0)
        session.run(workload, chips=8)
        assert session.cache_info().misses == 1

    def test_memoize_false_disables_cache(self, workload):
        session = Session(memoize=False)
        first = session.run(workload, chips=8)
        second = session.run(workload, chips=8)
        assert first is not second
        assert session.cache_info().size == 0
        # ... but the numbers are still deterministic.
        assert first.block_cycles == second.block_cycles


class TestSweep:
    def test_sweep_structure(self, session, workload):
        sweep = session.sweep(workload, (1, 2, 8))
        assert sweep.chip_counts == [1, 2, 8]
        assert sweep.baseline.num_chips == 1
        assert sweep.result_for(8).num_chips == 8
        with pytest.raises(AnalysisError):
            sweep.result_for(3)
        speedups = sweep.speedups()
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[8] > 8

    def test_sweep_rejects_bad_chip_lists(self, session, workload):
        with pytest.raises(AnalysisError):
            session.sweep(workload, ())
        with pytest.raises(AnalysisError):
            session.sweep(workload, (0,))

    def test_sweep_validates_chips_before_resolving_the_strategy(
        self, session, workload
    ):
        # A bad chip count must report the chip-count error even when
        # paired with an unknown strategy name (validation order).
        with pytest.raises(AnalysisError, match="chip count") as excinfo:
            session.sweep(workload, (0,), strategy="not-a-strategy")
        assert not isinstance(excinfo.value, UnknownStrategyError)
        with pytest.raises(UnknownStrategyError):
            session.sweep(workload, (1, 2), strategy="not-a-strategy")

    def test_sweep_any_registered_strategy(self, session, workload):
        sweep = session.sweep(workload, (1, 8), strategy="pipeline_parallel")
        assert sweep.strategy == "pipeline_parallel"
        assert all(result.uses_pipelining for result in sweep.results)
        assert all(result.report is None for result in sweep.results)

    def test_paper_sweep_results_carry_block_reports(self, session, workload):
        sweep = session.sweep(workload, (1, 8))
        assert sweep.chip_counts == [1, 8]
        assert sweep.result_for(8).report.num_chips == 8

    def test_parallel_sweep_matches_serial(self, workload):
        serial_session, fanout_session = Session(), Session()
        serial = serial_session.sweep(workload, (1, 2, 4))
        fanout = fanout_session.sweep(workload, (1, 2, 4), parallel=2)
        assert fanout.cycles() == serial.cycles()
        assert fanout.energies_joules() == serial.energies_joules()
        assert fanout_session.cache_info() == serial_session.cache_info()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched worker function reaches the pool only when forked",
)
def test_killed_worker_falls_back_to_the_serial_answer(monkeypatch, tmp_path):
    # The first pool worker to evaluate a point SIGKILLs itself; the
    # O_EXCL marker makes it the only one.  The other worker stalls until
    # the pool notices the death and terminates it, so no chunk finishes
    # first: the broken pool forfeits every point, and the serial path
    # must give the serial run's answer.
    marker = tmp_path / "killed"
    evaluate = session_module._evaluate_many
    parent = os.getpid()

    def die_once(*payload):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                time.sleep(1.0)
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return evaluate(*payload)

    workload = autoregressive(get_model("tinyllama-42m"), 128)
    serial = Session().tune(workload, searcher="grid", budget=64)
    monkeypatch.setattr(session_module, "_evaluate_many", die_once)
    with pytest.warns(
        RuntimeWarning, match=r"parallel evaluation lost 64 of 64 point\(s\)"
    ):
        parallel = Session().tune(
            workload, searcher="grid", budget=64, parallel=2
        )
    assert marker.exists()
    assert parallel == serial


class TestCompare:
    def test_default_ablation_order(self, session, workload):
        comparison = session.compare(workload, chips=8)
        assert comparison.strategies == [
            "single_chip",
            "weight_replicated",
            "pipeline_parallel",
            "tensor_parallel",
        ]
        assert comparison.num_chips == 8
        assert comparison.best().strategy == "tensor_parallel"

    def test_compare_custom_strategies_and_lookup(self, session, workload):
        # "ours" is an alias: the results carry the canonical "paper".
        comparison = session.compare(
            workload, chips=8, strategies=("ours", "single_chip")
        )
        assert comparison.strategies == ["paper", "single_chip"]
        assert comparison.result_for("paper").report is not None
        assert comparison.result_for("ours") is comparison.result_for("paper")
        with pytest.raises(AnalysisError):
            comparison.result_for("pipeline_parallel")
        with pytest.raises(AnalysisError):
            comparison.result_for("sequence_parallel")  # alias, not evaluated
        with pytest.raises(AnalysisError):
            comparison.result_for("nope")  # not registered
        speedups = comparison.speedups_over("single_chip")
        assert speedups["paper"] > 8
        assert speedups["single_chip"] == pytest.approx(1.0)
        assert comparison.speedups_over("ours")["paper"] == 1.0

    def test_compare_requires_strategies(self, session, workload):
        with pytest.raises(AnalysisError):
            session.compare(workload, chips=8, strategies=())

    def test_render_contains_all_rows(self, session, workload):
        text = session.compare(workload, chips=8).render()
        assert "Single chip" in text
        assert "Pipeline parallel" in text
        assert "tensor parallel" in text.lower()
