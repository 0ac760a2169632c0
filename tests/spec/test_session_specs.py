"""Specs run through ``execute``: the declarative and imperative paths agree."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.errors import SpecError
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m
from repro.spec import (
    CompareSpec,
    EvalSpec,
    PlatformSpec,
    ServingSpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    execute,
)


@pytest.fixture
def session():
    return Session()


@pytest.fixture
def workload():
    return autoregressive(tinyllama_42m(), 128)


class TestSpecOverloads:
    def test_run_spec_hits_the_same_cache_entry(self, session, workload):
        declarative = execute(session, EvalSpec(platform=PlatformSpec(chips=2)))
        imperative = session.run(workload, "paper", chips=2)
        # Identity, not just equality: both paths share one memoised entry.
        assert declarative is imperative

    def test_sweep_spec_matches_imperative(self, session, workload):
        declarative = execute(session, SweepSpec(chips=(1, 2)))
        imperative = session.sweep(workload, (1, 2))
        assert declarative == imperative

    def test_compare_spec_matches_imperative(self, session, workload):
        declarative = execute(
            session,
            CompareSpec(
                strategies=("single_chip", "paper"),
                platform=PlatformSpec(chips=2),
            )
        )
        imperative = session.compare(
            workload, chips=2, strategies=("single_chip", "paper")
        )
        assert declarative == imperative

    def test_serve_spec_matches_imperative(self, session):
        trace = TraceSpec(rate_rps=2.0, duration_s=10.0)
        declarative = execute(
            session,
            ServingSpec(trace=trace, platform=PlatformSpec(chips=2), seed=3),
        )
        imperative = session.serve(
            tinyllama_42m(), trace.build(), chips=2, seed=3
        )
        assert declarative.metrics == imperative.metrics
        assert declarative.num_chips == imperative.num_chips == 2

    def test_tune_spec_matches_imperative(self, session, workload):
        declarative = execute(session, TuneSpec(budget=4, seed=1))
        imperative = session.tune(workload, budget=4, seed=1)
        assert declarative.candidates == imperative.candidates
        assert declarative.front == imperative.front

    def test_sweep_spec_with_nondefault_preset(self, session, workload):
        from repro.hw.presets import get_platform_preset

        declarative = execute(
            session,
            SweepSpec(chips=(1, 2), platform=PlatformSpec(preset="siracusa-fast-link")),
        )
        fast = Session(platform_factory=get_platform_preset("siracusa-fast-link").factory)
        imperative = fast.sweep(workload, (1, 2))
        assert declarative == imperative
        # The factory override is scoped to the call.
        from repro.hw.presets import siracusa_platform

        assert session.platform_factory is siracusa_platform

    def test_sweep_spec_parallel_honoured_for_any_preset(self, session):
        # `parallel` must ride the native sweep path whatever the preset;
        # results equal the serial run either way (the pool is a prefill).
        spec = SweepSpec(
            chips=(1, 2),
            platform=PlatformSpec(preset="siracusa-big-l2"),
            parallel=2,
        )
        parallel = execute(session, spec)
        serial = execute(
            Session(),
            SweepSpec(chips=(1, 2), platform=PlatformSpec(preset="siracusa-big-l2")),
        )
        assert parallel == serial


class TestSpecArgumentRules:
    def test_serve_without_trace_or_spec_is_rejected(self, session):
        # A spec runs through execute(), so serve() always needs a trace.
        with pytest.raises(TypeError, match="trace"):
            session.serve(tinyllama_42m())

    def test_standalone_reference_fails_precisely(self, session):
        with pytest.raises(SpecError, match="platform_from"):
            execute(session, EvalSpec(platform_from="tune"))

    def test_prefetch_override_is_scoped_to_the_call(self, session):
        from repro.core.placement import PrefetchAccounting

        before = session.prefetch_accounting
        blocking = execute(
            session, EvalSpec(platform=PlatformSpec(chips=2), prefetch="blocking")
        )
        hidden = execute(session, EvalSpec(platform=PlatformSpec(chips=2)))
        assert session.prefetch_accounting is before is PrefetchAccounting.HIDDEN
        # Distinct option sets must map to distinct cache entries.
        assert blocking is not hidden
