"""End-to-end tests of ``Session.serve_fleet`` on the real block engine.

Acceptance properties of the fleet subsystem: heterogeneous presets run
behind every shipped router, equal seeds give byte-identical JSON, specs
and imperative calls produce the same document, and a fleet study stage
writes the identical artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session, Study
from repro.models import tinyllama_42m
from repro.serving import DiurnalTrace, LengthModel, PoissonTrace

#: Short prompt/reply lengths: a handful of cost buckets serve every test.
SHORT = LengthModel(prompt_mean=30, output_mean=8, prompt_max=64,
                    output_max=16)

TRACE = PoissonTrace(rate_rps=2.0, duration_s=30.0, lengths=SHORT)


@pytest.fixture(scope="module")
def session():
    return Session()


class TestServeFleetEndToEnd:
    def test_heterogeneous_fleet_report(self, session):
        report = session.serve_fleet(
            tinyllama_42m(),
            TRACE,
            platforms=(
                "siracusa-mipi:8",
                "siracusa-fast-link:8",
                "siracusa-big-l2:8",
                "siracusa-low-power:8",
            ),
            router="least_loaded",
            seed=0,
        )
        assert report.model == "tinyllama-42m"
        assert report.router == "least_loaded"
        assert report.policy == "fifo"
        result = report.result
        assert result.arrived == result.admitted  # no rate limits
        assert result.completed == result.admitted
        assert result.in_flight == 0
        assert [r.preset for r in result.replicas] == [
            "siracusa-mipi",
            "siracusa-fast-link",
            "siracusa-big-l2",
            "siracusa-low-power",
        ]
        assert sum(r.completed for r in result.replicas) == result.completed
        assert result.ttft.p50 > 0

    def test_replica_multipliers_and_roles(self, session):
        report = session.serve_fleet(
            tinyllama_42m(),
            TRACE,
            platforms=("siracusa-mipi:8x2@prefill", "siracusa-mipi:8@decode"),
            router="prefill_decode",
            seed=0,
        )
        replicas = report.result.replicas
        assert [r.role for r in replicas] == ["prefill", "prefill", "decode"]

    def test_every_shipped_router_serves_the_trace(self, session):
        from repro.fleet import list_routers

        for router in list_routers():
            report = session.serve_fleet(
                tinyllama_42m(),
                TRACE,
                platforms=("siracusa-mipi:8x2",),
                router=router,
                seed=0,
            )
            assert report.result.completed == report.result.admitted

    def test_same_seed_is_byte_identical(self, session):
        trace = DiurnalTrace(rate_rps=2.0, duration_s=120.0, amplitude=0.5,
                             period_s=120.0, lengths=SHORT)

        def run():
            return session.serve_fleet(
                tinyllama_42m(),
                trace,
                platforms=("siracusa-mipi:8x2",),
                router="least_loaded",
                seed=3,
            ).to_json()

        assert run() == run()

    def test_different_seeds_differ(self, session):
        reports = [
            session.serve_fleet(
                tinyllama_42m(), TRACE,
                platforms=("siracusa-mipi:8",), seed=seed,
            ).to_json()
            for seed in (0, 1)
        ]
        assert reports[0] != reports[1]

    def test_fleet_requires_a_trace(self, session):
        with pytest.raises(TypeError, match="trace"):
            session.serve_fleet(tinyllama_42m())


class TestSpecParity:
    def test_spec_and_imperative_calls_match(self, session):
        from repro.fleet import FleetPlatform
        from repro.spec import FleetSpec, TraceSpec, execute

        spec = FleetSpec(
            trace=TraceSpec(source="poisson", rate_rps=2.0, duration_s=30.0,
                            prompt_mean=30.0, output_mean=8.0,
                            prompt_max=64, output_max=16),
            platforms=(FleetPlatform(replicas=2),),
            router="least_loaded",
            seed=0,
        )
        declarative = execute(session, spec)
        imperative = session.serve_fleet(
            tinyllama_42m(),
            spec.trace.build(),
            platforms=(FleetPlatform(replicas=2),),
            router="least_loaded",
            seed=0,
        )
        assert declarative.to_json() == imperative.to_json()

    def test_fleet_study_stage_writes_the_identical_artifact(
        self, session, tmp_path
    ):
        from repro.fleet import FleetPlatform
        from repro.spec import (
            FleetSpec,
            StageSpec,
            StudySpec,
            TraceSpec,
            execute,
        )

        fleet = FleetSpec(
            trace=TraceSpec(source="diurnal", rate_rps=2.0, duration_s=60.0,
                            period_s=60.0, prompt_mean=30.0, output_mean=8.0,
                            prompt_max=64, output_max=16),
            platforms=(FleetPlatform(chips=8),),
            router="round_robin",
            seed=0,
        )
        study_spec = StudySpec(
            name="fleet-parity",
            stages=(StageSpec(name="fleet", spec=fleet),),
        )
        study = Study(study_spec, session=session).run(str(tmp_path))
        report = execute(session, fleet)
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        assert study.stage("fleet").artifact_text().rstrip("\n") == expected
