"""Property-based tests of fault injection and failover.

Three resilience invariants, checked over randomised traffic, fault
schedules, and retry policies (stubbed phase costs keep every example
fast):

* **Request conservation under faults** — every arrival is exactly one
  of completed (possibly after retries or a hedge), failed, timed out,
  shed, or rejected; the engine drains everything by the horizon.
* **Same-seed fault determinism** — equal seeds, fault models, and
  retry policies give byte-identical fleet reports, in process and
  across processes.
* **Fault-free bit-identity** — a run with no fault model configured
  reproduces the committed pre-change golden report byte for byte, so
  the resilience layer provably costs nothing when off.
* **An inert layer changes nothing** — a run with an empty fault model
  and/or a default retry policy (no events, timeouts, hedges or
  shedding) reports exactly what the fault-free run reports, apart from
  its ``resilience`` block and the classes' ``shed`` column.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.fleet import (
    AdmissionController,
    AutoscalerConfig,
    FaultEvent,
    FaultModel,
    FleetSimulator,
    ReplicaTemplate,
    RetryPolicy,
    SLOClass,
    iter_requests,
)
from repro.serving import DiurnalTrace, LengthModel, PhaseCost, Request

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "tests" / "fleet" / "data" / "fleet_fault_free_golden.json"

ROUTERS = ("round_robin", "least_loaded")
ALL_ROUTERS = ROUTERS + ("session_affinity", "prefill_decode")
POLICIES = ("fifo", "shortest_prompt", "priority", "continuous")


class StubCosts:
    def __init__(self, prefill_per_token=0.01, decode_step=0.001):
        self.prefill_per_token = prefill_per_token
        self.decode_step = decode_step
        self.max_context = 4096

    def prefill_cost(self, prompt_tokens):
        seconds = prompt_tokens * self.prefill_per_token
        return PhaseCost(seconds=seconds, energy_joules=seconds)

    def decode_cost(self, context_length):
        return PhaseCost(seconds=self.decode_step,
                         energy_joules=self.decode_step)


def template(speed=0.01, role="any"):
    return ReplicaTemplate(
        preset="stub", chips=8, role=role, costs=StubCosts(speed)
    )


@st.composite
def request_lists(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5,
                      allow_nan=False, allow_infinity=False),
            min_size=count, max_size=count,
        )
    )
    requests = []
    now = 0.0
    for index, gap in enumerate(gaps):
        now += gap
        requests.append(
            Request(
                request_id=index,
                arrival_s=now,
                prompt_tokens=draw(st.integers(min_value=1, max_value=64)),
                output_tokens=draw(st.integers(min_value=1, max_value=8)),
                priority=draw(st.integers(min_value=0, max_value=1)),
            )
        )
    return requests


@st.composite
def fault_models(draw, replicas):
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("crash", "slowdown", "brownout")))
        start = draw(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False, allow_infinity=False))
        duration = draw(st.floats(min_value=0.1, max_value=10.0,
                                  allow_nan=False, allow_infinity=False))
        if kind == "crash":
            events.append(FaultEvent(
                fault="crash",
                replica=draw(st.integers(0, replicas - 1)),
                start_s=start,
                duration_s=draw(st.one_of(st.none(), st.just(duration))),
            ))
        elif kind == "slowdown":
            events.append(FaultEvent(
                fault="slowdown",
                replica=draw(st.integers(0, replicas - 1)),
                start_s=start,
                duration_s=duration,
                factor=draw(st.floats(min_value=1.5, max_value=8.0)),
            ))
        else:
            events.append(FaultEvent(
                fault="brownout",
                start_s=start,
                duration_s=duration,
                factor=draw(st.floats(min_value=1.5, max_value=4.0)),
            ))
    random_layer = draw(st.booleans())
    return FaultModel(
        events=tuple(events),
        crash_mtbf_s=draw(st.floats(5.0, 30.0)) if random_layer else None,
        crash_mttr_s=draw(st.floats(1.0, 10.0)),
        horizon_s=30.0 if random_layer else None,
        seed=draw(st.integers(0, 5)),
        shed_below=draw(st.one_of(st.none(), st.floats(0.3, 1.0))),
        shed_keep=1,
    )


@st.composite
def retry_policies(draw):
    if draw(st.booleans()):
        return None
    return RetryPolicy(
        max_retries=draw(st.integers(0, 3)),
        backoff_s=draw(st.floats(0.0, 1.0)),
        backoff_multiplier=draw(st.floats(1.0, 3.0)),
        timeout_s=draw(st.one_of(st.none(), st.floats(0.5, 20.0))),
        hedge_after_s=draw(st.one_of(st.none(), st.floats(0.1, 5.0))),
    )


@st.composite
def faulted_fleets(draw):
    replicas = draw(st.integers(min_value=1, max_value=3))
    fleet = [
        template(speed=draw(st.sampled_from([0.001, 0.01, 0.05])))
        for _ in range(replicas)
    ]
    return fleet, draw(fault_models(replicas)), draw(retry_policies())


class TestConservationUnderFaults:
    @settings(max_examples=60, deadline=None)
    @given(
        requests=request_lists(),
        config=faulted_fleets(),
        router=st.sampled_from(ROUTERS),
        classed=st.booleans(),
    )
    def test_every_arrival_is_exactly_one_outcome(
        self, requests, config, router, classed
    ):
        fleet, faults, retry = config
        admission = None
        if classed:
            admission = AdmissionController([
                SLOClass(name="interactive", priority=1),
                SLOClass(name="batch", priority=0),
            ])
        simulator = FleetSimulator(
            fleet, router=router, admission=admission,
            faults=faults, retry=retry,
        )
        result = simulator.run(requests)
        stats = result.resilience
        assert stats is not None
        assert result.arrived == len(requests)
        # Shed requests are neither admitted nor rejected ...
        assert result.arrived == (
            result.admitted + result.rejected + stats.shed
        )
        # ... and every admitted request drains to exactly one outcome.
        assert result.admitted == (
            result.completed + stats.failed + stats.timed_out
        )
        assert result.in_flight == 0
        # A completed request completes exactly once, hedges included.
        assert sum(r.completed for r in result.replicas) == result.completed
        assert stats.hedge_wins <= stats.hedges
        assert stats.first_attempt_completed <= result.completed
        per_class = result.classes
        assert sum(row["arrived"] for row in per_class) == result.arrived
        assert sum(row["shed"] for row in per_class) == stats.shed


class TestInertLayer:
    @settings(max_examples=60, deadline=None)
    @given(
        requests=request_lists(),
        replicas=st.lists(
            st.tuples(
                st.sampled_from([0.001, 0.01, 0.05]),
                st.sampled_from(["any", "prefill", "decode"]),
            ),
            min_size=1,
            max_size=3,
        ),
        router=st.sampled_from(ALL_ROUTERS),
        policy=st.sampled_from(POLICIES),
        classed=st.booleans(),
        autoscaled=st.booleans(),
        layer=st.sampled_from(("faults", "retry", "both")),
    )
    def test_an_inert_layer_reports_what_the_fault_free_run_reports(
        self, requests, replicas, router, policy, classed, autoscaled, layer
    ):
        def run(**resilience):
            # Admission keeps per-run token buckets: a fresh one per run.
            admission = None
            if classed:
                admission = AdmissionController([
                    SLOClass(name="interactive", rate_rps=4.0, burst=2,
                             priority=1, ttft_slo_s=0.5),
                    SLOClass(name="batch", priority=0),
                ])
            simulator = FleetSimulator(
                [template(speed, role) for speed, role in replicas],
                router=router,
                policy=policy,
                admission=admission,
                autoscaler=AutoscalerConfig(
                    max_extra=2, check_interval_s=0.5,
                    scale_up_depth=2.0, scale_down_depth=0.5,
                ) if autoscaled else None,
                scale_template=template(0.02),
                **resilience,
            )
            return simulator.run(list(requests)).to_dict()

        plain = run()
        inert = run(
            faults=FaultModel() if layer != "retry" else None,
            retry=RetryPolicy() if layer != "faults" else None,
        )
        stats = inert.pop("resilience")
        assert stats["shed"] == 0 and stats["crashes"] == 0
        for row in inert["classes"]:
            assert row.pop("shed") == 0
        assert "resilience" not in plain
        assert inert == plain


class TestFaultDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        config=faulted_fleets(),
        router=st.sampled_from(ROUTERS),
    )
    def test_same_seed_fault_runs_are_byte_identical(
        self, seed, config, router
    ):
        fleet, faults, retry = config
        trace = DiurnalTrace(
            rate_rps=3.0,
            duration_s=20.0,
            period_s=20.0,
            lengths=LengthModel(prompt_mean=16, output_mean=4,
                                prompt_max=32, output_max=8),
        )

        def run():
            simulator = FleetSimulator(
                list(fleet), router=router, faults=faults, retry=retry
            )
            result = simulator.run(iter_requests(trace, seed))
            return json.dumps(result.to_dict(), sort_keys=True)

        assert run() == run()

    def test_fault_runs_are_byte_deterministic_across_processes(self):
        command = [
            sys.executable, "-m", "repro", "fleet",
            "--platform", "siracusa-mipi:8x3",
            "--trace", "diurnal", "--arrival-rate", "2",
            "--duration", "60", "--period", "60",
            "--faults", "crash:0@10+20",
            "--faults", "random:30:10:60",
            "--retry", "20:2:0.5:1",
            "--shed-below", "0.9",
            "--seed", "0", "--json", "--no-cache",
        ]
        outputs = [
            subprocess.run(
                command,
                capture_output=True,
                text=True,
                check=True,
                cwd=str(REPO_ROOT),
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        document = json.loads(outputs[0])
        assert document["metrics"]["resilience"]["crashes"] >= 1


class TestFaultFreeBitIdentity:
    def test_fault_free_run_matches_the_pre_change_golden(self):
        # The exact configuration the golden was recorded with, before
        # the resilience layer existed.  Equality is byte-level: the
        # fault-free engine must be indistinguishable from the
        # pre-change code.
        templates = [
            template(0.01), template(0.01), template(0.001)
        ]
        classes = [
            SLOClass(name="interactive", rate_rps=4.0, burst=4,
                     priority=1, ttft_slo_s=0.5),
            SLOClass(name="batch", rate_rps=None, burst=1, priority=0),
        ]
        trace = DiurnalTrace(
            rate_rps=3.0,
            duration_s=60.0,
            period_s=60.0,
            lengths=LengthModel(prompt_mean=16, output_mean=4,
                                prompt_max=32, output_max=8),
        )
        simulator = FleetSimulator(
            templates,
            router="least_loaded",
            admission=AdmissionController(classes),
            slo_targets=(0.1, 0.5, 1.0),
        )
        result = simulator.run(iter_requests(trace, 7))
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        assert text == GOLDEN.read_text(encoding="utf-8")
