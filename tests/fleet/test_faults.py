"""Unit tests for fault injection and failover (stubbed phase costs).

Same style as ``test_fleet_simulator.py``: a linear stub cost model
makes every faulted timeline hand-computable, so these tests pin the
resilience semantics — crash failover, bounded retries, timeouts,
hedged dispatch, graceful degradation, unavailability accounting —
independently of the real block engine.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import signal

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fleet import (
    AdmissionController,
    FaultEvent,
    FaultModel,
    FleetSimulator,
    ReplicaTemplate,
    RetryPolicy,
    SLOClass,
)
from repro.fleet.faults import MAX_RANDOM_CRASHES, Resilience
from repro.serving import PhaseCost, Request

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


class StubCosts:
    """Linear phase costs (prefill: 10 ms/token, decode: 1 ms/step)."""

    def __init__(self, prefill_per_token=0.01, decode_step=0.001,
                 max_context=1024):
        self.prefill_per_token = prefill_per_token
        self.decode_step = decode_step
        self.max_context = max_context

    def prefill_cost(self, prompt_tokens):
        seconds = prompt_tokens * self.prefill_per_token
        return PhaseCost(seconds=seconds, energy_joules=seconds)

    def decode_cost(self, context_length):
        return PhaseCost(seconds=self.decode_step,
                         energy_joules=self.decode_step)


def template(costs=None):
    return ReplicaTemplate(
        preset="stub", chips=8, role="any", costs=costs or StubCosts()
    )


def req(request_id, arrival_s, prompt=10, output=2, priority=0):
    return Request(
        request_id=request_id,
        arrival_s=arrival_s,
        prompt_tokens=prompt,
        output_tokens=output,
        priority=priority,
    )


def conserve(result):
    """The request-conservation invariants every run must satisfy."""
    stats = result.resilience
    shed = stats.shed if stats is not None else 0
    assert result.arrived == result.admitted + result.rejected + shed
    drained = result.completed
    if stats is not None:
        drained += stats.failed + stats.timed_out
    assert result.admitted == drained
    assert result.in_flight == 0


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
class TestFaultEventParsing:
    def test_crash_forms(self):
        permanent = FaultEvent.parse("crash:2@10")
        assert permanent == FaultEvent(fault="crash", replica=2, start_s=10.0)
        assert permanent.end_s is None
        window = FaultEvent.parse("crash:0@5+30")
        assert window.duration_s == 30.0
        assert window.end_s == 35.0

    def test_slowdown_and_brownout_forms(self):
        slow = FaultEvent.parse("slow:1@10+20x3")
        assert slow == FaultEvent(
            fault="slowdown", replica=1, start_s=10.0, duration_s=20.0,
            factor=3.0,
        )
        brown = FaultEvent.parse("brownout@50+5x1.5")
        assert brown.fault == "brownout"
        assert brown.replica is None
        assert brown.factor == 1.5

    @pytest.mark.parametrize("text", [
        "crash:0",            # missing @START
        "bogus:0@5",          # unknown kind
        "crash:x@5",          # bad replica id
        "crash:0@abc",        # bad number
        "crash:0@-5",         # negative start
        "slow:1@10+20",       # slowdown without a factor
        "slow:1@10x2",        # slowdown without a duration
        "brownout:2@5+5x2",   # brownout cannot target a replica
        "brownout@5+5x0.5",   # factor must exceed 1
    ])
    def test_malformed_events_are_rejected(self, text):
        with pytest.raises(ConfigurationError, match="fault"):
            FaultEvent.parse(text)

    @pytest.mark.parametrize("field, value", [
        ("start_s", float("nan")),
        ("start_s", float("inf")),
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("factor", float("nan")),
        ("factor", float("inf")),
    ])
    def test_non_finite_values_are_rejected(self, field, value):
        # nan < 0 is false, so only an explicit finiteness check stops
        # these before they reach the fleet's event heap.
        fields = dict(fault="slowdown", replica=0, start_s=1.0,
                      duration_s=2.0, factor=2.0)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            FaultEvent(**fields)


class TestFaultModelParsing:
    def test_mixed_tokens(self):
        model = FaultModel.parse(
            ["crash:0@10+5", "random:100:20:600"], seed=7, shed_below=0.5
        )
        assert len(model.events) == 1
        assert model.crash_mtbf_s == 100.0
        assert model.crash_mttr_s == 20.0
        assert model.horizon_s == 600.0
        assert model.seed == 7
        assert model.shed_below == 0.5

    def test_random_layer_needs_a_horizon(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            FaultModel.parse(["random:100"])

    def test_malformed_random_layer(self):
        with pytest.raises(ConfigurationError, match="fault"):
            FaultModel.parse(["random:abc"])
        with pytest.raises(ConfigurationError, match="fault"):
            FaultModel.parse(["random:1:2:3:4"])

    @pytest.mark.parametrize("field", ["crash_mtbf_s", "crash_mttr_s", "horizon_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_random_layer_is_rejected(self, field, value):
        fields = dict(crash_mtbf_s=100.0, crash_mttr_s=20.0, horizon_s=600.0)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            FaultModel(**fields)

    def test_random_layer_too_large_to_draw_is_rejected(self):
        # ~5e17 crash windows per replica would never finish drawing.
        with pytest.raises(ConfigurationError, match="expects 5e\\+17 crashes"):
            FaultModel.parse(["random:1e-9:1e-9:1e9"])

    def test_random_layer_bound_is_on_expected_crashes(self):
        fields = dict(crash_mtbf_s=0.75, crash_mttr_s=0.25)
        FaultModel(horizon_s=float(MAX_RANDOM_CRASHES), **fields)
        with pytest.raises(ConfigurationError, match="above the bound"):
            FaultModel(horizon_s=MAX_RANDOM_CRASHES * 1.001, **fields)

    def test_shed_validation(self):
        with pytest.raises(ConfigurationError, match="shed_below"):
            FaultModel(shed_below=1.5)
        with pytest.raises(ConfigurationError, match="shed_keep"):
            FaultModel(shed_below=0.5, shed_keep=0)

    def test_validate_replicas_rejects_out_of_range_targets(self):
        model = FaultModel(events=(FaultEvent.parse("crash:5@1"),))
        with pytest.raises(ConfigurationError, match="static"):
            model.validate_replicas(2)
        model.validate_replicas(6)  # in range: no error

    def test_schedule_is_deterministic_and_sorted(self):
        model = FaultModel.parse(
            ["crash:1@50+10", "random:60:30:600"], seed=3
        )
        first = model.schedule(range(4))
        second = model.schedule(range(4))
        assert first == second
        starts = [event.start_s for event in first]
        assert starts == sorted(starts)
        assert any(event.start_s == 50.0 for event in first)


class TestRetryPolicyParsing:
    def test_shorthand_positions(self):
        assert RetryPolicy.parse("30") == RetryPolicy(timeout_s=30.0)
        assert RetryPolicy.parse(":3") == RetryPolicy(max_retries=3)
        full = RetryPolicy.parse("30:3:0.5:2")
        assert full == RetryPolicy(
            max_retries=3, backoff_s=0.5, timeout_s=30.0, hedge_after_s=2.0
        )

    def test_backoff_growth(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_multiplier=2.0)
        assert policy.backoff_for(1) == 0.5
        assert policy.backoff_for(2) == 1.0
        assert policy.backoff_for(3) == 2.0

    @pytest.mark.parametrize("text", ["abc", "30:3:0.5:2:9", "30:-1"])
    def test_malformed_policies_are_rejected(self, text):
        with pytest.raises(ConfigurationError, match="retry"):
            RetryPolicy.parse(text)


# ----------------------------------------------------------------------
# Crash failover and retry budgets
# ----------------------------------------------------------------------
class TestCrashFailover:
    def test_in_flight_request_fails_over_to_the_healthy_replica(self):
        # Prompt 100 on replica 0: prefill [0, 1.0].  The crash at 0.5
        # aborts it; the retry re-dispatches to replica 1 and the
        # request completes there from scratch.
        simulator = FleetSimulator(
            [template(), template()],
            router="round_robin",
            faults=FaultModel(events=(FaultEvent.parse("crash:0@0.5"),)),
            retry=RetryPolicy(max_retries=2, backoff_s=0.0),
        )
        result = simulator.run([req(0, 0.0, prompt=100, output=3)])
        stats = result.resilience
        assert result.completed == 1
        assert stats.crashes == 1
        assert stats.retries == 1
        assert stats.failed == 0
        # The aborted half-grant is wasted work, not throughput.
        assert stats.wasted_busy_s == pytest.approx(0.5)
        assert stats.first_attempt_completed == 0
        assert result.makespan_s == pytest.approx(0.5 + 1.002)
        conserve(result)

    def test_exhausted_retry_budget_fails_the_request(self):
        simulator = FleetSimulator(
            [template()],
            faults=FaultModel(events=(FaultEvent.parse("crash:0@0.5"),)),
            retry=RetryPolicy(max_retries=0),
        )
        result = simulator.run([req(0, 0.0, prompt=100, output=3)])
        stats = result.resilience
        assert result.completed == 0
        assert stats.failed == 1
        assert stats.retries == 0
        conserve(result)

    def test_crash_and_recover_window_restores_service(self):
        # Sole replica down over [1, 11]; the request arriving at 20
        # is served normally after recovery.
        simulator = FleetSimulator(
            [template()],
            faults=FaultModel(events=(FaultEvent.parse("crash:0@1+10"),)),
            retry=RetryPolicy(),
        )
        result = simulator.run([req(0, 20.0, prompt=100, output=3)])
        stats = result.resilience
        assert result.completed == 1
        assert stats.crashes == 1
        assert stats.recoveries == 1
        assert stats.replica_downtime_s == pytest.approx(10.0)
        assert stats.unavailable_s == pytest.approx(10.0)
        assert stats.unavailable_windows == 1
        conserve(result)

    def test_a_crash_that_never_recovers_counts_until_the_last_arrival(self):
        # Sole replica down for good at 3 s; the ten arrivals before it
        # finish by 2.801 s, and the fifty after it (the last at 17.7 s)
        # are shed.  The open outage and crash last until that last
        # arrival, not until the last completion, which came first.
        simulator = FleetSimulator(
            [template()],
            faults=FaultModel(events=(FaultEvent.parse("crash:0@3"),)),
        )
        result = simulator.run([req(index, index * 0.3) for index in range(60)])
        stats = result.resilience
        assert (result.completed, stats.shed) == (10, 50)
        assert result.makespan_s == pytest.approx(2.801)
        assert stats.unavailable_s == pytest.approx(14.7)
        assert stats.unavailable_windows == 1
        assert stats.replica_downtime_s == pytest.approx(14.7)
        assert stats.goodput_rps == pytest.approx(10 / 2.801)
        conserve(result)

    def test_a_duplicate_in_flight_id_fails_instead_of_hanging(self):
        # Both requests carry id 1, on different replicas; the short one
        # finishes first, then a crash fails the long one over.  Before
        # the fleet-wide check its retry waited forever.
        simulator = FleetSimulator(
            [template(), template()],
            router="round_robin",
            faults=FaultModel(events=(FaultEvent.parse("crash:0@0.5+1"),)),
            retry=RetryPolicy(max_retries=3, backoff_s=0.1),
        )
        requests = [req(1, 0.0, prompt=100), req(1, 0.001, prompt=1, output=1)]

        def give_up(signum, frame):
            raise TimeoutError("the fleet run did not end")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            with pytest.raises(SimulationError, match="duplicate request id 1: "):
                simulator.run(requests)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_arrivals_during_a_total_outage_are_shed(self):
        simulator = FleetSimulator(
            [template()],
            faults=FaultModel(events=(FaultEvent.parse("crash:0@1+10"),)),
            retry=RetryPolicy(),
        )
        result = simulator.run(
            [req(0, 5.0, prompt=10, output=2), req(1, 20.0)]
        )
        stats = result.resilience
        assert stats.shed == 1  # nothing to dispatch to at t=5
        assert result.completed == 1
        conserve(result)


# ----------------------------------------------------------------------
# Timeouts and hedging
# ----------------------------------------------------------------------
class TestTimeouts:
    def test_request_stuck_in_queue_times_out(self):
        # Replica busy with a 1.002 s grant; the 0.3 s timeout of the
        # queued request expires before it ever enters service.
        simulator = FleetSimulator(
            [template()],
            retry=RetryPolicy(timeout_s=0.3),
        )
        result = simulator.run([
            req(0, 0.0, prompt=100, output=3),
            req(1, 0.1, prompt=10, output=2),
        ])
        stats = result.resilience
        assert result.completed == 1
        assert stats.timed_out == 1
        conserve(result)

    def test_started_requests_are_never_timed_out(self):
        # The sole request enters service immediately: its long grant
        # outlives the deadline, but timeouts only abandon requests that
        # never reached service.
        simulator = FleetSimulator(
            [template()],
            retry=RetryPolicy(timeout_s=0.3),
        )
        result = simulator.run([req(0, 0.0, prompt=100, output=3)])
        assert result.completed == 1
        assert result.resilience.timed_out == 0
        conserve(result)

    def test_per_class_timeout_overrides_the_policy(self):
        classes = [
            SLOClass(name="patient", timeout_s=60.0),
            SLOClass(name="impatient", timeout_s=0.2),
        ]
        simulator = FleetSimulator(
            [template()],
            admission=AdmissionController(classes),
            retry=RetryPolicy(timeout_s=60.0),
        )
        result = simulator.run([
            req(0, 0.0, prompt=100, output=3, priority=0),
            req(1, 0.1, prompt=10, output=2, priority=1),
        ])
        assert result.resilience.timed_out == 1
        conserve(result)


class TestHedging:
    def test_hedge_dispatches_a_second_copy_once(self):
        # Both replicas busy until ~1.0; the queued request hedges at
        # 0.2 + 0.1 and exactly one copy completes.
        simulator = FleetSimulator(
            [template(), template()],
            router="least_loaded",
            retry=RetryPolicy(hedge_after_s=0.1),
        )
        result = simulator.run([
            req(0, 0.0, prompt=100, output=3),
            req(1, 0.0, prompt=100, output=3),
            req(2, 0.2, prompt=10, output=2),
        ])
        stats = result.resilience
        assert result.completed == 3
        assert stats.hedges == 1
        assert stats.hedge_wins <= 1
        conserve(result)

    def test_hedged_sibling_survives_a_crash(self):
        # Round robin queues request 2's primary copy on replica 0
        # behind the long request 0; the hedge puts a second copy on
        # replica 1.  When replica 0 crashes, request 0 (started, no
        # retries left) fails, but request 2 survives through its
        # hedged sibling without consuming a retry.
        simulator = FleetSimulator(
            [template(), template()],
            router="round_robin",
            faults=FaultModel(events=(FaultEvent.parse("crash:0@0.5"),)),
            retry=RetryPolicy(max_retries=0, hedge_after_s=0.1),
        )
        result = simulator.run([
            req(0, 0.0, prompt=100, output=3),
            req(1, 0.0, prompt=100, output=3),
            req(2, 0.2, prompt=10, output=2),
        ])
        stats = result.resilience
        assert result.completed == 2  # requests 1 and 2
        assert stats.failed == 1      # request 0: started, no budget
        assert stats.hedges == 1
        assert stats.retries == 0
        conserve(result)


# ----------------------------------------------------------------------
# Slowdowns, brownouts, graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_slowdown_stretches_service_on_the_straggler(self):
        healthy = FleetSimulator([template()]).run(
            [req(0, 0.0, prompt=100, output=3)]
        )
        slowed = FleetSimulator(
            [template()],
            faults=FaultModel(
                events=(FaultEvent.parse("slow:0@0+100x2"),)
            ),
        ).run([req(0, 0.0, prompt=100, output=3)])
        assert slowed.completed == 1
        assert slowed.makespan_s > healthy.makespan_s
        assert slowed.resilience.degraded_completed == 1
        assert slowed.resilience.healthy_completed == 0
        conserve(slowed)

    def test_brownout_slows_every_replica(self):
        healthy = FleetSimulator([template(), template()]).run(
            [req(0, 0.0, prompt=100, output=3),
             req(1, 0.0, prompt=100, output=3)]
        )
        browned = FleetSimulator(
            [template(), template()],
            faults=FaultModel(
                events=(FaultEvent.parse("brownout@0+100x2"),)
            ),
        ).run([req(0, 0.0, prompt=100, output=3),
               req(1, 0.0, prompt=100, output=3)])
        assert browned.completed == 2
        assert browned.makespan_s > healthy.makespan_s
        conserve(browned)

    def test_low_priority_classes_are_shed_while_degraded(self):
        # Two of three replicas crash: healthy capacity 1/3 < 0.9, so
        # only the highest-priority class keeps being admitted.
        classes = [
            SLOClass(name="interactive", priority=1),
            SLOClass(name="batch", priority=0),
        ]
        simulator = FleetSimulator(
            [template(), template(), template()],
            admission=AdmissionController(classes),
            faults=FaultModel(
                events=(
                    FaultEvent.parse("crash:1@1+100"),
                    FaultEvent.parse("crash:2@1+100"),
                ),
                shed_below=0.9,
                shed_keep=1,
            ),
            retry=RetryPolicy(),
        )
        result = simulator.run([
            req(0, 5.0, priority=0),
            req(1, 5.1, priority=1),
            req(2, 6.0, priority=0),
        ])
        stats = result.resilience
        assert stats.shed == 1  # the batch request
        assert result.completed == 2
        batch_row = next(
            row for row in result.classes if row["name"] == "batch"
        )
        assert batch_row["shed"] == 1
        conserve(result)


# ----------------------------------------------------------------------
# Events of an instant whose arrival a replica's pick waits for
# ----------------------------------------------------------------------
class TestWaitingPicks:
    """At t=0.1 a grant ends while request 1 is due to arrive.

    The replica's pick waits for that arrival, and the crash or the
    timeout due at the same instant sorts before it, so it meets a
    replica with no grant in flight.
    """

    def test_a_crash_meets_a_waiting_replica(self):
        simulator = FleetSimulator(
            [template()],
            faults=FaultModel(events=(FaultEvent.parse("crash:0@0.1+0.5"),)),
            retry=RetryPolicy(max_retries=1, backoff_s=1.0),
        )
        # Request 0's prefill ends at 0.1 and its decode step waits; the
        # crash fails it over (retried at 1.1, after the recovery) and
        # request 1 arrives to a fleet with no replica in service.
        result = simulator.run([req(0, 0.0), req(1, 0.1, output=1)])
        stats = result.resilience
        assert (result.completed, stats.shed, stats.retries) == (1, 1, 1)
        assert stats.wasted_busy_s == 0.0  # nothing was in flight
        assert result.replicas[0].busy_s == pytest.approx(0.1 + 0.101)
        assert result.makespan_s == pytest.approx(1.201)
        conserve(result)

    def test_a_timeout_empties_a_waiting_replica(self):
        # Request 1 (queued at 0.05, deadline 0.1) times out before the
        # pick, and the class's two-request burst rejects request 2: the
        # replica is left with nothing to pick.
        simulator = FleetSimulator(
            [template()],
            admission=AdmissionController([SLOClass(rate_rps=0.001, burst=2)]),
            retry=RetryPolicy(timeout_s=0.05),
        )
        result = simulator.run(
            [req(0, 0.0, output=1), req(1, 0.05), req(2, 0.1)]
        )
        stats = result.resilience
        assert (result.completed, stats.timed_out, result.rejected) == (1, 1, 1)
        assert result.makespan_s == pytest.approx(0.1)
        conserve(result)


# ----------------------------------------------------------------------
# Construction-time validation and reporting
# ----------------------------------------------------------------------
class TestSimulatorIntegration:
    def test_fault_targets_are_validated_against_the_static_fleet(self):
        with pytest.raises(ConfigurationError, match="static"):
            FleetSimulator(
                [template()],
                faults=FaultModel(
                    events=(FaultEvent.parse("crash:3@1"),)
                ),
            )

    def test_the_fault_free_path_never_builds_the_resilience_component(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("built the resilience component")

        monkeypatch.setattr(Resilience, "__init__", refuse)
        spec = importlib.util.spec_from_file_location(
            "make_cli_golden", DATA / "make_cli_golden.py"
        )
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        golden = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))
        # `fleet` and `serve` (a one-replica fleet) print their pinned bytes.
        for command in (
            "fleet --duration 60 --json --no-cache",
            "serve --duration 60 --json --no-cache",
        ):
            assert generator.stdout_of(command) == golden["json"][command]
        # A retry policy alone builds it.
        with pytest.raises(AssertionError, match="resilience component"):
            FleetSimulator([template()], retry=RetryPolicy()).run([req(0, 0.0)])

    def test_fault_free_run_has_no_resilience_block(self):
        result = FleetSimulator([template()]).run([req(0, 0.0)])
        assert result.resilience is None
        assert "resilience" not in result.to_dict()
        assert all("shed" not in row for row in result.classes)

    def test_faulted_report_renders_resilience_lines(self):
        from repro.fleet.metrics import FleetReport

        simulator = FleetSimulator(
            [template(), template()],
            faults=FaultModel(events=(FaultEvent.parse("crash:0@0.5+5"),)),
            retry=RetryPolicy(max_retries=2),
        )
        result = simulator.run([req(0, 0.0, prompt=100, output=3)])
        report = FleetReport(
            model="stub", strategy="paper", router="round_robin",
            policy="fifo", seed=0, result=result,
        )
        text = report.render()
        assert "resilience" in text
        assert "goodput" in text
        assert "availability" in text
        document = result.to_dict()
        assert document["resilience"]["crashes"] == 1
