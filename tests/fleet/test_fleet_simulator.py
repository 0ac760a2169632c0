"""Unit tests for the fleet event loop (stubbed phase costs).

Mirrors ``tests/serving/test_serving_simulator.py``: a linear stub cost
model makes every fleet timeline hand-computable, so these tests pin the
event-loop semantics — lazy arrivals, admission, dispatch validation,
autoscaling, streaming metrics — independently of the real block engine.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError, ConfigurationError, SimulationError
from repro.fleet import (
    AdmissionController,
    AutoscalerConfig,
    FaultModel,
    FleetPlatform,
    FleetSimulator,
    ReplicaTemplate,
    RoundRobinRouter,
    SLOClass,
    iter_requests,
)
from repro.fleet.metrics import StreamingSummary
from repro.fleet.simulator import serve_source
from repro.serving import (
    ClosedLoopTrace,
    DiurnalTrace,
    PhaseCost,
    ReplayTrace,
    Request,
)


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


def template(costs=None, preset="stub", chips=8, role="any"):
    return ReplicaTemplate(
        preset=preset, chips=chips, role=role, costs=costs or StubCosts()
    )


def req(request_id, arrival_s, prompt=10, output=2, priority=0):
    return Request(
        request_id=request_id,
        arrival_s=arrival_s,
        prompt_tokens=prompt,
        output_tokens=output,
        priority=priority,
    )


def burst(count, spacing=0.01, prompt=10, output=2):
    return [
        req(i, i * spacing, prompt=prompt, output=output)
        for i in range(count)
    ]


class TestPlatformParsing:
    def test_shorthand_forms(self):
        assert FleetPlatform.parse("siracusa-mipi") == FleetPlatform()
        assert FleetPlatform.parse("siracusa-mipi:4").chips == 4
        parsed = FleetPlatform.parse("siracusa-big-l2:4x2@decode")
        assert parsed == FleetPlatform(
            preset="siracusa-big-l2", chips=4, replicas=2, role="decode"
        )
        assert FleetPlatform.parse("siracusa-mipi@prefill").role == "prefill"

    def test_malformed_shorthand_is_rejected(self):
        for text in ("", ":8", "preset:x", "preset:8xtwo", "preset:abc"):
            with pytest.raises(ConfigurationError, match="fleet platform|preset"):
                FleetPlatform.parse(text)

    def test_field_validation(self):
        with pytest.raises(ConfigurationError):
            FleetPlatform(chips=0)
        with pytest.raises(ConfigurationError):
            FleetPlatform(replicas=0)
        with pytest.raises(ConfigurationError):
            FleetPlatform(role="gpu")


class TestSingleReplicaTimeline:
    def test_matches_the_serving_semantics_exactly(self):
        # Prompt 100 at t=0: prefill [0, 1.0] emits the first token, then
        # 2 decode steps of 1 ms each -> finish at 1.002.
        simulator = FleetSimulator([template()], router="round_robin")
        result = simulator.run(
            [req(0, 0.0, prompt=100, output=3)]
        )
        assert result.completed == 1
        assert result.makespan_s == pytest.approx(1.002)
        assert result.ttft.max == pytest.approx(1.0)
        assert result.generated_tokens == 3
        assert result.prompt_tokens == 100
        assert result.total_energy_joules == pytest.approx(1.002)
        assert result.in_flight == 0
        assert not result.approximate

    def test_queueing_behind_a_long_request(self):
        simulator = FleetSimulator([template()])
        result = simulator.run(
            [
                req(0, 0.0, prompt=100, output=3),
                req(1, 0.5, prompt=10, output=2),
            ]
        )
        # The second request waits until 1.002, like the serving FIFO test.
        assert result.queue_wait.max == pytest.approx(0.502)
        assert result.makespan_s == pytest.approx(1.103)


class TestSameInstantRule:
    """Three requests arrive together: prompts of 30, 10 and 20 tokens."""

    TIED = (
        req(0, 0.0, prompt=30, output=1),
        req(1, 0.0, prompt=10, output=1),
        req(2, 0.0, prompt=20, output=1),
    )

    def test_serve_picks_after_every_tied_arrival(self):
        result = serve_source(
            StubCosts(), ReplayTrace(self.TIED).build(0), "shortest_prompt"
        )
        finishes = [(r.request.request_id, r.finish_s) for r in result.records]
        assert finishes == [
            (1, pytest.approx(0.1)),
            (2, pytest.approx(0.3)),
            (0, pytest.approx(0.6)),
        ]

    def test_a_one_replica_fleet_matches_serve(self):
        simulator = FleetSimulator([template()], policy="shortest_prompt")
        result = simulator.run(self.TIED)
        # First tokens at 0.1, 0.3 and 0.6 s (0.433 s on average if the
        # first arrival took the idle replica).
        assert result.ttft.mean == pytest.approx(1.0 / 3.0)
        assert result.makespan_s == pytest.approx(0.6)

    def test_two_least_loaded_replicas_serve_the_shorter_tied_prompt_first(self):
        simulator = FleetSimulator(
            [template(), template()],
            router="least_loaded",
            policy="shortest_prompt",
        )
        result = simulator.run(self.TIED)
        # Replica 1 takes request 1 (0.1 s); replica 0 holds requests 0
        # and 2 and, once both are queued, serves 2 (0.2 s) before 0
        # (0.5 s); 0.300 s on average if request 0 went first.
        assert [r.completed for r in result.replicas] == [2, 1]
        assert result.ttft.mean == pytest.approx(0.8 / 3.0)


class TestDispatch:
    def test_round_robin_alternates_replicas(self):
        simulator = FleetSimulator([template(), template()])
        result = simulator.run(burst(10))
        assert [r.completed for r in result.replicas] == [5, 5]

    def test_least_loaded_favours_the_faster_replica(self):
        fast = template(StubCosts(prefill_per_token=0.001), preset="fast")
        slow = template(StubCosts(prefill_per_token=0.1), preset="slow")
        simulator = FleetSimulator([slow, fast], router="least_loaded")
        result = simulator.run(burst(60, spacing=0.05))
        by_preset = {r.preset: r.completed for r in result.replicas}
        assert by_preset["fast"] > by_preset["slow"]

    def test_rogue_router_dispatch_is_caught(self):
        class RogueRouter:
            name = "rogue"
            label = "Dispatches to a replica outside the serving set"

            def route(self, request, replicas, now_s):
                return object.__new__(type(replicas[0]))

        simulator = FleetSimulator([template()], router=RogueRouter())
        with pytest.raises(SimulationError, match="drained or unknown"):
            simulator.run(burst(2))

    def test_an_id_in_flight_on_another_replica_is_rejected(self):
        # Round robin puts the two requests on different replicas, so
        # neither replica's own queue holds the id twice.
        simulator = FleetSimulator([template(), template()], router="round_robin")
        with pytest.raises(SimulationError, match="duplicate request id 1: "):
            simulator.run([req(1, 0.0), req(1, 0.001)])

    def test_out_of_order_arrivals_are_rejected(self):
        simulator = FleetSimulator([template()])
        with pytest.raises(SimulationError, match="time order"):
            simulator.run([req(0, 1.0), req(1, 0.5)])

    def test_oversized_requests_fail_fast(self):
        simulator = FleetSimulator([template(StubCosts(max_context=64))])
        with pytest.raises(ConfigurationError, match="serving window"):
            simulator.run([req(0, 0.0, prompt=100, output=10)])

    def test_an_empty_trace_is_an_error(self):
        simulator = FleetSimulator([template()])
        with pytest.raises(AnalysisError, match="no requests"):
            simulator.run([])


class TestAdmissionIntegration:
    def test_rate_limited_class_rejects_the_burst_tail(self):
        admission = AdmissionController(
            (SLOClass(name="limited", rate_rps=1.0, burst=2),)
        )
        simulator = FleetSimulator([template()], admission=admission)
        result = simulator.run(burst(20, spacing=0.01))
        assert result.arrived == 20
        assert result.admitted + result.rejected == 20
        assert result.rejected > 0
        assert result.completed == result.admitted
        row = result.classes[0]
        assert row["name"] == "limited"
        assert row["rejected"] == result.rejected

    def test_class_priority_is_stamped_onto_admitted_requests(self):
        # Two classes; arrivals carry priority 0/1 and map accordingly.
        admission = AdmissionController(
            (SLOClass(name="bulk", priority=0),
             SLOClass(name="gold", priority=5))
        )
        simulator = FleetSimulator([template()], admission=admission)
        requests = [req(i, i * 0.01, priority=i % 2) for i in range(10)]
        result = simulator.run(requests)
        assert result.classes[0]["admitted"] == 5
        assert result.classes[1]["admitted"] == 5


class TestAutoscaling:
    def test_reactive_scale_up_drain_and_retire(self):
        # 50 one-second requests land in half a second on one replica:
        # the queue spikes, two extras are added, and once the backlog
        # drains the extras are drained and retired.
        config = AutoscalerConfig(
            preset="stub",
            check_interval_s=1.0,
            scale_up_depth=2.0,
            scale_down_depth=0.5,
            max_extra=2,
        )
        simulator = FleetSimulator(
            [template()],
            router="least_loaded",
            autoscaler=config,
            scale_template=template(),
        )
        result = simulator.run(burst(50, spacing=0.01, prompt=100, output=1))
        actions = [event.action for event in result.scaling_events]
        assert actions.count("add") == 2
        assert "drain" in actions
        assert "retire" in actions
        sources = [r.source for r in result.replicas]
        assert sources == ["static", "autoscaled", "autoscaled"]
        retired = [r for r in result.replicas if r.drained_s is not None]
        assert retired and all(r.source == "autoscaled" for r in retired)
        assert result.completed == 50

    def test_autoscaler_requires_a_scale_template(self):
        with pytest.raises(ConfigurationError, match="scale_template"):
            FleetSimulator([template()], autoscaler=AutoscalerConfig())


def clients(count, spacing=0.05):
    """``count`` requests from five clients, the first of each the longest."""
    return [
        Request(request_id=i, arrival_s=i * spacing,
                prompt_tokens=60 if i < 5 else 10, output_tokens=2,
                client_id=i % 5)
        for i in range(count)
    ]


def autoscaled():
    return FleetSimulator(
        [template()],
        router="least_loaded",
        admission=AdmissionController(
            (SLOClass(name="limited", rate_rps=3.0, burst=4),)
        ),
        autoscaler=AutoscalerConfig(
            preset="stub",
            check_interval_s=1.0,
            scale_up_depth=2.0,
            scale_down_depth=0.5,
            max_extra=2,
        ),
        scale_template=template(),
    )


class TestReuse:
    @pytest.mark.parametrize(
        "simulator, requests",
        [
            (autoscaled, burst(100, spacing=0.05, prompt=60, output=2)),
            (lambda: FleetSimulator([template()] * 2, router="round_robin"),
             burst(7)),
            (lambda: FleetSimulator([template()] * 2, router=RoundRobinRouter()),
             burst(7)),
            # The crash makes the router re-pin replica 0's clients.
            (lambda: FleetSimulator([template()] * 2,
                                    router="session_affinity",
                                    faults=FaultModel.parse(["crash:0@0.5+0.3"])),
             clients(20)),
        ],
        ids=["least_loaded", "round_robin", "round_robin-instance",
             "session_affinity"],
    )
    def test_a_second_run_of_one_simulator_repeats_the_first(
        self, simulator, requests
    ):
        # Token buckets, class counters, autoscaled extras and the
        # router's cursor and pins belong to one run: a rerun on the same
        # stream must not inherit them.
        simulator = simulator()
        first = simulator.run(requests).to_dict()
        assert first["classes"][0]["arrived"] == len(requests)
        if simulator.autoscaler is not None:
            assert first["autoscaler_events"]
        assert simulator.run(requests).to_dict() == first


class TestStreamingMetrics:
    def test_percentiles_switch_to_the_histogram_above_the_threshold(self):
        simulator = FleetSimulator([template()], record_threshold=5)
        result = simulator.run(burst(20, spacing=1.0))
        assert result.approximate
        assert result.record_threshold == 5
        # Counts and means stay exact in histogram mode.
        assert result.completed == 20
        assert result.ttft.mean > 0

    def test_histogram_counts_the_samples_of_the_exact_phase(self):
        summary = StreamingSummary(threshold=4)
        for value in [1.0] * 5 + [100.0] * 5:
            summary.add(value)
        assert summary.approximate
        # The median is the fifth sample, 1 s, taken before the switch:
        # its bin's upper edge is 10**(1/16) s.
        assert summary.summary().p50 == pytest.approx(10 ** (1 / 16))
        assert summary.summary().p99 == 100.0

    def test_slo_curve_is_exact_at_any_scale(self):
        simulator = FleetSimulator(
            [template()], record_threshold=5, slo_targets=(10.0,)
        )
        result = simulator.run(burst(20, spacing=1.0))
        # Every TTFT is far below 10 s, exact even in histogram mode.
        assert result.slo_curve == ((10.0, 1.0),)

    def test_timeline_windows_cover_the_run(self):
        simulator = FleetSimulator([template()])
        result = simulator.run(burst(10, spacing=60.0))
        assert len(result.timeline) >= 9
        for end_s, depth, replicas, utilisation in result.timeline:
            assert depth >= 0
            assert replicas == 1
            assert 0.0 <= utilisation <= 1.0


class TestDeterminism:
    def test_equal_inputs_give_byte_identical_results(self):
        requests = burst(40, spacing=0.02)

        def run():
            simulator = FleetSimulator(
                [template(), template()], router="session_affinity"
            )
            return json.dumps(
                simulator.run(list(requests)).to_dict(), sort_keys=True
            )

        assert run() == run()


class TestArrivalStreams:
    def test_closed_loop_traces_are_rejected(self):
        trace = ClosedLoopTrace(clients=2, requests_per_client=2)
        with pytest.raises(ConfigurationError, match="closed-loop"):
            iter_requests(trace, seed=0)

    def test_a_pending_follow_up_keeps_the_timeline_going(self):
        def on_complete(record):
            if record.request.request_id == 0:
                return req(1, record.finish_s + 150.0)
            return None

        simulator = FleetSimulator([template()])
        result = simulator.run([req(0, 0.0)], on_complete)
        assert result.completed == 2
        assert result.makespan_s == pytest.approx(150.202)
        assert [window[0] for window in result.timeline] == [60.0, 120.0, 180.0]

    def test_diurnal_traces_stream_lazily(self):
        trace = DiurnalTrace(rate_rps=5.0, duration_s=3600.0)
        stream = iter_requests(trace, seed=0)
        assert not isinstance(stream, (list, tuple))
        first = next(stream)
        assert first == trace.build(0).initial[0]
