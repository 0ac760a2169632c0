"""Property-based tests of the fleet event loop.

Three fleet-wide invariants, checked over randomised traffic, fleet
shapes, routers, and admission configurations (stubbed phase costs keep
every example fast):

* **Request conservation** — every arrival is admitted or rejected, and
  the engine drains every admitted request by the horizon.
* **Drained replicas never see traffic** — the router is only ever
  offered in-service replicas, even while the autoscaler churns.
* **Same-seed determinism** — equal seeds and configurations give
  byte-identical fleet reports.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.fleet import (
    AdmissionController,
    AutoscalerConfig,
    FleetSimulator,
    ReplicaTemplate,
    SLOClass,
    get_router,
    iter_requests,
)
from repro.serving import DiurnalTrace, LengthModel, PhaseCost, Request

ROUTERS = ("round_robin", "least_loaded", "session_affinity", "prefill_decode")


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
    count = draw(st.integers(min_value=1, max_value=40))
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
                output_tokens=draw(st.integers(min_value=1, max_value=16)),
                priority=draw(st.integers(min_value=0, max_value=2)),
                client_id=draw(
                    st.one_of(st.none(), st.integers(min_value=0, max_value=3))
                ),
            )
        )
    return requests


@st.composite
def fleets(draw):
    replicas = draw(st.integers(min_value=1, max_value=4))
    roles = ("any", "prefill", "decode")
    return [
        template(
            speed=draw(st.sampled_from([0.001, 0.01, 0.05])),
            role=draw(st.sampled_from(roles)),
        )
        for _ in range(replicas)
    ]


@st.composite
def admissions(draw):
    if draw(st.booleans()):
        return None  # the default single unlimited class
    classes = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        rate = draw(
            st.one_of(st.none(), st.floats(min_value=0.5, max_value=10.0))
        )
        classes.append(
            SLOClass(
                name=f"class-{index}",
                rate_rps=rate,
                burst=draw(st.integers(min_value=1, max_value=4)),
                priority=index,
            )
        )
    return AdmissionController(classes)


class TestConservation:
    @settings(max_examples=50, deadline=None)
    @given(
        requests=request_lists(),
        fleet=fleets(),
        router=st.sampled_from(ROUTERS),
        admission=admissions(),
    )
    def test_every_arrival_is_accounted_for(
        self, requests, fleet, router, admission
    ):
        simulator = FleetSimulator(fleet, router=router, admission=admission)
        result = simulator.run(requests)
        assert result.arrived == len(requests)
        assert result.arrived == result.admitted + result.rejected
        assert result.admitted == result.completed + result.in_flight
        # An open-loop fleet drains everything it admits.
        assert result.in_flight == 0
        assert sum(r.completed for r in result.replicas) == result.completed
        per_class = result.classes
        assert sum(row["arrived"] for row in per_class) == result.arrived
        assert sum(row["admitted"] for row in per_class) == result.admitted
        assert sum(row["rejected"] for row in per_class) == result.rejected


class SpyRouter:
    """Wraps a real router and asserts the engine's dispatch contract."""

    name = "spy"
    label = "Asserts no drained replica is ever offered"

    def __init__(self, inner):
        self.inner = inner
        self.offered = 0

    def __deepcopy__(self, memo):
        # A fleet run routes through a copy of the router it was given;
        # the spy is its own copy, so the test reads what the run offered.
        return self

    def route(self, request, replicas, now_s):
        assert replicas, "the engine must never offer an empty fleet"
        ids = [replica.replica_id for replica in replicas]
        assert ids == sorted(ids), "replicas must arrive in id order"
        for replica in replicas:
            assert not replica.draining
            assert replica.drained_s is None
        self.offered += 1
        return self.inner.route(request, replicas, now_s)


class TestDrainedReplicasAreInvisible:
    @settings(max_examples=25, deadline=None)
    @given(
        requests=request_lists(),
        router=st.sampled_from(ROUTERS),
        interval=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_router_only_sees_in_service_replicas(
        self, requests, router, interval
    ):
        # An aggressive autoscaler maximises add/drain/retire churn.
        spy = SpyRouter(get_router(router))
        simulator = FleetSimulator(
            [template()],
            router=spy,
            autoscaler=AutoscalerConfig(
                preset="stub",
                check_interval_s=interval,
                scale_up_depth=1.0,
                scale_down_depth=0.9,
                max_extra=3,
            ),
            scale_template=template(),
        )
        result = simulator.run(requests)
        assert spy.offered == result.admitted


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.5, max_value=5.0),
        router=st.sampled_from(ROUTERS),
        replicas=st.integers(min_value=1, max_value=3),
    )
    def test_same_seed_runs_are_byte_identical(
        self, seed, rate, router, replicas
    ):
        trace = DiurnalTrace(
            rate_rps=rate,
            duration_s=30.0,
            period_s=30.0,
            lengths=LengthModel(prompt_mean=16, output_mean=4,
                                prompt_max=32, output_max=8),
        )

        def run():
            simulator = FleetSimulator(
                [template() for _ in range(replicas)], router=router
            )
            result = simulator.run(iter_requests(trace, seed))
            return json.dumps(result.to_dict(), sort_keys=True)

        assert run() == run()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_stream_and_build_agree(self, seed):
        trace = DiurnalTrace(rate_rps=3.0, duration_s=20.0, period_s=20.0)
        assert list(trace.stream(seed)) == list(trace.build(seed).initial)
