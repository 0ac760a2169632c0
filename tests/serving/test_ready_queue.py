"""The ready queue's heap path against the scan it replaces.

For a policy with an ``order_key``, :class:`~repro.serving.ReadyQueue`
keeps the ready requests in a heap; without one it calls ``select`` over
the ``request_id``-ordered ready list on every grant, as the engines
always did.  These tests hold the two paths to the same choices:

* a Hypothesis state machine drives one queue through random
  admissions, retries, grants, cancels and crashes and requires every
  heap ``select`` to return what the policy's ``select`` returns over
  the ordered ready list, for all four shipped policies
  (``continuous``'s key changes with every grant; a retried request
  leaves a stale entry next to its live one);
* whole serve and faulted-fleet runs give ``==`` results with each
  shipped policy and with the same policy behind a wrapper that hides
  its ``order_key`` (forcing the scan);
* a keyless plugin whose choice depends on the clock sees the same
  clock and makes the same choices in ``serve`` as in the serving
  oracle (``tests/serving_oracle.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

import serving_oracle
from repro.api import Session
from repro.errors import ConfigurationError, SimulationError
from repro.fleet.simulator import serve_grant, serve_source
from repro.serving import (
    ActiveRequest,
    PhaseCost,
    ReadyQueue,
    ReplayTrace,
    Request,
    get_policy,
    register_policy,
)
from repro.serving import policies
from repro.spec import execute, spec_from_dict

SHIPPED = ("fifo", "shortest_prompt", "priority", "continuous")


class StubCosts:
    """Linear phase costs (prefill: 10 ms/token, decode: 1 ms/step)."""

    max_context = 1024

    def prefill_cost(self, prompt_tokens):
        return PhaseCost(seconds=0.01 * prompt_tokens, energy_joules=0.0)

    def decode_cost(self, context_length):
        return PhaseCost(seconds=0.001, energy_joules=0.0)


class Keyless:
    """A policy with its ``order_key`` hidden, so the engines scan."""

    def __init__(self, policy):
        self.name = policy.name
        self.label = policy.label
        self.decode_quantum = policy.decode_quantum
        self.policy = policy
        self.selects = 0

    def select(self, ready, now_s):
        self.selects += 1
        return self.policy.select(ready, now_s)


def ordered(queue):
    return [queue[rid] for rid in sorted(queue)]


# ----------------------------------------------------------------------
# The queue on its own
# ----------------------------------------------------------------------
class ReadyQueueMachine(RuleBasedStateMachine):
    """One engine's traffic on one queue; every heap pop must equal the scan."""

    @initialize(name=st.sampled_from(SHIPPED))
    def start(self, name):
        self.policy = get_policy(name)
        self.queue = ReadyQueue(self.policy)
        self.admitted = []  # every request ever added, by id
        self.in_service = None
        self.now = 0.0
        self.decode_cache = [None] * (StubCosts.max_context + 1)

    @rule(
        arrivals=st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.5, 1.0)),  # arrival_s, tied often
                st.integers(1, 3),  # prompt_tokens
                st.integers(1, 3),  # output_tokens
                st.integers(0, 1),  # priority
            ),
            min_size=1,
            max_size=4,
        )
    )
    def admit(self, arrivals):
        for arrival_s, prompt, output, priority in arrivals:
            request = Request(
                request_id=len(self.admitted),
                arrival_s=arrival_s,
                prompt_tokens=prompt,
                output_tokens=output,
                priority=priority,
            )
            self.admitted.append(request)
            self.queue.add(ActiveRequest(request=request))

    @rule(data=st.data())
    def retry(self, data):
        # A cancelled or crashed request comes back as a fresh copy; its
        # old heap entry may still be there.
        gone = [r for r in self.admitted if r.request_id not in self.queue]
        if gone:
            request = data.draw(st.sampled_from(gone))
            self.queue.add(ActiveRequest(request=request, attempt=1))

    @precondition(lambda self: self.in_service is None and self.queue)
    @rule()
    def grant(self):
        self.now += 0.25
        expected = self.policy.select(ordered(self.queue), self.now)
        chosen = self.queue.select(self.now)
        assert chosen is expected
        serve_grant(self.policy, StubCosts(), chosen, self.now, self.decode_cache)
        self.in_service = chosen

    @precondition(lambda self: self.in_service is not None)
    @rule()
    def grant_ends(self):
        # The request finishes or goes back in line.
        chosen, self.in_service = self.in_service, None
        if chosen.is_done:
            del self.queue[chosen.request.request_id]
        else:
            self.queue.requeue(chosen)

    @rule(data=st.data())
    def cancel(self, data):
        # A hedge race lost or a timeout: a waiting request leaves.
        waiting = sorted(
            rid for rid, active in self.queue.items() if active is not self.in_service
        )
        if waiting:
            self.queue.pop(data.draw(st.sampled_from(waiting)))

    @rule(roll=st.integers(0, 3))
    def crash(self, roll):
        # The replica drops everything, the request in service included
        # (one roll in four, so queues also grow deep).
        if roll == 0:
            self.queue.clear()
            self.in_service = None


ReadyQueueMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None
)
TestHeapSelectMatchesThePolicyScan = ReadyQueueMachine.TestCase


def test_stale_and_live_entries_of_one_request_never_compare():
    queue = ReadyQueue(get_policy("fifo"))
    request = Request(request_id=7, arrival_s=1.0, prompt_tokens=4, output_tokens=2)
    later = Request(request_id=9, arrival_s=3.0, prompt_tokens=4, output_tokens=2)
    queue.add(ActiveRequest(request=request))
    queue.add(ActiveRequest(request=later))
    queue.pop(7)  # cancelled: its entry stays in the heap
    retried = ActiveRequest(request=request, attempt=1)
    queue.add(retried)  # same key and id as the stale entry
    assert queue.select(5.0) is retried
    assert queue.select(5.0) is queue[9]


def test_keyless_queue_scans_and_checks_the_choice():
    fifo = get_policy("fifo")
    queue = ReadyQueue(Keyless(fifo))
    for rid, arrival in ((4, 2.0), (2, 1.0), (3, 1.0)):
        queue.add(
            ActiveRequest(
                request=Request(
                    request_id=rid, arrival_s=arrival, prompt_tokens=1, output_tokens=1
                )
            )
        )
    assert queue._heap == []
    assert queue.select(0.0) is queue[2]

    class Stranger:
        name = "stranger"

        def select(self, ready, now_s):
            return ActiveRequest(request=ready[0].request)  # a copy

    queue.policy = Stranger()
    with pytest.raises(SimulationError, match="not in the ready queue"):
        queue.select(0.0)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def test_register_policy_rejects_a_non_callable_order_key():
    class BadKey:
        name = "test_bad_key"
        label = "order_key is not a function"
        decode_quantum = None
        order_key = ("arrival_s",)

        def select(self, ready, now_s):
            return ready[0]

    with pytest.raises(ConfigurationError, match="non-callable order_key"):
        register_policy(BadKey)
    assert "test_bad_key" not in policies.list_policies()


class OldestPastOneSecond:
    """Keyless plugin: the oldest request once it has waited 1 s, else SJF."""

    name = "test_oldest_past_one_second"
    label = "Aged FIFO over shortest prompt"
    decode_quantum = None

    def __init__(self):
        self.clock = []

    def select(self, ready, now_s):
        self.clock.append(now_s)
        return min(
            ready,
            key=lambda a: (
                now_s - a.request.arrival_s < 1.0,
                a.request.prompt_tokens,
                a.request.arrival_s,
                a.request.request_id,
            ),
        )


def test_a_keyless_clock_dependent_plugin_runs_in_both_engines():
    requests = tuple(
        Request(
            request_id=rid,
            arrival_s=0.1 * rid,
            prompt_tokens=(40, 5, 30, 5, 20, 5)[rid],
            output_tokens=3,
        )
        for rid in range(6)
    )
    served = OldestPastOneSecond()
    result = serve_source(StubCosts(), ReplayTrace(requests).build(0), served)
    oracle_policy = OldestPastOneSecond()
    oracle = serving_oracle.ServingSimulator(StubCosts(), oracle_policy).run(
        ReplayTrace(requests).build(0)
    )
    assert result.num_requests == 6
    assert result.records == oracle.records
    assert result.makespan_s == oracle.makespan_s
    assert served.clock == oracle_policy.clock
    # Request 0 (the long prompt) waits until the aging clause admits it.
    order = [record.request.request_id for record in result.records]
    assert order.index(0) > order.index(1)


# ----------------------------------------------------------------------
# Whole engines: heap and scan give equal results
# ----------------------------------------------------------------------
#: ``repro serve --duration 60 --arrival-rate 6``.
SERVE = {
    "kind": "serve",
    "platform": {"kind": "platform", "chips": 8},
    "trace": {"kind": "trace", "rate_rps": 6.0, "duration_s": 60.0},
}

#: ``repro fleet --duration 60 --arrival-rate 6 --platform
#: siracusa-mipi:8x2 --faults crash:0@10+20 --retry 30:3:0.5:0.2``.
FAULTED_FLEET = {
    "kind": "fleet",
    "platforms": [{"kind": "fleet_platform", "chips": 8, "replicas": 2}],
    "trace": {"kind": "trace", "rate_rps": 6.0, "duration_s": 60.0},
    "faults": {"kind": "faults", "events": ["crash:0@10+20"]},
    "retry": {
        "kind": "retry",
        "max_retries": 3,
        "backoff_s": 0.5,
        "hedge_after_s": 0.2,
        "timeout_s": 30.0,
    },
}


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.mark.parametrize("document", [SERVE, FAULTED_FLEET], ids=["serve", "fleet"])
@pytest.mark.parametrize("name", SHIPPED)
def test_engines_give_equal_results_with_and_without_the_key(
    session, monkeypatch, document, name
):
    trace = dict(document["trace"])
    if name == "priority":
        trace["priority_levels"] = 2  # as the CLI golden runs it
    spec = spec_from_dict({**document, "trace": trace, "policy": name})
    keyed = execute(session, spec).result
    keyless = Keyless(get_policy(name))
    monkeypatch.setitem(policies._POLICIES._entries, name, keyless)
    scanned = execute(session, spec).result
    assert keyless.selects > 0
    assert scanned == keyed
    if document is FAULTED_FLEET and name == "fifo":
        # Cancelled hedge copies and the crash leave stale heap entries.
        resilience = keyed.resilience
        assert (resilience.crashes, resilience.retries) == (1, 1)
        assert (resilience.hedges, resilience.hedge_wins) == (23, 16)
