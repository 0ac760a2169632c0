"""Pluggable scheduling policies, their registry, and the ready queue.

A *scheduling policy* decides, at every decision point of the serving
simulator, which admitted request the engine advances next.  Policies
register themselves by name with :func:`register_policy` — mirroring the
partitioning-strategy registry of :mod:`repro.api` — so a new queueing idea
becomes available to ``Session.serve`` and the ``repro serve`` CLI by
writing one small class.  A policy states its choice in one of two forms.
The general form is ``select``, which sees the whole ready set and the
clock::

    from repro.serving import register_policy

    @register_policy
    class DeadlinePolicy:
        name = "deadline"
        label = "Earliest deadline first"
        decode_quantum = None

        def select(self, ready, now_s):
            return min(ready, key=lambda a: a.request.arrival_s + 2.0)

When the choice is "the request with the smallest key", a policy also
declares ``order_key``, a function of one request's own state, and the
engine keeps the ready requests in a heap ordered by it instead of
sorting and scanning them on every grant::

    @register_policy
    class DeadlinePolicy:
        name = "deadline"
        label = "Earliest deadline first"
        decode_quantum = None

        def order_key(self, active):
            return (active.request.arrival_s + 2.0,)

        def select(self, ready, now_s):
            return min(ready, key=self.order_key)

A key may change only while its request is being served (the engine
re-files the request after every grant), and ties fall to the lower
``request_id``, exactly as ``min`` over the ``request_id``-ordered ready
list resolves them.  A choice that depends on ``now_s`` or on the other
ready requests has no such key and keeps the ``select`` form.

The engine is non-preemptive *within a service grant*; the grant size is
the policy's choice.  ``decode_quantum = None`` runs a selected request's
remaining phase to completion (classic run-to-completion queueing), while a
small integer time-slices decode between requests, which is how the
continuous-batching-style interleaver keeps new arrivals' prefills from
waiting behind long replies.

Every shipped policy breaks ties by ``request_id``, which (together with
seeded traces) is what makes simulations bit-reproducible.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..errors import ConfigurationError, SimulationError, UnknownPolicyError
from ..registry import Registry, instantiate
from .request import ActiveRequest

__all__ = [
    "ContinuousBatchingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "ReadyQueue",
    "SchedulingPolicy",
    "ShortestPromptPolicy",
    "get_policy",
    "list_policies",
    "register_policy",
    "unregister_policy",
]


@runtime_checkable
class SchedulingPolicy(Protocol):
    """What the registry requires of a scheduling policy.

    A policy may also define ``order_key(active) -> tuple``, the key its
    ``select`` minimises (see the module docstring).  It is optional, so
    it is not a member of this protocol: policies without one still
    register, and the engine then calls ``select`` on every grant.

    Attributes:
        name: Registry key (lowercase snake_case by convention).
        label: Human-readable description shown by the CLI.
        decode_quantum: Decode tokens granted per selection; ``None`` runs
            the selected request's remaining phase to completion.
    """

    name: str
    label: str
    decode_quantum: Optional[int]

    def select(
        self, ready: Sequence[ActiveRequest], now_s: float
    ) -> ActiveRequest:
        """Pick the request the engine serves next.

        Args:
            ready: Admitted, unfinished requests in ``request_id`` order
                (never empty).  Entries must not be mutated.
            now_s: Current virtual time.
        """
        ...


_POLICIES: Registry[SchedulingPolicy] = Registry(
    "scheduling policy", UnknownPolicyError, "policy name"
)


def register_policy(policy):
    """Class decorator (or direct call) registering a scheduling policy.

    Accepts either a policy *class* (instantiated with no arguments) or a
    ready-made instance; the policy is registered under its ``name`` plus
    any names in an optional ``aliases`` tuple.  Returns the argument
    unchanged so it can be used as a decorator.

    Raises:
        ConfigurationError: If the name is missing or taken, the aliases
            are not a tuple of names, the object does not implement
            :class:`SchedulingPolicy`, or its ``order_key`` is set but not
            callable.
    """
    instance = instantiate(policy, "policy", SchedulingPolicy)
    order_key = getattr(instance, "order_key", None)
    if order_key is not None and not callable(order_key):
        raise ConfigurationError(
            f"policy {instance.name!r} has a non-callable order_key {order_key!r}"
        )
    quantum = instance.decode_quantum
    if quantum is not None and quantum < 1:
        raise ConfigurationError(
            f"policy {instance.name!r} has invalid decode_quantum {quantum!r}"
        )
    _POLICIES.add(instance)
    return policy


#: Remove a policy (and its aliases) from the registry.
unregister_policy = _POLICIES.remove

#: Look up a registered policy by name or alias; raises
#: :class:`~repro.errors.UnknownPolicyError`, listing the available
#: names, if no policy is registered under it.
get_policy = _POLICIES.get

#: Sorted canonical names of all registered policies.
list_policies = _POLICIES.names


# ----------------------------------------------------------------------
# The ready queue
# ----------------------------------------------------------------------
class ReadyQueue(dict[int, ActiveRequest]):
    """One engine's admitted, unfinished requests, in its policy's order.

    The queue *is* a dict from request id to :class:`ActiveRequest`, so
    ``len``, ``in`` and ``get`` cost what they cost on a dict.  Add
    requests with :meth:`add`, never by item assignment; remove them
    with any dict operation (``del``, ``pop``, ``clear``).

    For a policy with an ``order_key`` the queue also keeps a heap of
    ``(key, request_id, seq, active)`` entries.  Removing a request
    leaves its entry behind; :meth:`select` pops past every entry whose
    id no longer maps to that exact object, and ``seq`` keeps a stale
    and a live entry of one request id from ever comparing the
    unorderable requests.  :meth:`select` takes the chosen request off
    the heap, so the engine hands it back with :meth:`requeue` after an
    unfinished grant.  For a policy without a key, :meth:`select` calls
    the policy's ``select`` over the ready list in ``request_id`` order.

    Args:
        policy: The scheduling policy that orders the queue.
    """

    __slots__ = ("policy", "_key", "_heap", "_seq")

    def __init__(self, policy: SchedulingPolicy) -> None:
        super().__init__()
        self.policy = policy
        self._key: Optional[Callable[[ActiveRequest], Tuple[Any, ...]]] = (
            getattr(policy, "order_key", None)
        )
        self._heap: List[Tuple[Tuple[Any, ...], int, int, ActiveRequest]] = []
        self._seq = 0

    def add(self, active: ActiveRequest) -> None:
        """Queue a newly admitted request."""
        if not self:
            self._heap.clear()  # an empty queue has no live entries
        self[active.request.request_id] = active
        self.requeue(active)

    def requeue(self, active: ActiveRequest) -> None:
        """File a queued request under its current key (after a grant)."""
        key = self._key
        if key is not None:
            heapq.heappush(
                self._heap,
                (key(active), active.request.request_id, self._seq, active),
            )
            self._seq += 1

    def select(self, now_s: float) -> ActiveRequest:
        """Take the request the policy serves next (the queue is not empty).

        Raises:
            SimulationError: If a keyless policy picks a request that is
                not in the queue.
        """
        if self._key is not None:
            heap = self._heap
            get = self.get
            while True:
                entry = heapq.heappop(heap)
                if get(entry[1]) is entry[3]:
                    return entry[3]
        chosen = self.policy.select([self[rid] for rid in sorted(self)], now_s)
        if self.get(chosen.request.request_id) is not chosen:
            raise SimulationError(
                f"policy {self.policy.name!r} selected a request that is "
                "not in the ready queue"
            )
        return chosen


# ----------------------------------------------------------------------
# Shipped policies
# ----------------------------------------------------------------------
@register_policy
class FifoPolicy:
    """First-come first-served, run to completion.

    The earliest-arrived admitted request always wins, so once a request
    starts it finishes before any later arrival is touched — the baseline
    every other policy is compared against.
    """

    name = "fifo"
    aliases = ("fcfs",)
    label = "First-come first-served, run-to-completion"
    decode_quantum: Optional[int] = None

    def order_key(self, active: ActiveRequest) -> Tuple[float, int]:
        request = active.request
        return (request.arrival_s, request.request_id)

    def select(
        self, ready: Sequence[ActiveRequest], now_s: float
    ) -> ActiveRequest:
        return min(ready, key=self.order_key)


@register_policy
class ShortestPromptPolicy:
    """Shortest prompt first (a shortest-job-first proxy).

    Prefill cost grows with prompt length, so favouring short prompts at
    every decision point cuts the queueing delay of the many short requests
    at the expense of the few long ones — the textbook SJF trade, which
    lowers p95 TTFT under overload but can starve long prompts.
    """

    name = "shortest_prompt"
    aliases = ("spf", "sjf")
    label = "Shortest prompt first (SJF on prefill cost)"
    decode_quantum: Optional[int] = None

    def order_key(self, active: ActiveRequest) -> Tuple[int, float, int]:
        request = active.request
        return (request.prompt_tokens, request.arrival_s, request.request_id)

    def select(
        self, ready: Sequence[ActiveRequest], now_s: float
    ) -> ActiveRequest:
        return min(ready, key=self.order_key)


@register_policy
class PriorityPolicy:
    """Strict priority classes, FIFO within a class.

    Larger :attr:`~repro.serving.request.Request.priority` values win;
    requests of equal priority are served in arrival order.
    """

    name = "priority"
    label = "Strict priority (larger wins), FIFO within a class"
    decode_quantum: Optional[int] = None

    def order_key(self, active: ActiveRequest) -> Tuple[int, float, int]:
        request = active.request
        return (-request.priority, request.arrival_s, request.request_id)

    def select(
        self, ready: Sequence[ActiveRequest], now_s: float
    ) -> ActiveRequest:
        return min(ready, key=self.order_key)


@register_policy
class ContinuousBatchingPolicy:
    """Continuous-batching-style interleaver.

    Mimics the scheduling behaviour of continuous batching on a serial
    engine: pending prefills are admitted immediately (earliest arrival
    first), and decode is time-sliced one token at a time round-robin
    across the started requests (fewest tokens emitted first).  New
    arrivals therefore reach their first token quickly instead of waiting
    behind whole replies, at the cost of longer per-request decode spans.
    """

    name = "continuous"
    aliases = ("interleave",)
    label = "Continuous-batching interleaver (prefill first, token-sliced decode)"
    decode_quantum: Optional[int] = 1

    def order_key(self, active: ActiveRequest) -> Tuple[Any, ...]:
        # Pending prefills (rank 0) before decodes (rank 1); the key
        # changes only when a grant prefills or decodes this request.
        request = active.request
        if not active.prefill_done:
            return (0, request.arrival_s, request.request_id)
        return (1, active.tokens_emitted, request.arrival_s, request.request_id)

    def select(
        self, ready: Sequence[ActiveRequest], now_s: float
    ) -> ActiveRequest:
        return min(ready, key=self.order_key)
