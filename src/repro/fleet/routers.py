"""Pluggable fleet routing policies and their registry.

A *routing policy* decides, at every arrival the admission controller
lets through, which platform replica of the fleet the request is
dispatched to.  Routers register themselves by name with
:func:`register_router` — mirroring the scheduling-policy registry of
:mod:`repro.serving.policies` — so a new placement idea becomes available
to ``Session.serve_fleet`` and the ``repro fleet`` CLI by writing one
small class::

    from repro.fleet import register_router

    @register_router
    class CheapestRouter:
        name = "cheapest"
        label = "Fewest chips first"

        def route(self, request, replicas, now_s):
            return min(replicas, key=lambda r: (r.chips, r.replica_id))

Unlike scheduling policies, routers may be *stateful* (round-robin keeps
a cursor, session affinity keeps a sticky map), so the registry stores
classes and :func:`get_router` returns a **fresh instance per call**, and
every fleet run routes through its own router (a new one for a name, a
copy of an instance); two fleet runs therefore never share router state,
which is part of what keeps same-seed runs byte-identical.

The fleet engine only ever offers replicas that are in service — a
draining, retired, or crashed replica is filtered out before ``route``
is called, which makes every router *health-aware by construction*
(under fault injection a crashed replica simply vanishes from the
candidate list until it recovers) — and every shipped router breaks
ties by ``replica_id``.
"""

from __future__ import annotations

from typing import Dict, Protocol, Sequence, runtime_checkable

from ..errors import ConfigurationError, UnknownRouterError
from ..registry import Registry, instantiate
from ..serving.request import Request

__all__ = [
    "LeastLoadedRouter",
    "PrefillDecodeRouter",
    "ReplicaState",
    "RoundRobinRouter",
    "RoutingPolicy",
    "SessionAffinityRouter",
    "get_router",
    "list_routers",
    "register_router",
    "router_label",
    "unregister_router",
]


@runtime_checkable
class ReplicaState(Protocol):
    """The read-only view of one platform replica a router ranks.

    Attributes:
        replica_id: Unique id, also the deterministic tie-breaker.
        preset: Registered platform-preset name the replica runs.
        chips: Chip count of the replica's platform.
        role: ``"any"``, ``"prefill"``, or ``"decode"`` — the pool tag the
            disaggregated router partitions on.
        queue_depth: Requests currently admitted to this replica
            (queued plus in service).
        draining: Whether the replica is finishing its queue before
            retiring.  The engine never offers draining replicas to a
            router; the flag exists so tests can assert exactly that.
        crashed: Whether the replica is currently failed under fault
            injection.  Like ``draining``, the engine removes crashed
            replicas from the dispatch set before ``route`` is called,
            so a router never has to check it — it exists for tests and
            for routers that want to expose health in their own state.
    """

    replica_id: int
    preset: str
    chips: int
    role: str
    queue_depth: int
    draining: bool
    crashed: bool


@runtime_checkable
class RoutingPolicy(Protocol):
    """What the registry requires of a fleet routing policy.

    Attributes:
        name: Registry key (lowercase snake_case by convention).
        label: Human-readable description shown by ``repro routers``.
    """

    name: str
    label: str

    def route(
        self,
        request: Request,
        replicas: Sequence[ReplicaState],
        now_s: float,
    ) -> ReplicaState:
        """Pick the replica that serves ``request``.

        Args:
            request: The admitted request being dispatched.
            replicas: In-service replicas in ``replica_id`` order (never
                empty, never draining).  Entries must not be mutated.
            now_s: Current virtual time.
        """
        ...


_ROUTERS: Registry[type] = Registry("router", UnknownRouterError)


def register_router(router):
    """Class decorator (or direct call) registering a routing policy.

    Accepts a router *class* instantiable with no arguments; the class is
    registered under its ``name`` plus any names in an optional
    ``aliases`` tuple.  Because routers may carry per-run state, the
    registry stores the class and :func:`get_router` instantiates it
    anew on every lookup.  Returns the argument unchanged so it can be
    used as a decorator.

    Raises:
        ConfigurationError: If the name is missing or taken, the aliases
            are not a tuple of names, or an instance does not implement
            :class:`RoutingPolicy`.
    """
    if not isinstance(router, type):
        raise ConfigurationError(
            "register_router takes a router class (routers are stateful, "
            "so the registry instantiates them per run)"
        )
    _ROUTERS.add(instantiate(router, "router", RoutingPolicy), router)
    return router


#: Remove a router (and its aliases) from the registry.
unregister_router = _ROUTERS.remove


def get_router(name: str) -> RoutingPolicy:
    """Instantiate the registered router named ``name`` (or an alias).

    Every call returns a fresh instance, so routers with internal state
    (round-robin cursors, affinity maps) never leak it across runs.

    Raises:
        UnknownRouterError: If no router is registered under ``name``;
            the message lists the available names.
    """
    return _ROUTERS.get(name)()


def router_label(name: str) -> str:
    """The human-readable label of a registered router."""
    return get_router(name).label


#: Sorted canonical names of all registered routers.
list_routers = _ROUTERS.names


def _least_loaded(replicas: Sequence[ReplicaState]) -> ReplicaState:
    """``min(replicas, key=(queue_depth, replica_id))``, in one pass."""
    others = iter(replicas)  # never empty
    chosen = next(others)
    depth, rid = chosen.queue_depth, chosen.replica_id
    for replica in others:
        other = replica.queue_depth
        if other < depth or (other == depth and replica.replica_id < rid):
            chosen, depth, rid = replica, other, replica.replica_id
    return chosen


# ----------------------------------------------------------------------
# Shipped routers
# ----------------------------------------------------------------------
@register_router
class RoundRobinRouter:
    """Cycle through the in-service replicas in id order.

    The cursor advances once per dispatch, so heterogeneous replicas get
    equal request *counts* regardless of their capacity — the baseline
    every load-aware router is compared against.
    """

    name = "round_robin"
    aliases = ("rr",)
    label = "Cycle through in-service replicas in id order"

    def __init__(self) -> None:
        self._cursor = 0

    def route(
        self,
        request: Request,
        replicas: Sequence[ReplicaState],
        now_s: float,
    ) -> ReplicaState:
        chosen = replicas[self._cursor % len(replicas)]
        self._cursor += 1
        return chosen


@register_router
class LeastLoadedRouter:
    """Send the request to the replica with the shallowest queue.

    Queue depth counts queued plus in-service requests, so a fast replica
    that drains quickly naturally attracts more traffic — join-the-
    shortest-queue, the classic low-latency dispatch rule.
    """

    name = "least_loaded"
    aliases = ("jsq",)
    label = "Join the shortest queue (queued + in service)"

    def route(
        self,
        request: Request,
        replicas: Sequence[ReplicaState],
        now_s: float,
    ) -> ReplicaState:
        return _least_loaded(replicas)


@register_router
class SessionAffinityRouter:
    """Pin each client to one replica (least-loaded on first contact).

    Requests carrying a ``client_id`` stick to the replica their client
    first landed on — the KV-cache/session-locality policy of real
    serving fleets.  If the pinned replica has left service, or the
    request has no client, the router falls back to least-loaded (and
    re-pins the client to the new choice).
    """

    name = "session_affinity"
    aliases = ("sticky",)
    label = "Pin clients to their first replica, least-loaded otherwise"

    def __init__(self) -> None:
        self._pins: Dict[int, int] = {}

    def route(
        self,
        request: Request,
        replicas: Sequence[ReplicaState],
        now_s: float,
    ) -> ReplicaState:
        client = request.client_id
        if client is None:
            return _least_loaded(replicas)
        pinned = self._pins.get(client)
        if pinned is not None:
            for replica in replicas:
                if replica.replica_id == pinned:
                    return replica
        chosen = _least_loaded(replicas)
        self._pins[client] = chosen.replica_id
        return chosen


@register_router
class PrefillDecodeRouter:
    """Prefill/decode-disaggregated dispatch by request shape.

    Replicas tagged ``role="prefill"`` form the prompt-heavy pool and
    ``role="decode"`` the reply-heavy pool; when no replica is tagged,
    the lower-id half of the fleet plays prefill and the rest decode.
    A request whose prompt is at least as long as its reply is
    prefill-dominated and goes to the prefill pool, and vice versa —
    request-granular disaggregation, the closest analogue of
    prefill/decode splitting on an engine that never migrates a request
    mid-flight.  Within a pool (or the whole fleet if the wanted pool is
    empty) the least-loaded replica wins.
    """

    name = "prefill_decode"
    aliases = ("disaggregated",)
    label = "Disaggregate prompt-heavy vs reply-heavy requests into role pools"

    def route(
        self,
        request: Request,
        replicas: Sequence[ReplicaState],
        now_s: float,
    ) -> ReplicaState:
        prefill_pool = [r for r in replicas if r.role == "prefill"]
        decode_pool = [r for r in replicas if r.role == "decode"]
        if not prefill_pool and not decode_pool:
            half = (len(replicas) + 1) // 2
            prefill_pool = list(replicas[:half])
            decode_pool = list(replicas[half:])
        wants_prefill = request.prompt_tokens >= request.output_tokens
        pool = prefill_pool if wants_prefill else decode_pool
        return _least_loaded(pool or replicas)
