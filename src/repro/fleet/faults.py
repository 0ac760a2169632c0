"""Seeded, deterministic fault injection for the fleet simulator.

A :class:`FaultModel` describes *what goes wrong* during a fleet run:
replica crash/recovery windows, transient degradation (a straggler
replica serving every grant ``factor`` times slower over an interval),
and fleet-wide link/bandwidth brownouts.  Faults are first-class events
on the fleet event heap — scheduled up front, in virtual time, with the
same deterministic tie-breaking as every other event — so two same-seed
fault-injected runs are byte-identical, and a run with no fault model is
bit-identical to a run of the fault-free engine.

A :class:`RetryPolicy` describes *what the serving stack does about it*:
requests in flight on a crashed replica are failed over through the
router with bounded retries and deterministic exponential backoff, a
per-class timeout abandons requests that never reached service by their
deadline, and an optional hedge dispatches a second copy of a
slow-to-schedule request to another replica (first copy to enter service
wins; the other is cancelled).

:class:`Resilience` carries both out inside one fleet run.  The run
builds it only when a fault model or a retry policy is set, so a
fault-free run never constructs or calls it.

The fault schedule has two layers that combine freely:

* an explicit event list (:meth:`FaultEvent.parse` grammar, also used by
  ``repro fleet --faults`` and the ``faults`` spec), and
* a seeded random crash layer — per-replica exponential inter-failure
  and repair times, materialised up front from a string-seeded
  :class:`random.Random` so the draw is stable across processes and
  platforms.

See ``docs/RESILIENCE.md`` for the full grammar and semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..serving.request import ActiveRequest, Request, RequestPhase
from ..spec.base import SpecBase, register, require_finite, spec_error
from .metrics import ResilienceStats, SLOCounter

if TYPE_CHECKING:
    from .admission import SLOClass
    from .simulator import _FleetRun, _Replica

__all__ = ["FaultEvent", "FaultModel", "RetryPolicy"]

#: Valid fault-event kinds.
FAULT_KINDS = ("crash", "slowdown", "brownout")

#: The resilience component's event kinds on the fleet heap.  At equal
#: timestamps they sort after grant completions (0) and before scaling
#: ticks (5); :mod:`repro.fleet.simulator` holds the whole order.
KIND_FAULT = 1
KIND_TIMEOUT = 2
KIND_RETRY = 3
KIND_HEDGE = 4

#: Most crash windows the random layer may expect per replica,
#: ``horizon_s / (crash_mtbf_s + crash_mttr_s)``; drawing that many
#: takes about 0.6 s of :meth:`FaultModel.schedule` per replica.
MAX_RANDOM_CRASHES = 100_000

_GRAMMAR_HINT = (
    "expected crash:REPLICA@START[+DURATION], "
    "slow:REPLICA@START+DURATIONxFACTOR, "
    "brownout@START+DURATIONxFACTOR, or random:MTBF[:MTTR[:HORIZON]]"
)


def _fault_error(text: str, why: str) -> ConfigurationError:
    return ConfigurationError(
        f"cannot parse fault {text!r} ({why}); {_GRAMMAR_HINT}"
    )


@register
@dataclass(frozen=True)
class FaultEvent(SpecBase):
    """One scheduled fault, as the user states it (spec kind ``fault_event``).

    Accepts the :meth:`parse` shorthand as a bare string in documents.

    Attributes:
        fault: ``"crash"`` (replica leaves service, in-flight requests
            fail over), ``"slowdown"`` (replica serves ``factor`` times
            slower), or ``"brownout"`` (every replica serves ``factor``
            times slower — a fleet-wide link/bandwidth event).
        replica: Target replica id (static fleet only); ``None`` for
            brownouts, which are fleet-wide by definition.
        start_s: Virtual time the fault begins.
        duration_s: How long it lasts; ``None`` makes a crash permanent
            (slowdowns and brownouts always need a duration).
        factor: Service-time multiplier of a slowdown or brownout
            (strictly greater than 1; crashes ignore it).
    """

    kind = "fault_event"

    fault: str = "crash"
    replica: Optional[int] = None
    start_s: float = 0.0
    duration_s: Optional[float] = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.fault!r}; choose from "
                + ", ".join(FAULT_KINDS)
            )
        require_finite("fault ", self, ("start_s", "duration_s", "factor"))
        if self.start_s < 0:
            raise ConfigurationError(
                f"fault start_s must be non-negative, got {self.start_s}"
            )
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigurationError(
                f"fault duration_s must be positive, got {self.duration_s}"
            )
        if self.fault == "brownout":
            if self.replica is not None:
                raise ConfigurationError(
                    "a brownout is fleet-wide; it cannot target a replica"
                )
        else:
            if self.replica is None or self.replica < 0:
                raise ConfigurationError(
                    f"a {self.fault} fault needs a non-negative replica id"
                )
        if self.fault in ("slowdown", "brownout"):
            if self.duration_s is None:
                raise ConfigurationError(
                    f"a {self.fault} fault needs a duration"
                )
            if self.factor <= 1.0:
                raise ConfigurationError(
                    f"a {self.fault} factor must be greater than 1, "
                    f"got {self.factor}"
                )

    @property
    def end_s(self) -> Optional[float]:
        """When the fault clears (``None``: a permanent crash)."""
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    @classmethod
    def parse(cls, text: str) -> "FaultEvent":
        """Parse the shorthand grammar shared by the CLI and specs.

        * ``crash:REPLICA@START`` — permanent crash;
        * ``crash:REPLICA@START+DURATION`` — crash-and-recover window;
        * ``slow:REPLICA@START+DURATIONxFACTOR`` — straggler replica;
        * ``brownout@START+DURATIONxFACTOR`` — fleet-wide slowdown.
        """
        original = text.strip()
        head, sep, when = original.partition("@")
        if not sep or not when:
            raise _fault_error(original, "missing @START")
        kind_text, _, replica_text = head.partition(":")
        fault = {"crash": "crash", "slow": "slowdown",
                 "slowdown": "slowdown", "brownout": "brownout"}.get(kind_text)
        if fault is None:
            raise _fault_error(original, f"unknown kind {kind_text!r}")
        replica: Optional[int] = None
        if fault == "brownout":
            if replica_text:
                raise _fault_error(original, "brownouts are fleet-wide")
        else:
            try:
                replica = int(replica_text)
            except ValueError:
                raise _fault_error(original, "bad replica id") from None
        factor = 1.0
        duration: Optional[float] = None
        span, x_sep, factor_text = when.partition("x")
        start_text, plus_sep, duration_text = span.partition("+")
        try:
            start = float(start_text)
            if plus_sep:
                duration = float(duration_text)
            if x_sep:
                factor = float(factor_text)
        except ValueError:
            raise _fault_error(original, "bad number") from None
        try:
            return cls(fault=fault, replica=replica, start_s=start,
                       duration_s=duration, factor=factor)
        except ConfigurationError as error:
            raise _fault_error(original, str(error)) from None

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "FaultEvent":
        if isinstance(data, str):
            try:
                return cls.parse(data)
            except ConfigurationError as error:
                raise spec_error(path, str(error)) from None
        return super().from_dict(data, path)


@register
@dataclass(frozen=True)
class FaultModel(SpecBase):
    """The full fault schedule of one fleet run, plus degradation policy.

    Spec kind ``faults``.

    Attributes:
        events: Explicit fault events (any kind, any overlap).
        crash_mtbf_s: Mean time between failures of the seeded random
            crash layer, per static replica; ``None`` disables it.
        crash_mttr_s: Mean time to recover of the random crash layer.
        horizon_s: Virtual-time horizon the random layer is drawn over
            (required when ``crash_mtbf_s`` is set).
        seed: Seed of the random crash layer.
        shed_below: Healthy-capacity fraction below which admission
            starts shedding low-priority classes; ``None`` disables
            graceful degradation (arrivals during a total outage are
            always shed — there is nothing to dispatch to).
        shed_keep: How many of the highest-priority SLO classes keep
            being admitted while the fleet is degraded.
    """

    kind = "faults"

    events: Tuple[FaultEvent, ...] = ()
    crash_mtbf_s: Optional[float] = None
    crash_mttr_s: float = 30.0
    horizon_s: Optional[float] = None
    seed: int = 0
    shed_below: Optional[float] = None
    shed_keep: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"FaultModel events must be FaultEvent, got {event!r}"
                )
        require_finite("", self, ("crash_mtbf_s", "crash_mttr_s", "horizon_s"))
        if self.crash_mtbf_s is not None:
            if self.crash_mtbf_s <= 0:
                raise ConfigurationError(
                    f"crash_mtbf_s must be positive, got {self.crash_mtbf_s}"
                )
            if self.horizon_s is None or self.horizon_s <= 0:
                raise ConfigurationError(
                    "a random crash layer needs a positive horizon_s to "
                    "draw failures over"
                )
        if self.crash_mttr_s <= 0:
            raise ConfigurationError(
                f"crash_mttr_s must be positive, got {self.crash_mttr_s}"
            )
        if self.crash_mtbf_s is not None:
            expected = self.horizon_s / (self.crash_mtbf_s + self.crash_mttr_s)
            if expected > MAX_RANDOM_CRASHES:
                raise ConfigurationError(
                    f"a random crash layer expects {expected:.3g} crashes per "
                    "replica (horizon_s / (crash_mtbf_s + crash_mttr_s)), "
                    f"above the bound of {MAX_RANDOM_CRASHES}; raise "
                    "crash_mtbf_s or crash_mttr_s, or shorten horizon_s"
                )
        if self.shed_below is not None and not 0.0 < self.shed_below <= 1.0:
            raise ConfigurationError(
                f"shed_below must be in (0, 1], got {self.shed_below}"
            )
        if self.shed_keep < 1:
            raise ConfigurationError(
                f"shed_keep must be at least 1, got {self.shed_keep}"
            )

    @classmethod
    def parse(cls, tokens: Sequence[str], **overrides: object) -> "FaultModel":
        """Build a model from CLI ``--faults`` shorthand tokens.

        Each token is either a :meth:`FaultEvent.parse` event or
        ``random:MTBF[:MTTR[:HORIZON]]`` configuring the seeded random
        crash layer; keyword overrides (``seed``, ``shed_below``, …)
        pass through to the constructor.
        """
        events = []
        fields: dict = dict(overrides)
        for token in tokens:
            text = token.strip()
            if text.startswith("random:"):
                parts = text[len("random:"):].split(":")
                if not 1 <= len(parts) <= 3 or not all(parts):
                    raise _fault_error(text, "bad random layer")
                try:
                    fields["crash_mtbf_s"] = float(parts[0])
                    if len(parts) > 1:
                        fields["crash_mttr_s"] = float(parts[1])
                    if len(parts) > 2:
                        fields["horizon_s"] = float(parts[2])
                except ValueError:
                    raise _fault_error(text, "bad number") from None
            else:
                events.append(FaultEvent.parse(text))
        return cls(events=tuple(events), **fields)  # type: ignore[arg-type]

    def schedule(self, replica_ids: Sequence[int]) -> Tuple[FaultEvent, ...]:
        """All concrete fault events of a run, deterministically ordered.

        Materialises the random crash layer (if any) for every replica in
        ``replica_ids`` using a string-seeded PRNG — stable across
        processes regardless of hash randomisation — then merges it with
        the explicit events and sorts by ``(start, fault, replica)``.
        """
        events = list(self.events)
        if self.crash_mtbf_s is not None:
            assert self.horizon_s is not None  # enforced in __post_init__
            for replica_id in replica_ids:
                rng = random.Random(
                    f"repro.fleet.faults:{self.seed}:{replica_id}"
                )
                now = 0.0
                while True:
                    now += rng.expovariate(1.0 / self.crash_mtbf_s)
                    if now >= self.horizon_s:
                        break
                    repair = rng.expovariate(1.0 / self.crash_mttr_s)
                    events.append(
                        FaultEvent(
                            replica=replica_id,
                            start_s=now,
                            duration_s=repair,
                        )
                    )
                    now += repair
        events.sort(
            key=lambda e: (
                e.start_s,
                FAULT_KINDS.index(e.fault),
                -1 if e.replica is None else e.replica,
                e.duration_s if e.duration_s is not None else -1.0,
            )
        )
        return tuple(events)

    def validate_replicas(self, replica_count: int) -> None:
        """Reject events targeting replicas outside the static fleet."""
        for event in self.events:
            if event.replica is not None and event.replica >= replica_count:
                raise ConfigurationError(
                    f"fault targets replica {event.replica}, but the fleet "
                    f"has {replica_count} static replica(s); faults only "
                    "apply to statically configured replicas"
                )


@register
@dataclass(frozen=True)
class RetryPolicy(SpecBase):
    """How the fleet fails over and abandons requests under faults.

    Spec kind ``retry``; accepts the :meth:`parse` shorthand as a bare
    string in documents.

    Attributes:
        max_retries: Bounded re-dispatch budget after a crash (0 fails
            requests on their first crash).
        backoff_s: Virtual-time delay before the first re-dispatch.
        backoff_multiplier: Exponential growth of successive backoffs.
        timeout_s: Deadline, from arrival, by which a request must have
            *entered service*; expired requests are abandoned (counted
            as timed out).  Per-class ``timeout_s`` on an
            :class:`~repro.fleet.admission.SLOClass` overrides this.
        hedge_after_s: Queue time after which a second copy of a
            not-yet-scheduled request is dispatched to another replica;
            the first copy to enter service wins and the other is
            cancelled.  ``None`` disables hedging.
    """

    kind = "retry"

    max_retries: int = 2
    backoff_s: float = 0.0
    backoff_multiplier: float = 2.0
    timeout_s: Optional[float] = None
    hedge_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        require_finite(
            "", self, ("backoff_s", "backoff_multiplier", "timeout_s", "hedge_after_s")
        )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be non-negative, got {self.backoff_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                "backoff_multiplier must be at least 1, "
                f"got {self.backoff_multiplier}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ConfigurationError(
                f"hedge_after_s must be positive, got {self.hedge_after_s}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before re-dispatch number ``attempt`` (1-based)."""
        if attempt <= 1:
            return self.backoff_s
        return self.backoff_s * self.backoff_multiplier ** (attempt - 1)

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        """Parse the CLI shorthand ``[TIMEOUT][:RETRIES[:BACKOFF[:HEDGE]]]``.

        Empty positions keep their defaults: ``30`` is a 30 s timeout,
        ``:3`` is three retries with no timeout, ``30:3:0.5:2`` adds a
        0.5 s backoff and a 2 s hedge.
        """
        original = text.strip()
        parts = original.split(":")
        if len(parts) > 4:
            raise ConfigurationError(
                f"cannot parse retry policy {original!r} (too many fields); "
                "expected [TIMEOUT][:RETRIES[:BACKOFF[:HEDGE]]]"
            )
        fields: dict = {}
        try:
            if parts[0]:
                fields["timeout_s"] = float(parts[0])
            if len(parts) > 1 and parts[1]:
                fields["max_retries"] = int(parts[1])
            if len(parts) > 2 and parts[2]:
                fields["backoff_s"] = float(parts[2])
            if len(parts) > 3 and parts[3]:
                fields["hedge_after_s"] = float(parts[3])
        except ValueError:
            raise ConfigurationError(
                f"cannot parse retry policy {original!r} (bad number); "
                "expected [TIMEOUT][:RETRIES[:BACKOFF[:HEDGE]]]"
            ) from None
        try:
            return cls(**fields)  # type: ignore[arg-type]
        except ConfigurationError as error:
            raise ConfigurationError(
                f"cannot parse retry policy {original!r} ({error})"
            ) from None

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "RetryPolicy":
        if isinstance(data, str):
            try:
                return cls.parse(data)
            except ConfigurationError as error:
                raise spec_error(path, str(error)) from None
        return super().from_dict(data, path)


class Resilience:
    """Faults and failover inside one fleet run.

    A run builds it only when a :class:`FaultModel` or a
    :class:`RetryPolicy` is set.  It schedules the fault events and
    handles the four resilience event kinds; the run calls its hooks at
    admission, at each grant start and completion, and when the dispatch
    set empties or refills.  Only static replicas fault, and the
    autoscaler never drains them.
    """

    __slots__ = (
        "run", "retry", "kept_classes", "shed_floor", "crashes", "recoveries",
        "retries", "failed", "timed_out", "shed", "hedges", "hedge_wins",
        "first_attempt_completed", "wasted_busy_s", "unavailable_s",
        "outage_start", "outage_windows", "last_arrival_s", "faults_active",
        "in_backoff", "brownout", "slow_factor", "crashed_by", "down_since",
        "downtime_s", "in_service", "healthy", "degraded", "attempts_of",
        "deadline_of", "copies",
    )

    def __init__(
        self, run: "_FleetRun", faults: Optional[FaultModel], retry: Optional[RetryPolicy]
    ) -> None:
        self.run = run
        self.retry = retry
        static_count = len(run.all_replicas)
        self.kept_classes: Optional[frozenset] = None
        self.shed_floor = 0.0
        if faults is not None and faults.shed_below is not None:
            classes = run.admission.classes
            ranked = sorted(range(len(classes)), key=lambda i: (-classes[i].priority, i))
            self.kept_classes = frozenset(ranked[: faults.shed_keep])
            self.shed_floor = faults.shed_below * static_count
        self.crashes = self.recoveries = self.retries = 0
        self.failed = self.timed_out = self.shed = 0
        self.hedges = self.hedge_wins = self.first_attempt_completed = 0
        self.wasted_busy_s = self.unavailable_s = 0.0
        self.outage_start: Optional[float] = None
        self.outage_windows = 0
        self.last_arrival_s = 0.0
        self.faults_active = 0  # crashes, slowdowns and brownouts under way
        self.in_backoff = 0
        self.brownout = 1.0
        self.slow_factor: Dict[int, float] = {}  # replica id -> slowdown
        self.crashed_by: Dict[int, FaultEvent] = {}
        self.down_since: Dict[int, float] = {}
        self.downtime_s = [0.0] * static_count
        # Replica id -> (start, duration) of its latest grant.
        self.in_service: Dict[int, Tuple[float, float]] = {}
        # TTFT attainment of completions with no fault active, and with one.
        self.healthy = SLOCounter(run.slo.targets)
        self.degraded = SLOCounter(run.slo.targets)
        self.attempts_of: Dict[int, int] = {}  # request_id -> crash failovers
        self.deadline_of: Dict[int, float] = {}  # request_id -> service deadline
        self.copies: Dict[int, List["_Replica"]] = {}  # request_id -> live copies
        if faults is not None:
            for event in faults.schedule(tuple(range(static_count))):
                crash = event.fault == "crash"
                run.push(event.start_s, KIND_FAULT, (self.crash if crash else self.slow, event))
                if event.end_s is not None:  # only a crash may be permanent
                    end = self.recover if crash else self.unslow
                    run.push(event.end_s, KIND_FAULT, (end, event))

    def handlers(self) -> Dict[int, Any]:
        """The handler of each resilience event kind."""
        return {
            KIND_FAULT: self.on_fault,
            KIND_TIMEOUT: self.on_timeout,
            KIND_RETRY: self.on_retry,
            KIND_HEDGE: self.on_hedge,
        }

    def on_fault(self, now: float, payload: Tuple[Any, FaultEvent]) -> None:
        transition, event = payload
        transition(now, event)

    def on_timeout(self, now: float, rid: int) -> None:
        if rid not in self.run.class_of:
            return  # already finished or failed
        race = self.copies.get(rid)
        if race and any(
            active is not None and active.first_scheduled_s is not None
            for active in (replica.active.get(rid) for replica in race)
        ):
            return  # in service by its deadline
        # Abandon every queued copy (an empty race means the request was
        # waiting out a retry backoff).
        if race:
            for replica in race:
                active = replica.active.pop(rid, None)
                if active is not None:
                    active.phase = RequestPhase.TIMED_OUT
                self.run.retire_if_idle(replica, now)
        elif race == []:
            self.in_backoff -= 1
        self.timed_out += 1
        self.forget(rid)

    def on_retry(self, now: float, payload: Tuple[int, Request]) -> None:
        rid, request = payload
        run = self.run
        if rid in run.class_of and self.copies.get(rid) == []:
            self.in_backoff -= 1
            if run.serving:
                self.retries += 1
                run.place(run.dispatch(request, run.serving, now), request, now)
            else:
                # Nothing to dispatch to: burn another attempt (bounded),
                # or fail the request.
                self.fail_over(rid, request, now)

    def on_hedge(self, now: float, payload: Tuple[int, Request]) -> None:
        rid, request = payload
        run = self.run
        race = self.copies.get(rid)
        if rid not in run.class_of or race is None or len(race) != 1:
            return
        active = race[0].active.get(rid)
        if active is None or active.first_scheduled_s is not None:
            return
        pool = [replica for replica in run.serving if replica is not race[0]]
        if pool:
            self.hedges += 1
            run.place(run.dispatch(request, pool, now), request, now, hedged=True)

    def crash(self, now: float, event: FaultEvent) -> None:
        run = self.run
        replica = run.all_replicas[event.replica]  # type: ignore[index]
        if replica.crashed:
            return
        index = replica.replica_id
        self.crashes += 1
        self.faults_active += 1
        replica.crashed = True
        self.crashed_by[index] = event
        self.down_since[index] = now
        if replica in run.serving:
            run.serving.remove(replica)
        if not run.serving:
            self.outage_begins(now)
        if replica in run.deferred:
            # Its pick was waiting on this instant's arrivals: nothing in
            # flight to abort.
            run.deferred.remove(replica)
            replica.busy = False
        elif replica.busy:
            # Abort the in-flight grant: roll back its unserved remainder,
            # charge the served part as wasted work.
            start, duration = self.in_service[index]
            end = start + duration
            replica.busy_s -= end - now
            run.add_busy(now, end, -1.0)
            self.wasted_busy_s += now - start
            replica.busy = False
        victims = [(rid, replica.active[rid]) for rid in sorted(replica.active)]
        replica.active.clear()
        for rid, active in victims:
            active.phase = RequestPhase.FAILED  # its grant end is skipped
            race = self.copies.get(rid)
            if race is not None and len(race) > 1:
                race.remove(replica)  # a hedged sibling survives elsewhere
            else:
                self.fail_over(rid, active.request, now)

    def recover(self, now: float, event: FaultEvent) -> None:
        replica = self.run.all_replicas[event.replica]  # type: ignore[index]
        index = replica.replica_id
        if self.crashed_by.get(index) is not event:
            return  # crashed again since, or never went down
        self.recoveries += 1
        self.faults_active -= 1
        replica.crashed = False
        del self.crashed_by[index]
        self.downtime_s[index] += now - self.down_since.pop(index)
        self.run.restore(replica, now)

    def slow(self, now: float, event: FaultEvent) -> None:
        """A slowdown (one replica) or a brownout (every replica) begins."""
        if event.replica is None:
            self.brownout *= event.factor
        else:
            factor = self.slow_factor.get(event.replica, 1.0)
            self.slow_factor[event.replica] = factor * event.factor
        self.faults_active += 1

    def unslow(self, now: float, event: FaultEvent) -> None:
        if event.replica is None:
            self.brownout /= event.factor
        else:
            self.slow_factor[event.replica] /= event.factor
        self.faults_active -= 1

    def sheds(self, request: Request) -> bool:
        """Turn an arrival away in total outage or below the shed floor.

        Every arrival passes here first, so this also notes the latest
        arrival time, up to which :meth:`stats` counts open outages.
        """
        self.last_arrival_s = request.arrival_s
        run = self.run
        serving = run.serving
        if serving and (
            self.kept_classes is None
            or len(serving) >= self.shed_floor
            or run.admission.class_index(request) in self.kept_classes
        ):
            return False
        # Total outage (a deterministic stand-in for a refused
        # connection), or graceful degradation: healthy capacity is below
        # the floor, so every class but the protected ones is shed.
        self.shed += 1
        run.admission.shed(request)
        return True

    def admit(self, request: Request, slo_class: "SLOClass") -> None:
        """Start an admitted request's service deadline, if it has one."""
        timeout = slo_class.timeout_s
        if timeout is None and self.retry is not None:
            timeout = self.retry.timeout_s
        if timeout is not None:
            deadline = request.arrival_s + timeout
            self.deadline_of[request.request_id] = deadline
            self.run.push(deadline, KIND_TIMEOUT, request.request_id)

    def copy(
        self, replica: "_Replica", request: Request, now: float, hedged: bool
    ) -> ActiveRequest:
        """Record a copy of ``request`` on ``replica`` and arm its hedge."""
        rid = request.request_id
        if hedged:
            self.copies[rid].append(replica)
        else:
            self.copies[rid] = [replica]
        if self.retry is not None and self.retry.hedge_after_s is not None:
            self.run.push(now + self.retry.hedge_after_s, KIND_HEDGE, (rid, request))
        return ActiveRequest(
            request=request,
            attempt=self.attempts_of.get(rid, 0),
            deadline_s=self.deadline_of.get(rid),
            hedged=hedged,
        )

    def grant_started(
        self, replica: "_Replica", chosen: ActiveRequest, duration: float, now: float
    ) -> float:
        """Settle a hedge race and stretch the grant; returns its duration.

        The first copy to enter service wins: its still-queued siblings
        are cancelled before any work is charged.
        """
        rid = chosen.request.request_id
        race = self.copies.get(rid)
        if race is not None and len(race) > 1:
            for other in race:
                if other is not replica:
                    other.active.pop(rid, None)
                    self.run.retire_if_idle(other, now)
            if replica is not race[0]:
                self.hedge_wins += 1
            self.copies[rid] = [replica]
        factor = self.slow_factor.get(replica.replica_id, 1.0) * self.brownout
        if factor != 1.0:
            duration *= factor
        self.in_service[replica.replica_id] = (now, duration)
        return duration

    def complete(self, rid: int, ttft_s: float) -> None:
        """Count a completion as first-attempt or not, healthy or degraded."""
        if self.attempts_of.pop(rid, 0) == 0:
            self.first_attempt_completed += 1
        self.deadline_of.pop(rid, None)
        self.copies.pop(rid, None)
        (self.degraded if self.faults_active > 0 else self.healthy).add(ttft_s)

    def outage_begins(self, now: float) -> None:
        if self.outage_start is None:
            self.outage_start = now

    def outage_ends(self, now: float) -> None:
        if self.outage_start is not None:
            self.unavailable_s += now - self.outage_start
            self.outage_windows += 1
            self.outage_start = None

    def fail_over(self, rid: int, request: Request, now: float) -> None:
        """Decide a crashed (or stranded) request's next attempt."""
        attempts = self.attempts_of.get(rid, 0) + 1
        self.attempts_of[rid] = attempts
        retry = self.retry
        if retry is not None and attempts <= retry.max_retries:
            when = now + retry.backoff_for(attempts)
            deadline = self.deadline_of.get(rid)
            if deadline is None or when <= deadline:
                self.copies[rid] = []  # in backoff: queued nowhere
                self.in_backoff += 1
                self.run.push(when, KIND_RETRY, (rid, request))
                return
        self.failed += 1
        self.forget(rid)

    def forget(self, rid: int) -> None:
        """Drop a failed or timed-out request from the run's books."""
        self.run.class_of.pop(rid, None)
        self.attempts_of.pop(rid, None)
        self.deadline_of.pop(rid, None)
        self.copies.pop(rid, None)

    def stats(self, makespan: float) -> ResilienceStats:
        # An outage or a crash still open at the end lasts until the last
        # completion or the last arrival, whichever is later: a fleet that
        # never recovers turned away every arrival after it went down.
        end = max(makespan, self.last_arrival_s)
        unavailable_s, windows = self.unavailable_s, self.outage_windows
        if self.outage_start is not None and end > self.outage_start:
            unavailable_s += end - self.outage_start
            windows += 1
        downtime = 0.0
        for index, replica_downtime in enumerate(self.downtime_s):
            downtime += replica_downtime
            since = self.down_since.get(index)
            if since is not None and end > since:
                downtime += end - since
        return ResilienceStats(
            crashes=self.crashes, recoveries=self.recoveries, retries=self.retries,
            failed=self.failed, timed_out=self.timed_out, shed=self.shed,
            hedges=self.hedges, hedge_wins=self.hedge_wins,
            first_attempt_completed=self.first_attempt_completed,
            goodput_rps=self.first_attempt_completed / makespan if makespan > 0 else 0.0,
            wasted_busy_s=self.wasted_busy_s, replica_downtime_s=downtime,
            unavailable_s=unavailable_s, unavailable_windows=windows,
            healthy_completed=self.healthy.count,
            degraded_completed=self.degraded.count,
            slo_curve_healthy=self.healthy.curve(),
            slo_curve_degraded=self.degraded.curve(),
        )
