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
from typing import Any, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..spec.base import SpecBase, register, require_finite, spec_error

__all__ = ["FaultEvent", "FaultModel", "RetryPolicy"]

#: Valid fault-event kinds.
FAULT_KINDS = ("crash", "slowdown", "brownout")

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
