"""Multi-tenant admission control with per-class rate limits.

A fleet serves several *SLO classes* (tenants, traffic tiers): each class
carries a scheduling priority, an optional sustained admission-rate limit
with a burst allowance, and an optional per-class TTFT target reported in
the fleet metrics.  The :class:`AdmissionController` maps every arriving
request to its class (the request's ``priority`` field indexes the class
list, clamped to the last entry) and runs one deterministic token bucket
per limited class: a request is admitted if its class has a token left
and rejected otherwise — rejected requests never reach the router.  A
controller built without classes admits everything into one ``default``
class and leaves each request's priority as its trace set it.

Everything is virtual-time arithmetic on the arrival stream, so admission
decisions are exactly reproducible for equal traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..serving.request import Request
from ..spec.base import SpecBase, register, require_finite

__all__ = ["AdmissionController", "ClassStats", "SLOClass"]


@register
@dataclass(frozen=True)
class SLOClass(SpecBase):
    """One tenant class of the fleet's admission policy.

    Spec kind ``slo_class``.

    Attributes:
        name: Class name (reported per class in the fleet metrics).
        rate_rps: Sustained admission-rate limit in requests per second;
            ``None`` admits everything.
        burst: Token-bucket capacity — how many requests the class may
            admit back-to-back before the sustained limit bites.
        priority: Scheduling priority stamped onto admitted requests of
            this class (larger wins under the ``priority`` policy).
        ttft_slo_s: Optional per-class TTFT target; attainment against it
            is reported in the per-class fleet metrics.
        timeout_s: Optional per-class service deadline under a
            :class:`~repro.fleet.faults.RetryPolicy` — overrides the
            policy's ``timeout_s`` for requests of this class.
    """

    kind = "slo_class"

    name: str = "default"
    rate_rps: Optional[float] = None
    burst: int = 1
    priority: int = 0
    ttft_slo_s: Optional[float] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an SLO class needs a non-empty name")
        require_finite(
            f"class {self.name!r}: ", self, ("rate_rps", "ttft_slo_s", "timeout_s")
        )
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ConfigurationError(
                f"class {self.name!r}: rate_rps must be positive"
            )
        if self.burst < 1:
            raise ConfigurationError(
                f"class {self.name!r}: burst must be at least 1"
            )
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ConfigurationError(
                f"class {self.name!r}: ttft_slo_s must be positive"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"class {self.name!r}: timeout_s must be positive"
            )

    @classmethod
    def parse(cls, text: str, priority: int = 0) -> "SLOClass":
        """Parse the CLI shorthand ``NAME[:RATE[:BURST[:SLO[:TIMEOUT]]]]``.

        Empty positions keep their defaults, e.g. ``interactive:2:4:0.5``
        or ``batch::8``.  The CLI passes each ``--class``'s list position
        as ``priority``, matching how a request's ``priority`` field
        selects its class.
        """
        error = ConfigurationError(
            f"cannot parse SLO class {text!r}; expected "
            "NAME[:RATE_RPS[:BURST[:TTFT_SLO_S[:TIMEOUT_S]]]], "
            "e.g. interactive:2:4:0.5"
        )
        parts = text.split(":")
        if not parts[0] or len(parts) > 5:
            raise error
        rate, burst, slo, timeout = (parts[1:] + [""] * 4)[:4]
        try:
            rate_rps = float(rate) if rate else None
            burst_size = int(burst) if burst else 1
            ttft_slo_s = float(slo) if slo else None
            timeout_s = float(timeout) if timeout else None
        except ValueError:
            raise error from None
        return cls(
            name=parts[0],
            rate_rps=rate_rps,
            burst=burst_size,
            priority=priority,
            ttft_slo_s=ttft_slo_s,
            timeout_s=timeout_s,
        )


@dataclass
class ClassStats:
    """Mutable per-class counters the controller and engine accumulate."""

    slo_class: SLOClass
    arrived: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    slo_met: int = 0
    tokens: float = field(default=0.0)
    refill_s: float = field(default=0.0)

    def attainment(self) -> Optional[float]:
        """Fraction of completions meeting the class TTFT target."""
        if self.slo_class.ttft_slo_s is None or self.completed == 0:
            return None
        return self.slo_met / self.completed


class AdmissionController:
    """Deterministic token-bucket admission over a fixed class list.

    Args:
        classes: The fleet's SLO classes in priority-index order; an
            arriving request's ``priority`` field selects
            ``classes[min(priority, len(classes) - 1)]``, whose priority
            the fleet stamps onto it.  Without classes, one unlimited
            ``default`` class admits everything and stamps nothing (how
            ``serve``'s one-replica fleet keeps trace priorities).
    """

    def __init__(self, classes: Sequence[SLOClass] = ()) -> None:
        #: Whether admitted requests take their class's priority.
        self.stamps_priority = bool(classes)
        chosen: Tuple[SLOClass, ...] = tuple(classes) or (SLOClass(),)
        names = [cls.name for cls in chosen]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "SLO class names must be unique, got " + ", ".join(names)
            )
        self.classes = chosen
        self._stats: List[ClassStats] = [
            ClassStats(slo_class=cls, tokens=float(cls.burst))
            for cls in chosen
        ]

    def fresh(self) -> "AdmissionController":
        """A controller with this one's classes and stamping, and no counts."""
        return AdmissionController(self.classes if self.stamps_priority else ())

    def class_index(self, request: Request) -> int:
        """The class an arriving request belongs to."""
        return min(request.priority, len(self.classes) - 1)

    def admit(self, request: Request, index: int) -> Tuple[bool, SLOClass]:
        """Decide one arrival of class ``index`` (its :meth:`class_index`).

        Returns ``(admitted, its class)``.
        """
        stats = self._stats[index]
        slo_class = stats.slo_class
        stats.arrived += 1
        if slo_class.rate_rps is None:
            stats.admitted += 1
            return True, slo_class
        elapsed = request.arrival_s - stats.refill_s
        stats.tokens = min(
            float(slo_class.burst), stats.tokens + elapsed * slo_class.rate_rps
        )
        stats.refill_s = request.arrival_s
        if stats.tokens >= 1.0:
            stats.tokens -= 1.0
            stats.admitted += 1
            return True, slo_class
        stats.rejected += 1
        return False, slo_class

    def shed(self, request: Request) -> SLOClass:
        """Count one arrival shed by graceful degradation.

        Shed requests are neither admitted nor rejected: the fleet turned
        them away because healthy capacity dropped (or hit zero), not
        because the class was over its rate limit.  Returns the class for
        the engine's bookkeeping.
        """
        stats = self._stats[self.class_index(request)]
        stats.arrived += 1
        stats.shed += 1
        return stats.slo_class

    def complete(self, class_index: int, ttft_s: float) -> None:
        """Record one completion (per-class TTFT attainment)."""
        stats = self._stats[class_index]
        stats.completed += 1
        target = stats.slo_class.ttft_slo_s
        if target is None or ttft_s <= target:
            stats.slo_met += 1

    @property
    def stats(self) -> Tuple[ClassStats, ...]:
        """Per-class counters, in class order."""
        return tuple(self._stats)

    def to_dicts(self, *, include_shed: bool = False) -> List[Dict[str, object]]:
        """JSON-ready per-class summary, in class order.

        ``include_shed`` adds the graceful-degradation ``shed`` counter;
        the fault-free engine leaves it off so its documents stay
        byte-identical to runs of the pre-resilience engine.
        """
        rows: List[Dict[str, object]] = []
        for stats in self._stats:
            cls = stats.slo_class
            row: Dict[str, object] = {
                "name": cls.name,
                "priority": cls.priority,
                "rate_rps": cls.rate_rps,
                "arrived": stats.arrived,
                "admitted": stats.admitted,
                "rejected": stats.rejected,
                "completed": stats.completed,
            }
            if include_shed:
                row["shed"] = stats.shed
            if cls.ttft_slo_s is not None:
                row["ttft_slo_s"] = cls.ttft_slo_s
                row["slo_attainment"] = stats.attainment()
            rows.append(row)
        return rows
