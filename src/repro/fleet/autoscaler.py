"""Reactive autoscaling of fleet replicas from registered presets.

The autoscaler wakes up every ``check_interval_s`` of virtual time and
looks at two signals since its last wake-up: the mean queue depth per
in-service replica, and (optionally) the windowed TTFT SLO attainment.
Deep queues or missed SLOs add one replica of the configured platform
preset (up to ``max_extra``); a drained-out fleet removes the most
recently added extra replica, which finishes its queue and retires —
the engine never routes new work to a draining replica.

The decision rule itself (:meth:`Autoscaler.decide`) is a pure function
of the window's numbers, so it unit-tests without a simulation, and the
engine records every action into a timeline
(:class:`ScaleEvent`) that ships with the fleet metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import ConfigurationError
from ..hw.presets import get_platform_preset
from ..spec.base import SpecBase, _check_name, register, require_finite

__all__ = ["Autoscaler", "AutoscalerConfig", "ScaleEvent"]


@register
@dataclass(frozen=True)
class AutoscalerConfig(SpecBase):
    """Knobs of the reactive autoscaler (spec kind ``autoscaler``).

    Attributes:
        preset: Registered platform preset new replicas are built from.
        chips: Chip count of scaled replicas (the preset's default when
            ``None``).
        max_extra: Cap on replicas the autoscaler may add beyond the
            fleet's static configuration.
        check_interval_s: Virtual-time spacing of scaling decisions.
        scale_up_depth: Add a replica when the mean queue depth per
            in-service replica exceeds this.
        scale_down_depth: Drain an extra replica when the mean depth
            falls below this (and the SLO signal, if any, is healthy).
        ttft_slo_s: Optional TTFT target; the window's attainment against
            it becomes a second scale-up trigger.
        min_attainment: Scale up when windowed attainment drops below
            this fraction (only with ``ttft_slo_s`` set).
    """

    kind = "autoscaler"

    preset: str = "siracusa-mipi"
    chips: Optional[int] = None
    max_extra: int = 4
    check_interval_s: float = 60.0
    scale_up_depth: float = 4.0
    scale_down_depth: float = 0.5
    ttft_slo_s: Optional[float] = None
    min_attainment: float = 0.95

    def __post_init__(self) -> None:
        require_finite("", self, (
            "check_interval_s", "scale_up_depth", "scale_down_depth",
            "ttft_slo_s", "min_attainment",
        ))
        if self.max_extra < 1:
            raise ConfigurationError("max_extra must be at least 1")
        if self.check_interval_s <= 0:
            raise ConfigurationError("check_interval_s must be positive")
        if self.scale_up_depth <= self.scale_down_depth:
            raise ConfigurationError(
                "scale_up_depth must exceed scale_down_depth "
                f"({self.scale_up_depth} <= {self.scale_down_depth})"
            )
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ConfigurationError("ttft_slo_s must be positive")
        if not 0.0 < self.min_attainment <= 1.0:
            raise ConfigurationError("min_attainment must be in (0, 1]")
        if self.chips is not None and self.chips <= 0:
            raise ConfigurationError("chips must be positive")

    @classmethod
    def parse(cls, text: str, **overrides: object) -> "AutoscalerConfig":
        """Parse the CLI shorthand ``PRESET[:CHIPS]`` of scaled replicas.

        Keyword overrides (``max_extra``, ``ttft_slo_s``, ...) pass
        through to the constructor.
        """
        preset, _, chips_text = text.partition(":")
        try:
            chips = int(chips_text) if chips_text else None
        except ValueError:
            raise ConfigurationError(
                f"cannot parse --autoscale {text!r}; expected "
                "PRESET[:CHIPS], e.g. siracusa-mipi:4"
            ) from None
        return cls(preset=preset, chips=chips, **overrides)  # type: ignore[arg-type]

    def validate(self, path: str = "$") -> None:
        """Check that the scaled replicas' preset is registered."""
        _check_name(get_platform_preset, self.preset, f"{path}.preset")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action on the fleet timeline.

    Attributes:
        time_s: Virtual time of the action.
        action: ``"add"`` (replica enters service), ``"drain"`` (replica
            stops taking new work), or ``"retire"`` (a draining replica
            emptied its queue and left).
        replica_id: The replica acted on.
        reason: Which signal triggered the action.
        replicas: In-service replica count *after* the action.
    """

    time_s: float
    action: str
    replica_id: int
    reason: str
    replicas: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "action": self.action,
            "replica_id": self.replica_id,
            "reason": self.reason,
            "replicas": self.replicas,
        }


class Autoscaler:
    """The decision half of the reactive autoscaler.

    The fleet engine owns the replica lifecycle; this class only turns
    one decision window's numbers into ``"up"``/``"down"``/``None`` and
    tracks how many extras are outstanding.
    """

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self.extras = 0  # replicas added and not yet drained

    def decide(
        self,
        *,
        queue_depth_per_replica: float,
        window_completed: int,
        window_slo_met: int,
    ) -> Optional[str]:
        """One scaling decision; returns the reason string or ``None``.

        Returned reasons are ``"queue-depth"`` / ``"slo-attainment"``
        (scale up) and ``"drained"`` (scale down); the engine maps them
        to :class:`ScaleEvent` actions.
        """
        config = self.config
        slo_unhealthy = False
        if config.ttft_slo_s is not None and window_completed > 0:
            attainment = window_slo_met / window_completed
            slo_unhealthy = attainment < config.min_attainment
        if self.extras < config.max_extra:
            if queue_depth_per_replica > config.scale_up_depth:
                return "queue-depth"
            if slo_unhealthy:
                return "slo-attainment"
        if (
            self.extras > 0
            and not slo_unhealthy
            and queue_depth_per_replica < config.scale_down_depth
        ):
            return "drained"
        return None
