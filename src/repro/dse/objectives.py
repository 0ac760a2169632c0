"""Named multi-objective metrics and their registry.

An *objective* extracts one scalar figure of merit from a measured design
point — block latency, energy, a hardware-cost proxy, serving SLO
attainment — together with its optimisation *sense* (minimise or
maximise).  Objectives register by name with :func:`register_objective`,
mirroring the strategy/policy/searcher registries, so a new figure of
merit becomes available to :meth:`repro.api.Session.tune` and the
``repro tune`` CLI by writing one small class::

    from repro.dse import Sense, register_objective

    @register_objective
    class SyncsObjective:
        name = "syncs"
        label = "Synchronisations per block"
        sense = Sense.MIN
        requires_serving = False

        def value(self, measurement):
            return float(measurement.result.synchronisations_per_block)

Objectives that need request-level numbers set ``requires_serving = True``;
the evaluator then runs one serving simulation per unique design point
(through the session's memoised phase costs) and exposes the
:class:`~repro.serving.metrics.ServingReport` on the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from ..errors import ConfigurationError, UnknownObjectiveError
from ..registry import Registry, instantiate
from ..units import mib
from .space import DesignPoint

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..api.result import EvalResult
    from ..serving.metrics import ServingReport

__all__ = [
    "Measurement",
    "Objective",
    "Sense",
    "get_objective",
    "hardware_cost_units",
    "list_objectives",
    "register_objective",
    "unregister_objective",
]


class Sense(Enum):
    """Optimisation direction of one objective."""

    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Measurement:
    """Everything measured about one design point.

    Attributes:
        design: The materialised point (platform + strategy).
        result: The block-level evaluation of the session.
        serving: The request-level report, present only when at least one
            requested objective declared ``requires_serving``.
    """

    design: DesignPoint
    result: "EvalResult"
    serving: Optional["ServingReport"] = None


@runtime_checkable
class Objective(Protocol):
    """What the registry requires of an objective.

    Attributes:
        name: Registry key (lowercase snake_case by convention).
        label: Human-readable description shown by the CLI.
        sense: Whether smaller or larger values are better.
        requires_serving: Whether :meth:`value` reads ``measurement.serving``.
    """

    name: str
    label: str
    sense: Sense
    requires_serving: bool

    def value(self, measurement: Measurement) -> float:
        """Extract the objective's scalar from one measurement."""
        ...


_OBJECTIVES: Registry[Objective] = Registry("objective", UnknownObjectiveError)


def register_objective(objective):
    """Class decorator (or direct call) registering an objective.

    Accepts either an objective *class* (instantiated with no arguments)
    or a ready-made instance; registered under its ``name`` plus any names
    in an optional ``aliases`` tuple.  Returns the argument unchanged so
    it can be used as a decorator.

    Raises:
        ConfigurationError: If the name is missing or taken, the aliases
            are not a tuple of names, the object does not implement
            :class:`Objective`, or its ``sense`` is not a :class:`Sense`.
    """
    instance = instantiate(objective, "objective", Objective)
    if not isinstance(instance.sense, Sense):
        raise ConfigurationError(
            f"objective {instance.name!r} has invalid sense {instance.sense!r}"
        )
    _OBJECTIVES.add(instance)
    return objective


#: Remove an objective (and its aliases) from the registry.
unregister_objective = _OBJECTIVES.remove

#: Look up a registered objective by name or alias; raises
#: :class:`~repro.errors.UnknownObjectiveError`, listing the available
#: names, if no objective is registered under it.
get_objective = _OBJECTIVES.get

#: Sorted canonical names of all registered objectives.
list_objectives = _OBJECTIVES.names


# ----------------------------------------------------------------------
# Hardware-cost proxy
# ----------------------------------------------------------------------
def hardware_cost_units(design: DesignPoint) -> float:
    """Analytic hardware-cost proxy of a platform, in arbitrary units.

    A monotone silicon-area-style ranking (not dollars): each chip costs
    its core count, plus two units per MiB of L2, plus half a unit per GHz
    of clock (faster timing closure), plus one unit per GB/s of link PHY.
    The proxy exists so cost can participate in Pareto trade-offs; its
    absolute scale is meaningless.
    """
    chip = design.platform.chip
    l2_mib = chip.l2.size_bytes / mib(1)
    freq_ghz = chip.cluster.frequency_hz / 1e9
    link_gbps = design.platform.link.bandwidth_bytes_per_s / 1e9
    per_chip = chip.cluster.num_cores + 2.0 * l2_mib + 0.5 * freq_ghz + link_gbps
    return design.platform.num_chips * per_chip


# ----------------------------------------------------------------------
# Shipped objectives
# ----------------------------------------------------------------------
@register_objective
class LatencyObjective:
    """Per-block runtime in seconds (the paper's headline axis)."""

    name = "latency"
    aliases = ("block_runtime",)
    label = "Block runtime (s)"
    sense = Sense.MIN
    requires_serving = False

    def value(self, measurement: Measurement) -> float:
        return measurement.result.block_runtime_seconds


@register_objective
class EnergyObjective:
    """Per-block energy in joules (the paper's second axis)."""

    name = "energy"
    aliases = ("energy_per_block",)
    label = "Block energy (J)"
    sense = Sense.MIN
    requires_serving = False

    def value(self, measurement: Measurement) -> float:
        return measurement.result.block_energy_joules


@register_objective
class HardwareCostObjective:
    """Platform cost proxy (chips x [cores, L2, clock, link PHY])."""

    name = "hw_cost"
    aliases = ("cost",)
    label = "Hardware-cost proxy (arbitrary units)"
    sense = Sense.MIN
    requires_serving = False

    def value(self, measurement: Measurement) -> float:
        return hardware_cost_units(measurement.design)


@register_objective
class EnergyPerRequestObjective:
    """Serving energy per completed request in joules."""

    name = "energy_per_request"
    label = "Energy per served request (J)"
    sense = Sense.MIN
    requires_serving = True

    def value(self, measurement: Measurement) -> float:
        assert measurement.serving is not None
        return measurement.serving.metrics.energy_per_request_joules


@register_objective
class SloAttainmentObjective:
    """Fraction of requests meeting the serving scenario's TTFT target."""

    name = "slo"
    aliases = ("slo_attainment",)
    label = "SLO attainment (fraction of requests within TTFT target)"
    sense = Sense.MAX
    requires_serving = True

    def value(self, measurement: Measurement) -> float:
        assert measurement.serving is not None
        return measurement.serving.metrics.slo_curve[0][1]
