"""Declarative search spaces over platforms and partition strategies.

A *search space* is a tuple of typed parameter axes — categorical choices,
stepped integer ranges, and (optionally discretised) float ranges — that a
design-space search draws candidate points from.  A *point* is a plain
``{axis name: value}`` mapping; :func:`materialise` turns a point into the
concrete :class:`~repro.hw.platform.MultiChipPlatform` plus partitioning
strategy that :class:`~repro.api.Session` evaluates, validating every
value on the way.

Sampling is fully deterministic: every draw goes through an explicit
:class:`random.Random` instance, so equal seeds reproduce equal candidate
sequences (a property the test suite asserts).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..api.registry import get_strategy
from ..errors import ArchitectureError, ConfigurationError
from ..graph.transformer import TransformerConfig
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform
from ..hw.presets import siracusa_variant

__all__ = [
    "Axis",
    "ChoiceAxis",
    "DesignPoint",
    "FloatAxis",
    "IntAxis",
    "MODEL_AXES",
    "PLATFORM_AXES",
    "Point",
    "SearchSpace",
    "Value",
    "default_space",
    "materialise",
    "point_key",
]

#: A single axis value: categorical label or numeric level.
Value = Union[bool, int, float, str]

#: A candidate configuration: axis name -> value.
Point = Dict[str, Value]


# ----------------------------------------------------------------------
# Axes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChoiceAxis:
    """A categorical axis: the value is one of an explicit tuple of choices."""

    name: str
    choices: Tuple[Value, ...]

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        object.__setattr__(self, "choices", tuple(self.choices))
        if not self.choices:
            raise ConfigurationError(f"axis {self.name!r} needs at least one choice")
        if len(set(self.choices)) != len(self.choices):
            raise ConfigurationError(f"axis {self.name!r} has duplicate choices")

    @property
    def size(self) -> int:
        """Number of distinct values."""
        return len(self.choices)

    def contains(self, value: Value) -> bool:
        """Whether ``value`` is one of the declared choices."""
        return any(value == choice for choice in self.choices)

    def values(self) -> Tuple[Value, ...]:
        """All values, in declaration order."""
        return self.choices

    def sample(self, rng: random.Random) -> Value:
        """Draw one choice uniformly."""
        return self.choices[rng.randrange(len(self.choices))]


@dataclass(frozen=True)
class IntAxis:
    """A stepped integer range ``low, low+step, ... <= high`` (inclusive)."""

    name: str
    low: int
    high: int
    step: int = 1

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        if self.step <= 0:
            raise ConfigurationError(f"axis {self.name!r} needs a positive step")
        if self.high < self.low:
            raise ConfigurationError(
                f"axis {self.name!r} has an empty range [{self.low}, {self.high}]"
            )

    @property
    def size(self) -> int:
        """Number of distinct values."""
        return (self.high - self.low) // self.step + 1

    def contains(self, value: Value) -> bool:
        """Whether ``value`` is an on-grid integer within the bounds."""
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        return self.low <= value <= self.high and (value - self.low) % self.step == 0

    def values(self) -> Tuple[int, ...]:
        """All values, ascending."""
        return tuple(range(self.low, self.high + 1, self.step))

    def sample(self, rng: random.Random) -> int:
        """Draw one grid value uniformly."""
        return self.low + self.step * rng.randrange(self.size)


@dataclass(frozen=True)
class FloatAxis:
    """A bounded float range, optionally discretised into named levels.

    With ``levels`` the axis samples and enumerates only those levels (all
    of which must lie inside the bounds); without, sampling is uniform over
    ``[low, high]`` and the axis cannot be grid-enumerated.
    """

    name: str
    low: float
    high: float
    levels: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        if self.high < self.low:
            raise ConfigurationError(
                f"axis {self.name!r} has an empty range [{self.low}, {self.high}]"
            )
        if self.levels is not None:
            object.__setattr__(self, "levels", tuple(self.levels))
            if not self.levels:
                raise ConfigurationError(
                    f"axis {self.name!r} needs at least one level"
                )
            if len(set(self.levels)) != len(self.levels):
                raise ConfigurationError(f"axis {self.name!r} has duplicate levels")
            for level in self.levels:
                if not self.low <= level <= self.high:
                    raise ConfigurationError(
                        f"axis {self.name!r} level {level} outside "
                        f"[{self.low}, {self.high}]"
                    )

    @property
    def size(self) -> Optional[int]:
        """Number of distinct values, or ``None`` when continuous."""
        return len(self.levels) if self.levels is not None else None

    def contains(self, value: Value) -> bool:
        """Whether ``value`` is a declared level (discretised) or in bounds.

        Mirrors :meth:`IntAxis.contains`: a discretised axis only contains
        the values its sampler and grid can actually produce.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if self.levels is not None:
            return any(value == level for level in self.levels)
        return self.low <= value <= self.high

    def values(self) -> Tuple[float, ...]:
        """The discretised levels; a continuous axis cannot be enumerated."""
        if self.levels is None:
            raise ConfigurationError(
                f"axis {self.name!r} is continuous; give it explicit levels "
                "to enumerate it (grid search needs a finite space)"
            )
        return self.levels

    def sample(self, rng: random.Random) -> float:
        """Draw one level (discretised) or a uniform value (continuous)."""
        if self.levels is not None:
            return self.levels[rng.randrange(len(self.levels))]
        return rng.uniform(self.low, self.high)


Axis = Union[ChoiceAxis, IntAxis, FloatAxis]


def _check_axis_name(name: str) -> None:
    if not name or not isinstance(name, str):
        raise ConfigurationError("an axis needs a non-empty string name")


# ----------------------------------------------------------------------
# The space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchSpace:
    """An ordered tuple of uniquely-named axes.

    The axis order is the canonical point order: sampling, enumeration,
    and the exported JSON all present values axis by axis in this order,
    which (together with seeded :class:`random.Random` draws) is what
    makes the whole DSE layer byte-deterministic.
    """

    axes: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ConfigurationError("a search space needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axis names in {names}")

    @property
    def names(self) -> Tuple[str, ...]:
        """Axis names, in canonical order."""
        return tuple(axis.name for axis in self.axes)

    def axis(self, name: str) -> Axis:
        """Look one axis up by name."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise ConfigurationError(
            f"no axis {name!r} in this space; axes: {', '.join(self.names)}"
        )

    @property
    def size(self) -> Optional[int]:
        """Number of distinct points, or ``None`` if any axis is continuous."""
        total = 1
        for axis in self.axes:
            if axis.size is None:
                return None
            total *= axis.size
        return total

    def contains(self, point: Mapping[str, Value]) -> bool:
        """Whether ``point`` names exactly these axes with in-bounds values."""
        if set(point) != set(self.names):
            return False
        return all(axis.contains(point[axis.name]) for axis in self.axes)

    def sample(self, rng: random.Random) -> Point:
        """Draw one point, one axis at a time in canonical order."""
        return {axis.name: axis.sample(rng) for axis in self.axes}

    def sample_many(self, count: int, seed: int = 0) -> List[Point]:
        """Draw ``count`` points from a fresh seeded generator."""
        rng = random.Random(seed)
        return [self.sample(rng) for _ in range(count)]

    def grid(self) -> Iterator[Point]:
        """Enumerate every point (itertools.product over the axis values).

        Raises:
            ConfigurationError: If any axis is continuous (unenumerable).
        """
        values = [axis.values() for axis in self.axes]
        for combination in itertools.product(*values):
            yield dict(zip(self.names, combination))

    def mutate(self, point: Mapping[str, Value], rng: random.Random) -> Point:
        """Return a neighbour of ``point``: one axis resampled.

        The resample retries a few times to change the value; a
        single-choice axis leaves the point unchanged.
        """
        mutated = dict(point)
        axis = self.axes[rng.randrange(len(self.axes))]
        value = point[axis.name]
        for _ in range(8):
            value = axis.sample(rng)
            if value != point[axis.name]:
                break
        mutated[axis.name] = value
        return mutated


def point_key(point: Mapping[str, Value]) -> Tuple[Tuple[str, Value], ...]:
    """Canonical hashable identity of a point (name-sorted items)."""
    return tuple(sorted(point.items()))


# ----------------------------------------------------------------------
# Materialisation
# ----------------------------------------------------------------------
#: Axis names understood by :func:`materialise`, platform side.
PLATFORM_AXES = (
    "chips",
    "cores",
    "freq_mhz",
    "l2_kib",
    "link_gbps",
    "link_pj_per_byte",
    "group_size",
)

#: Axis names understood by :func:`materialise`, model side: the model
#: registry name plus architecture overrides applied to its configuration
#: (``kv_heads`` for GQA/MQA grouping, MoE ``num_experts``/``moe_top_k``,
#: and a sliding ``attention_window`` where ``0`` means "no window").
#: These axes require a base workload — see :func:`materialise`.
MODEL_AXES = (
    "model",
    "kv_heads",
    "num_experts",
    "moe_top_k",
    "attention_window",
)

#: Every axis name :func:`materialise` understands.
KNOWN_AXES = PLATFORM_AXES + MODEL_AXES + ("strategy",)


@dataclass(frozen=True)
class DesignPoint:
    """A materialised point: what a session evaluates for that point.

    Attributes:
        point: The originating point, in canonical name-sorted item form.
        platform: The concrete multi-chip platform.
        strategy: Canonical registry name of the partitioning strategy.
        workload: The (possibly architecture-overridden) workload, when the
            point carries model axes and a base workload was supplied;
            ``None`` means "evaluate the caller's own workload".
    """

    point: Tuple[Tuple[str, Value], ...]
    platform: MultiChipPlatform
    strategy: str
    workload: Optional[Workload] = None


def _require_int(name: str, value: Value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigurationError(f"axis {name!r} needs an integer, got {value!r}")
    return value


def _require_number(name: str, value: Value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"axis {name!r} needs a number, got {value!r}")
    return float(value)


#: The platform axes :func:`~repro.hw.presets.siracusa_variant` takes by
#: name besides ``chips``, each with its type check, in checking order.
_VARIANT_AXES = (
    ("group_size", _require_int),
    ("cores", _require_int),
    ("freq_mhz", _require_number),
    ("l2_kib", _require_int),
    ("link_gbps", _require_number),
    ("link_pj_per_byte", _require_number),
)


def _materialise_workload(
    point: Mapping[str, Value], workload: Optional[Workload]
) -> Optional[Workload]:
    """Apply the point's model axes to a base workload.

    An unknown ``model`` registry name fails fast with a
    :class:`ConfigurationError` (the whole search would be meaningless);
    an architecturally invalid override combination (say ``moe_top_k``
    above ``num_experts``) raises :class:`ArchitectureError`, which
    searchers treat as an *infeasible point* and move on.
    """
    present = [name for name in MODEL_AXES if name in point]
    if not present:
        return None
    if workload is None:
        raise ConfigurationError(
            f"design axes {present} describe the model; materialise needs "
            "a base workload to apply them to"
        )
    config = workload.config
    if "model" in point:
        model = point["model"]
        if not isinstance(model, str):
            raise ConfigurationError(
                f"axis 'model' needs a registry name, got {model!r}"
            )
        from ..models.registry import get_model

        config = get_model(model)
    overrides: Dict[str, Optional[int]] = {}
    suffix: List[str] = []
    if "kv_heads" in point:
        overrides["kv_heads"] = _require_int("kv_heads", point["kv_heads"])
        suffix.append(f"kv{overrides['kv_heads']}")
    if "num_experts" in point:
        overrides["num_experts"] = _require_int("num_experts", point["num_experts"])
        suffix.append(f"e{overrides['num_experts']}")
        if "moe_top_k" not in point:
            # Keep the override combination self-consistent: a dense model
            # pulled to an expert axis keeps top-1 routing by default.
            overrides["moe_top_k"] = min(
                config.moe_top_k, overrides["num_experts"]
            )
    if "moe_top_k" in point:
        overrides["moe_top_k"] = _require_int("moe_top_k", point["moe_top_k"])
        suffix.append(f"k{overrides['moe_top_k']}")
    if "attention_window" in point:
        window = _require_int("attention_window", point["attention_window"])
        overrides["attention_window"] = window if window > 0 else None
        suffix.append(f"w{window}")
    return _model_variant(
        workload, config, tuple(overrides.items()), "-".join(suffix)
    )


@lru_cache(maxsize=256)
def _model_variant(
    workload: Workload,
    config: TransformerConfig,
    overrides: Tuple[Tuple[str, Optional[int]], ...],
    suffix: str,
) -> Workload:
    """``workload`` running ``config`` with the architecture overrides.

    Equal arguments share one immutable workload, so its memoised
    content hash serves every design point of that variant.
    """
    if overrides:
        name = f"{config.name}+{suffix}"
        try:
            config = replace(config, name=name, **dict(overrides))
        except ConfigurationError as error:
            raise ArchitectureError(str(error)) from None
    if config is workload.config:
        return workload
    return replace(workload, config=config, name=None)


def materialise(
    point: Mapping[str, Value],
    *,
    default_strategy: str = "paper",
    workload: Optional[Workload] = None,
) -> DesignPoint:
    """Validate a point and build what it describes.

    Axes absent from the point keep the paper's Siracusa + MIPI values:
    the platform is :func:`~repro.hw.presets.siracusa_variant` of the
    point's platform axes, as every registered preset is.  Unknown axis
    names are rejected so a typo cannot silently evaluate the default
    platform.  The strategy name is resolved through the strategy
    registry (so aliases canonicalise and unknown names fail here, not
    mid-search).  Model axes (:data:`MODEL_AXES`) are applied to the
    optional base ``workload``; the result lands in
    :attr:`DesignPoint.workload`.
    """
    unknown = sorted(set(point) - set(KNOWN_AXES))
    if unknown:
        raise ConfigurationError(
            f"unknown design axes {unknown}; materialise understands "
            f"{', '.join(KNOWN_AXES)}"
        )
    design_workload = _materialise_workload(point, workload)

    chips = _require_int("chips", point.get("chips", 8))
    if chips <= 0:
        raise ConfigurationError(f"axis 'chips' must be positive, got {chips}")
    # Axis values are validated (and their types normalised) here, so
    # equal values share one chip and one link object.
    platform = siracusa_variant(
        chips,
        **{
            name: check(name, point[name])
            for name, check in _VARIANT_AXES
            if name in point
        },
    )
    strategy = point.get("strategy", default_strategy)
    if not isinstance(strategy, str):
        raise ConfigurationError(
            f"axis 'strategy' needs a registry name, got {strategy!r}"
        )
    canonical = get_strategy(strategy).name
    return DesignPoint(
        point=point_key(point),
        platform=platform,
        strategy=canonical,
        workload=design_workload,
    )


def default_space() -> SearchSpace:
    """The standard platform/partition space around the paper's deployment.

    Chip count, chip-to-chip bandwidth, L2 capacity, and cluster frequency
    vary around the Siracusa + MIPI operating point; the strategy axis
    pins the paper's scheme (pass a custom space to search over baselines
    too).
    """
    return SearchSpace(
        axes=(
            ChoiceAxis("chips", (1, 2, 4, 8)),
            FloatAxis("link_gbps", 0.125, 2.0, levels=(0.125, 0.25, 0.5, 1.0, 2.0)),
            ChoiceAxis("l2_kib", (1024, 2048, 4096)),
            FloatAxis("freq_mhz", 300.0, 500.0, levels=(300.0, 500.0)),
            ChoiceAxis("strategy", ("paper",)),
        )
    )
