"""Typed, frozen, serialisable experiment specs.

Every verb of the library — ``Session.run/sweep/compare/serve/tune`` —
has a spec dataclass here that captures one invocation *as data*:

* :class:`ModelSpec`, :class:`WorkloadSpec`, :class:`PlatformSpec` name
  registry entries (models, platform presets) plus their parameters;
* :class:`EvalSpec`, :class:`SweepSpec`, :class:`CompareSpec`,
  :class:`ServingSpec`, :class:`FleetSpec`, :class:`TuneSpec` are the
  six *runnable* specs —
  each knows how to resolve its names through the live registries and
  execute itself on a :class:`~repro.api.Session`
  (see :mod:`repro.spec.runner`);
* :class:`StudySpec` composes any number of named runnable stages into a
  pipeline, where later stages may reference earlier ones
  (``platform_from`` a tune stage, ``chips_from`` a sweep stage).

All specs round-trip losslessly through ``to_dict()`` / ``from_dict()``
and JSON (:meth:`~repro.spec.base.SpecBase.to_json`, :func:`loads`,
:func:`load_spec`), carry a schema version, and validate with precise
document paths — see :mod:`repro.spec.base` for the machinery and
``docs/SPECS.md`` for the schema reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Type, Union

from ..core.placement import PrefetchAccounting
from ..errors import ReproError, SpecError
from ..graph.transformer import InferenceMode, TransformerConfig
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform
from .base import _KINDS, SpecBase, decode_value, register, require_finite, spec_error

if TYPE_CHECKING:
    from ..arch.spec import ArchSpec
    from ..dse.engine import ServingScenario
    from ..fleet import AutoscalerConfig, FaultModel, FleetPlatform, RetryPolicy, SLOClass

__all__ = [
    "AxisSpec",
    "CompareSpec",
    "DEFAULT_SEQ_LEN",
    "EvalSpec",
    "FleetSpec",
    "ModelSpec",
    "PlatformSpec",
    "RUNNABLE_KINDS",
    "RunnableSpec",
    "SearchStateSpec",
    "ServingSpec",
    "SpaceSpec",
    "StageSpec",
    "StudySpec",
    "SweepSpec",
    "TraceSpec",
    "TuneSpec",
    "WorkloadSpec",
    "load_spec",
    "loads",
    "spec_from_dict",
]

#: Default sequence lengths per inference mode (the paper's setup); shared
#: with the CLI so ``--emit-spec`` and the flags agree by construction.
DEFAULT_SEQ_LEN = {
    InferenceMode.AUTOREGRESSIVE: 128,
    InferenceMode.PROMPT: 16,
    InferenceMode.ENCODER: 268,
}

def _wrap(path: str, error: ReproError) -> SpecError:
    """Attach a document path to a registry/validation error."""
    return spec_error(path, str(error))


# ----------------------------------------------------------------------
# Leaf specs: model, workload, platform
# ----------------------------------------------------------------------
@register
@dataclass(frozen=True)
class ModelSpec(SpecBase):
    """A model configuration: a registry name *or* an inline architecture.

    The two forms are mutually exclusive: either ``name`` selects a
    registered model, or ``arch`` embeds a full declarative
    :class:`~repro.arch.ArchSpec` in the document.
    """

    kind = "model"

    name: str = "tinyllama-42m"
    arch: Optional["ArchSpec"] = None

    def __post_init__(self) -> None:
        if self.arch is not None and self.name != "tinyllama-42m":
            raise spec_error(
                "$.model", "give either a registry name or an inline arch, not both"
            )

    def validate(self, path: str = "$") -> None:
        if self.arch is not None:
            validate = getattr(self.arch, "validate", None)
            if self.arch.kind != "arch" or validate is None:
                raise spec_error(f"{path}.arch", "expected an 'arch' spec")
            validate(f"{path}.arch")
            return
        try:
            self.build()
        except ReproError as error:
            raise _wrap(f"{path}.name", error) from None

    def build(self) -> TransformerConfig:
        """Resolve the name through the model registry, or lower the arch."""
        if self.arch is not None:
            from ..arch import build_model

            return build_model(self.arch)
        from ..models.registry import get_model

        return get_model(self.name)

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "ModelSpec":
        if isinstance(data, str):  # shorthand: a bare registry name
            data = {"name": data}
        if isinstance(data, Mapping) and "name" in data and "arch" in data:
            raise spec_error(
                path, "give either a registry name or an inline arch, not both"
            )
        # Importing repro.arch registers ArchSpec, which `arch` names.
        from ..arch import ArchSpec  # noqa: F401

        return super().from_dict(data, path)


@register
@dataclass(frozen=True)
class WorkloadSpec(SpecBase):
    """A model plus inference mode and sequence length."""

    kind = "workload"

    model: ModelSpec = ModelSpec()
    mode: str = "autoregressive"
    seq_len: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in {m.value for m in InferenceMode}:
            raise SpecError(
                f"unknown inference mode {self.mode!r}; choose from "
                + ", ".join(m.value for m in InferenceMode)
            )
        if self.seq_len is not None and self.seq_len <= 0:
            raise SpecError(
                f"seq_len must be positive, got {self.seq_len}"
            )

    def validate(self, path: str = "$") -> None:
        self.model.validate(f"{path}.model")
        try:
            self.build()
        except ReproError as error:
            raise _wrap(path, error) from None

    def build(self) -> Workload:
        """Build the concrete workload (paper default seq_len per mode)."""
        mode = InferenceMode(self.mode)
        seq_len = (
            self.seq_len if self.seq_len is not None else DEFAULT_SEQ_LEN[mode]
        )
        return Workload(
            config=self.model.build(), mode=mode, seq_len=seq_len, name=self.label
        )


@register
@dataclass(frozen=True)
class PlatformSpec(SpecBase):
    """A registered hardware preset, optionally pinned to a chip count."""

    kind = "platform"

    preset: str = "siracusa-mipi"
    chips: Optional[int] = None

    def __post_init__(self) -> None:
        if self.chips is not None and self.chips <= 0:
            raise SpecError(f"chips must be positive, got {self.chips}")

    def validate(self, path: str = "$") -> None:
        from ..hw.presets import get_platform_preset

        try:
            get_platform_preset(self.preset)
        except ReproError as error:
            raise _wrap(f"{path}.preset", error) from None

    def build(self, chips: Optional[int] = None) -> MultiChipPlatform:
        """Materialise the preset (the preset's default chips if unpinned)."""
        from ..hw.presets import get_platform_preset

        count = chips if chips is not None else self.chips
        return get_platform_preset(self.preset).build(count)

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "PlatformSpec":
        if isinstance(data, str):  # shorthand: a bare preset name
            data = {"preset": data}
        return super().from_dict(data, path)


def _prefetch_value(value: str) -> str:
    choices = {policy.value for policy in PrefetchAccounting}
    if value not in choices:
        raise SpecError(
            f"unknown prefetch accounting {value!r}; choose from "
            + ", ".join(sorted(choices))
        )
    return value


def _check_strategy(name: str, path: str) -> None:
    from ..api.registry import get_strategy

    try:
        get_strategy(name)
    except ReproError as error:
        raise _wrap(path, error) from None


def _check_slo_targets(spec: Union["ServingSpec", "FleetSpec"]) -> None:
    require_finite("", spec, ("slo_targets",))
    for target in spec.slo_targets or ():
        if target <= 0:
            raise SpecError(f"slo_targets must be positive, got {target}")


# ----------------------------------------------------------------------
# Runnable specs
# ----------------------------------------------------------------------
@register
@dataclass(frozen=True)
class EvalSpec(SpecBase):
    """One ``Session.run`` invocation as data.

    ``platform_from`` names an earlier *tune* stage of the enclosing
    study; the evaluation then runs on that stage's best feasible design
    (platform *and* strategy) instead of :attr:`platform`/:attr:`strategy`.
    """

    kind = "evaluate"

    workload: WorkloadSpec = WorkloadSpec()
    strategy: str = "paper"
    platform: PlatformSpec = PlatformSpec()
    platform_from: Optional[str] = None
    prefetch: str = "hidden"

    def __post_init__(self) -> None:
        _prefetch_value(self.prefetch)

    def validate(self, path: str = "$") -> None:
        self.workload.validate(f"{path}.workload")
        self.platform.validate(f"{path}.platform")
        _check_strategy(self.strategy, f"{path}.strategy")


@register
@dataclass(frozen=True)
class SweepSpec(SpecBase):
    """One ``Session.sweep`` invocation as data (chip-count sweep)."""

    kind = "sweep"

    workload: WorkloadSpec = WorkloadSpec()
    chips: Tuple[int, ...] = (1, 2, 4, 8)
    strategy: str = "paper"
    platform: PlatformSpec = PlatformSpec()
    parallel: Optional[int] = None
    prefetch: str = "hidden"

    def __post_init__(self) -> None:
        object.__setattr__(self, "chips", tuple(self.chips))
        if not self.chips:
            raise SpecError("chips must name at least one chip count")
        for count in self.chips:
            if count <= 0:
                raise SpecError(f"invalid chip count {count}")
        if self.platform.chips is not None:
            raise SpecError(
                "a sweep's platform must not pin chips; the swept counts "
                "come from the spec's own 'chips' field"
            )
        if self.parallel is not None and self.parallel <= 0:
            raise SpecError(f"parallel must be positive, got {self.parallel}")
        _prefetch_value(self.prefetch)

    def validate(self, path: str = "$") -> None:
        self.workload.validate(f"{path}.workload")
        self.platform.validate(f"{path}.platform")
        _check_strategy(self.strategy, f"{path}.strategy")


@register
@dataclass(frozen=True)
class CompareSpec(SpecBase):
    """One ``Session.compare`` invocation as data (strategy ablation)."""

    kind = "compare"

    workload: WorkloadSpec = WorkloadSpec()
    strategies: Tuple[str, ...] = (
        "single_chip",
        "weight_replicated",
        "pipeline_parallel",
        "tensor_parallel",
    )
    platform: PlatformSpec = PlatformSpec()
    platform_from: Optional[str] = None
    prefetch: str = "hidden"

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.strategies:
            raise SpecError("strategies must name at least one strategy")
        _prefetch_value(self.prefetch)

    def validate(self, path: str = "$") -> None:
        self.workload.validate(f"{path}.workload")
        self.platform.validate(f"{path}.platform")
        for index, name in enumerate(self.strategies):
            _check_strategy(name, f"{path}.strategies[{index}]")


@register
@dataclass(frozen=True)
class TraceSpec(SpecBase):
    """A declarative traffic trace (the serving generators' parameters)."""

    kind = "trace"

    source: str = "poisson"
    rate_rps: float = 2.0
    duration_s: float = 300.0
    burst_rate_rps: Optional[float] = None
    mean_base_s: float = 20.0
    mean_burst_s: float = 5.0
    clients: int = 8
    requests_per_client: int = 16
    mean_think_s: float = 1.0
    prompt_mean: float = 64.0
    output_mean: float = 32.0
    sigma: float = 0.5
    prompt_min: int = 1
    prompt_max: int = 256
    output_min: int = 1
    output_max: int = 128
    priority_levels: int = 1
    path: Optional[str] = None
    amplitude: float = 0.6
    period_s: float = 86_400.0
    phase_s: float = 0.0
    spike_starts_s: Tuple[float, ...] = ()
    spike_duration_s: float = 600.0
    spike_rate_rps: Optional[float] = None

    _SOURCES = ("poisson", "bursty", "closed", "replay", "diurnal")

    _FLOATS = (
        "rate_rps", "duration_s", "burst_rate_rps", "mean_base_s", "mean_burst_s",
        "mean_think_s", "prompt_mean", "output_mean", "sigma", "amplitude",
        "period_s", "phase_s", "spike_starts_s", "spike_duration_s", "spike_rate_rps",
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "spike_starts_s", tuple(self.spike_starts_s))
        require_finite("", self, self._FLOATS)
        if self.source not in self._SOURCES:
            raise SpecError(
                f"unknown trace source {self.source!r}; choose from "
                + ", ".join(self._SOURCES)
            )
        if self.source == "replay" and not self.path:
            raise SpecError("a replay trace needs a 'path' to the recorded JSON")
        if self.source != "replay" and self.path is not None:
            raise SpecError("'path' only applies to the replay source")
        if self.source != "diurnal" and self.spike_starts_s:
            raise SpecError("'spike_starts_s' only applies to the diurnal source")

    def validate(self, path: str = "$") -> None:
        if self.source == "replay":
            return  # the file is read at build time
        try:
            self._lengths()
            self.build()
        except ReproError as error:
            raise _wrap(path, error) from None

    def _lengths(self):
        from ..serving.traces import LengthModel

        return LengthModel(
            prompt_mean=self.prompt_mean,
            output_mean=self.output_mean,
            sigma=self.sigma,
            prompt_min=self.prompt_min,
            prompt_max=self.prompt_max,
            output_min=self.output_min,
            output_max=self.output_max,
        )

    def build(self):
        """Build the concrete :class:`~repro.serving.traces.TrafficTrace`."""
        from ..serving.traces import (
            BurstyTrace,
            ClosedLoopTrace,
            DiurnalTrace,
            PoissonTrace,
            load_trace,
        )

        if self.source == "replay":
            assert self.path is not None
            return load_trace(self.path)
        lengths = self._lengths()
        if self.source == "diurnal":
            spike_rate = (
                self.spike_rate_rps
                if self.spike_rate_rps is not None
                else 2.0 * self.rate_rps
            )
            return DiurnalTrace(
                rate_rps=self.rate_rps,
                duration_s=self.duration_s,
                amplitude=self.amplitude,
                period_s=self.period_s,
                phase_s=self.phase_s,
                spikes=tuple(
                    (start, self.spike_duration_s, spike_rate)
                    for start in self.spike_starts_s
                ),
                lengths=lengths,
                priority_levels=self.priority_levels,
            )
        if self.source == "bursty":
            burst = (
                self.burst_rate_rps
                if self.burst_rate_rps is not None
                else 4.0 * self.rate_rps
            )
            return BurstyTrace(
                base_rate_rps=self.rate_rps,
                burst_rate_rps=burst,
                duration_s=self.duration_s,
                mean_base_s=self.mean_base_s,
                mean_burst_s=self.mean_burst_s,
                lengths=lengths,
                priority_levels=self.priority_levels,
            )
        if self.source == "closed":
            return ClosedLoopTrace(
                clients=self.clients,
                requests_per_client=self.requests_per_client,
                mean_think_s=self.mean_think_s,
                lengths=lengths,
                priority_levels=self.priority_levels,
            )
        return PoissonTrace(
            rate_rps=self.rate_rps,
            duration_s=self.duration_s,
            lengths=lengths,
            priority_levels=self.priority_levels,
        )


@register
@dataclass(frozen=True)
class ServingSpec(SpecBase):
    """One ``Session.serve`` invocation as data.

    ``platform_from`` names an earlier tune stage; the simulation then
    runs on that stage's best feasible design (platform and strategy).
    """

    kind = "serve"

    model: ModelSpec = ModelSpec()
    trace: TraceSpec = TraceSpec()
    policy: str = "fifo"
    strategy: str = "paper"
    platform: PlatformSpec = PlatformSpec()
    platform_from: Optional[str] = None
    seed: int = 0
    max_context: int = 1024
    slo_targets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.slo_targets is not None:
            object.__setattr__(self, "slo_targets", tuple(self.slo_targets))
            _check_slo_targets(self)
        if self.max_context <= 0:
            raise SpecError(
                f"max_context must be positive, got {self.max_context}"
            )

    def validate(self, path: str = "$") -> None:
        from ..serving.policies import get_policy

        self.model.validate(f"{path}.model")
        self.trace.validate(f"{path}.trace")
        self.platform.validate(f"{path}.platform")
        _check_strategy(self.strategy, f"{path}.strategy")
        try:
            get_policy(self.policy)
        except ReproError as error:
            raise _wrap(f"{path}.policy", error) from None


# ----------------------------------------------------------------------
# Fleet specs
# ----------------------------------------------------------------------
def _default_platforms() -> Tuple["FleetPlatform", ...]:
    """One default platform entry (imports :mod:`repro.fleet` on first use)."""
    from ..fleet import FleetPlatform

    return (FleetPlatform(),)


@register
@dataclass(frozen=True)
class FleetSpec(SpecBase):
    """One ``Session.serve_fleet`` invocation as data.

    ``platform_from`` names an earlier tune stage of the enclosing study;
    every replica of the fleet then runs that stage's best feasible
    design (platform and strategy), and the per-entry presets only
    contribute replica counts and roles.
    """

    kind = "fleet"

    model: ModelSpec = ModelSpec()
    trace: TraceSpec = TraceSpec()
    platforms: Tuple[FleetPlatform, ...] = field(default_factory=_default_platforms)
    router: str = "round_robin"
    policy: str = "fifo"
    strategy: str = "paper"
    classes: Tuple[SLOClass, ...] = ()
    autoscaler: Optional[AutoscalerConfig] = None
    faults: Optional[FaultModel] = None
    retry: Optional[RetryPolicy] = None
    platform_from: Optional[str] = None
    seed: int = 0
    max_context: int = 1024
    slo_targets: Optional[Tuple[float, ...]] = None
    record_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "platforms", tuple(self.platforms))
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.slo_targets is not None:
            object.__setattr__(self, "slo_targets", tuple(self.slo_targets))
            _check_slo_targets(self)
        if not self.platforms:
            raise SpecError("a fleet needs at least one platform entry")
        if self.trace.source == "closed":
            raise SpecError(
                "a fleet needs an open-loop trace (poisson, bursty, diurnal, "
                "replay); closed-loop arrivals depend on completions"
            )
        if self.max_context <= 0:
            raise SpecError(
                f"max_context must be positive, got {self.max_context}"
            )
        if self.record_threshold is not None and self.record_threshold < 1:
            raise SpecError(
                f"record_threshold must be at least 1, got "
                f"{self.record_threshold}"
            )
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise SpecError(
                "SLO class names must be unique, got " + ", ".join(names)
            )
        if self.faults is not None:
            static = sum(platform.replicas for platform in self.platforms)
            self.faults.validate_replicas(static)

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "FleetSpec":
        # Importing repro.fleet registers the kinds the fields name.
        from .. import fleet  # noqa: F401

        return super().from_dict(data, path)

    def validate(self, path: str = "$") -> None:
        from ..fleet import get_router
        from ..serving.policies import get_policy

        self.model.validate(f"{path}.model")
        self.trace.validate(f"{path}.trace")
        for index, platform in enumerate(self.platforms):
            platform.validate(f"{path}.platforms[{index}]")
        if self.autoscaler is not None:
            self.autoscaler.validate(f"{path}.autoscaler")
        _check_strategy(self.strategy, f"{path}.strategy")
        try:
            get_router(self.router)
        except ReproError as error:
            raise _wrap(f"{path}.router", error) from None
        try:
            get_policy(self.policy)
        except ReproError as error:
            raise _wrap(f"{path}.policy", error) from None


# ----------------------------------------------------------------------
# DSE specs
# ----------------------------------------------------------------------
@register
@dataclass(frozen=True)
class AxisSpec(SpecBase):
    """One search-space axis: categorical choice, int grid, or float range."""

    kind = "axis"

    axis: str = "choice"
    name: str = ""
    choices: Optional[Tuple[Union[bool, int, float, str], ...]] = None
    low: Optional[float] = None
    high: Optional[float] = None
    step: int = 1
    levels: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("an axis needs a non-empty name")
        if self.axis == "choice":
            if self.choices is None:
                raise SpecError(
                    f"choice axis {self.name!r} needs a 'choices' list"
                )
            object.__setattr__(self, "choices", tuple(self.choices))
            if (
                self.low is not None
                or self.high is not None
                or self.levels is not None
            ):
                raise SpecError(
                    f"choice axis {self.name!r} takes only 'choices'"
                )
        elif self.axis == "int":
            if self.low is None or self.high is None:
                raise SpecError(f"int axis {self.name!r} needs 'low' and 'high'")
            object.__setattr__(self, "low", int(self.low))
            object.__setattr__(self, "high", int(self.high))
            if self.choices is not None or self.levels is not None:
                raise SpecError(
                    f"int axis {self.name!r} takes 'low'/'high'/'step' only"
                )
        elif self.axis == "float":
            if self.low is None or self.high is None:
                raise SpecError(
                    f"float axis {self.name!r} needs 'low' and 'high'"
                )
            object.__setattr__(self, "low", float(self.low))
            object.__setattr__(self, "high", float(self.high))
            if self.levels is not None:
                object.__setattr__(
                    self, "levels", tuple(float(level) for level in self.levels)
                )
            require_finite(
                f"float axis {self.name!r}: ", self, ("low", "high", "levels")
            )
            if self.choices is not None:
                raise SpecError(
                    f"float axis {self.name!r} takes 'low'/'high'/'levels' only"
                )
        else:
            raise SpecError(
                f"unknown axis type {self.axis!r}; choose choice, int, or float"
            )

    def validate(self, path: str = "$") -> None:
        try:
            self.build()
        except ReproError as error:
            raise _wrap(path, error) from None

    def build(self):
        """Build the concrete :mod:`repro.dse.space` axis."""
        from ..dse.space import ChoiceAxis, FloatAxis, IntAxis

        if self.axis == "choice":
            assert self.choices is not None
            return ChoiceAxis(self.name, self.choices)
        if self.axis == "int":
            return IntAxis(
                self.name, int(self.low), int(self.high), step=self.step  # type: ignore[arg-type]
            )
        assert self.low is not None and self.high is not None
        return FloatAxis(self.name, self.low, self.high, levels=self.levels)

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "AxisSpec":
        if isinstance(data, Mapping) and data.get("axis") == "int":
            # The bounds of an int axis are integers, not the float the
            # field's annotation admits for the other axis kinds.
            for bound in ("low", "high"):
                decode_value(Optional[int], data.get(bound), f"{path}.{bound}")
        return super().from_dict(data, path)


@register
@dataclass(frozen=True)
class SpaceSpec(SpecBase):
    """An ordered set of axes — the serialisable form of a search space."""

    kind = "space"

    axes: Tuple[AxisSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise SpecError("a space needs at least one axis")

    def validate(self, path: str = "$") -> None:
        """Check the axes, and every value a design axis can take.

        A value of a platform axis or of ``strategy`` that
        :func:`~repro.dse.space.materialise` rejects (a non-positive chip
        count, an unknown strategy, ...) can never run, so it fails here
        with its path.  Model axes depend on the tuned workload and are
        checked when the search materialises them.
        """
        from ..dse.space import KNOWN_AXES, MODEL_AXES, FloatAxis, IntAxis, materialise

        try:
            space = self.build()
        except ReproError as error:
            raise _wrap(path, error) from None
        for index, axis in enumerate(space.axes):
            if axis.name not in KNOWN_AXES or axis.name in MODEL_AXES:
                continue
            if isinstance(axis, IntAxis) or (
                isinstance(axis, FloatAxis) and axis.levels is None
            ):
                values = (("low", axis.low), ("high", axis.high))
            else:
                name = "levels" if isinstance(axis, FloatAxis) else "choices"
                values = tuple(
                    (f"{name}[{position}]", value)
                    for position, value in enumerate(axis.values())
                )
            for where, value in values:
                try:
                    materialise({axis.name: value})
                except ReproError as error:
                    raise _wrap(f"{path}.axes[{index}].{where}", error) from None

    def build(self):
        """Build the concrete :class:`~repro.dse.space.SearchSpace`."""
        from ..dse.space import SearchSpace

        return SearchSpace(axes=tuple(axis.build() for axis in self.axes))


@register
@dataclass(frozen=True)
class TuneSpec(SpecBase):
    """One ``Session.tune`` invocation as data.

    ``chips_from`` names an earlier *sweep* stage of the enclosing study;
    the search space's ``chips`` axis is then pinned to the fastest chip
    count that sweep measured.
    """

    kind = "tune"

    workload: WorkloadSpec = WorkloadSpec()
    space: Optional[SpaceSpec] = None
    searcher: str = "random"
    budget: int = 24
    seed: int = 0
    objectives: Tuple[str, ...] = ("latency", "energy")
    constraints: Tuple[str, ...] = ()
    serving: Optional[ServingScenario] = None
    chips_from: Optional[str] = None
    prefetch: str = "hidden"
    parallel: Optional[int] = None
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.budget <= 0:
            raise SpecError(f"budget must be positive, got {self.budget}")
        if not self.objectives:
            raise SpecError("tune needs at least one objective")
        if self.parallel is not None and self.parallel < 1:
            raise SpecError(
                f"parallel worker count must be >= 1, got {self.parallel}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise SpecError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        _prefetch_value(self.prefetch)

    def validate(self, path: str = "$") -> None:
        from ..dse.objectives import get_objective
        from ..dse.pareto import parse_constraint
        from ..dse.searchers import get_searcher

        self.workload.validate(f"{path}.workload")
        if self.space is not None:
            self.space.validate(f"{path}.space")
        if self.serving is not None:
            self.serving.validate(f"{path}.serving")
        try:
            get_searcher(self.searcher)
        except ReproError as error:
            raise _wrap(f"{path}.searcher", error) from None
        for index, name in enumerate(self.objectives):
            try:
                get_objective(name)
            except ReproError as error:
                raise _wrap(f"{path}.objectives[{index}]", error) from None
        for index, expr in enumerate(self.constraints):
            try:
                constraint = parse_constraint(expr)
                get_objective(constraint.objective)
            except ReproError as error:
                raise _wrap(f"{path}.constraints[{index}]", error) from None


@register
@dataclass(frozen=True)
class SearchStateSpec(SpecBase):
    """A tuning run's checkpoint document (``repro tune --checkpoint``).

    The serialised form of :class:`repro.dse.orchestrator.SearchState`:
    the search's identity fields (used as a resume fingerprint), the
    budget spent, the searcher RNG state, every evaluated candidate in
    evaluation order, and the incumbent front as indices into the
    candidate list.  All fields are required, so a checkpoint document
    always carries the whole state.  This spec is *not* runnable — it is
    consumed by ``repro tune --resume`` and Study-stage resume.
    """

    kind = "search_state"

    searcher: str
    seed: int
    budget: int
    workload: str
    axes: Tuple[str, ...]
    space_size: Optional[int]
    objectives: Tuple[str, ...]
    constraints: Tuple[str, ...]
    evaluations_requested: int
    rng_state: Any
    candidates: Tuple[Mapping[str, Any], ...]
    front: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "front", tuple(self.front))
        if self.evaluations_requested < 0:
            raise SpecError(
                "evaluations_requested must be >= 0, got "
                f"{self.evaluations_requested}"
            )
        for index in self.front:
            if not 0 <= index < len(self.candidates):
                raise SpecError(
                    f"front index {index} outside the candidate list "
                    f"(length {len(self.candidates)})"
                )

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "SearchStateSpec":
        candidates = data.get("candidates") if isinstance(data, Mapping) else None
        if isinstance(candidates, (list, tuple)):
            for index, item in enumerate(candidates):
                if not isinstance(item, Mapping) or "point" not in item:
                    raise spec_error(
                        f"{path}.candidates[{index}]",
                        "expected a serialised candidate mapping with a 'point'",
                    )
        return super().from_dict(data, path)


#: The six spec kinds :func:`repro.spec.execute` (and so a study stage) can run.
RunnableSpec = Union[
    EvalSpec, SweepSpec, CompareSpec, ServingSpec, FleetSpec, TuneSpec
]

#: Kind tag -> runnable spec class.
RUNNABLE_KINDS: Dict[str, Type[SpecBase]] = {
    EvalSpec.kind: EvalSpec,
    SweepSpec.kind: SweepSpec,
    CompareSpec.kind: CompareSpec,
    ServingSpec.kind: ServingSpec,
    FleetSpec.kind: FleetSpec,
    TuneSpec.kind: TuneSpec,
}

#: Which stage kind each reference field must point at.
_REFERENCES = (
    ("platform_from", "tune"),
    ("chips_from", "sweep"),
)

_STAGE_NAME = re.compile(r"^[a-z0-9][a-z0-9_\-]*$")


# ----------------------------------------------------------------------
# Studies
# ----------------------------------------------------------------------
@register
@dataclass(frozen=True)
class StageSpec(SpecBase):
    """One named stage of a study: a runnable spec plus its artifact name.

    Both fields are required (no defaults), so the serialised form always
    carries them — a stage without a spec is meaningless.
    """

    kind = "stage"

    name: str
    spec: RunnableSpec

    def __post_init__(self) -> None:
        if not _STAGE_NAME.match(self.name):
            raise SpecError(
                f"invalid stage name {self.name!r}; use lowercase letters, "
                "digits, '-' and '_' (the name becomes the artifact filename)"
            )
        if self.name == "study":
            raise SpecError(
                "stage name 'study' is reserved: its artifact would collide "
                "with the study.json manifest"
            )
        if type(self.spec) not in RUNNABLE_KINDS.values():
            raise SpecError(
                f"stage {self.name!r} holds a non-runnable spec "
                f"{type(self.spec).__name__}; runnable kinds: "
                + ", ".join(sorted(RUNNABLE_KINDS))
            )


@register
@dataclass(frozen=True)
class StudySpec(SpecBase):
    """A named pipeline of runnable stages — a whole experiment as data.

    Stages execute in order through one shared session; later stages may
    reference earlier ones by name (``platform_from`` a tune stage,
    ``chips_from`` a sweep stage).  :meth:`validate` checks every
    registry name and reference without running anything — the contract
    behind ``repro study validate``.
    """

    kind = "study"

    name: str = ""
    description: str = ""
    stages: Tuple[StageSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not _STAGE_NAME.match(self.name):
            raise SpecError(
                f"invalid study name {self.name!r}; use lowercase letters, "
                "digits, '-' and '_'"
            )
        if not self.stages:
            raise SpecError("a study needs at least one stage")
        seen = set()
        for stage in self.stages:
            if stage.name in seen:
                raise SpecError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        """Stage names, in execution order."""
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> StageSpec:
        """Look one stage up by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise SpecError(
            f"study {self.name!r} has no stage {name!r}; stages: "
            + ", ".join(self.stage_names)
        )

    def validate(self, path: str = "$") -> None:
        """Resolve every name and reference without executing anything."""
        completed: Dict[str, str] = {}
        for index, stage in enumerate(self.stages):
            stage_path = f"{path}.stages[{index}]"
            stage.spec.validate(f"{stage_path}.spec")  # type: ignore[union-attr]
            for ref_field, wanted_kind in _REFERENCES:
                target = getattr(stage.spec, ref_field, None)
                if target is None:
                    continue
                ref_path = f"{stage_path}.spec.{ref_field}"
                if target not in completed:
                    raise spec_error(
                        ref_path,
                        f"references stage {target!r}, which is not an "
                        "earlier stage of this study",
                    )
                if completed[target] != wanted_kind:
                    raise spec_error(
                        ref_path,
                        f"references stage {target!r} of kind "
                        f"{completed[target]!r}; {ref_field} needs a "
                        f"{wanted_kind} stage",
                    )
            completed[stage.name] = stage.spec.kind
        return None


# ----------------------------------------------------------------------
# Top-level entry points
# ----------------------------------------------------------------------
def spec_from_dict(data: Any, path: str = "$") -> SpecBase:
    """Decode any spec mapping by its ``kind`` tag."""
    if not isinstance(data, Mapping):
        raise spec_error(path, f"expected a spec mapping, got {type(data).__name__}")
    kind = data.get("kind")
    if kind is None:
        raise spec_error(path, "missing the 'kind' tag")
    if isinstance(kind, str) and kind not in _KINDS:
        # Architecture and fleet specs live in repro.arch and repro.fleet
        # (which register their kinds on import); load them lazily so
        # documents decode without callers importing the packages first.
        from .. import arch, fleet  # noqa: F401
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise spec_error(
            f"{path}.kind",
            f"unknown spec kind {kind!r}; known kinds: "
            + ", ".join(sorted(_KINDS)),
        )
    return cls.from_dict(data, path)


def loads(text: str, path: str = "$") -> SpecBase:
    """Parse a JSON document into the spec it describes."""
    import json as _json

    try:
        data = _json.loads(text)
    except ValueError as error:
        raise spec_error(path, f"invalid JSON: {error}") from None
    return spec_from_dict(data, path)


def load_spec(path: Union[str, "object"]) -> SpecBase:
    """Read one spec document from a JSON file."""
    from pathlib import Path

    file_path = Path(str(path))
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as error:
        raise SpecError(f"cannot read spec file {file_path}: {error}") from None
    return loads(text, path=str(file_path))
