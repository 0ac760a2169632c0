"""repro: distributed Transformer inference on low-power MCUs.

A reproduction of "Distributed Inference with Minimal Off-Chip Traffic for
Transformers on Low-Power MCUs" (DATE 2025): a tensor-parallel partitioning
scheme that scatters Transformer weights across a network of Siracusa-like
MCUs with no replication and only two synchronisations per block, a
multi-chip block simulator, the paper's analytical energy model, and
one shipped study per figure and table of the paper's evaluation
(``repro experiments`` regenerates them).

The front door is :class:`repro.api.Session`, which evaluates any
registered partitioning strategy — the paper's scheme (``"paper"``) or any
Table I baseline (``"single_chip"``, ``"weight_replicated"``,
``"pipeline_parallel"``, ``"tensor_parallel"``) — and memoises repeated
evaluations::

    from repro import Session, autoregressive, tinyllama_42m

    session = Session()
    workload = autoregressive(tinyllama_42m(), context_len=128)

    result = session.run(workload, strategy="paper", chips=8)
    print(result.summary())

    sweep = session.sweep(workload, chips=(1, 2, 4, 8))     # Fig. 4-style
    table = session.compare(workload, chips=8)              # Table-I-style
    print(table.render())

New partitioning ideas plug in through the strategy registry (see
``docs/API.md``)::

    from repro import register_strategy

    @register_strategy
    class MyStrategy: ...

Every evaluation returns one result schema, :class:`EvalResult`; sweeps
and comparisons collect them into :class:`EvalSweep` and
:class:`Comparison`.  :func:`evaluate_block` is the engine behind the
``"paper"`` strategy, returning the full simulator :class:`BlockReport`.
"""

from .analysis import (
    BlockReport,
    GenerationReport,
    ScalingPoint,
    evaluate_block,
    evaluate_generation,
    scaling_points,
    speedup,
)
from .api import (
    Comparison,
    EvalOptions,
    EvalResult,
    EvalSweep,
    PartitionStrategy,
    Session,
    get_strategy,
    list_strategies,
    register_strategy,
)
from .core import (
    BlockPartition,
    BlockProgram,
    BlockScheduler,
    ChipPartition,
    MemoryPlan,
    PrefetchAccounting,
    WeightResidency,
    chip_footprint,
    partition_block,
    plan_memory,
)
from .dse import (
    ChoiceAxis,
    Constraint,
    FloatAxis,
    IntAxis,
    SearchSpace,
    ServingScenario,
    TuneResult,
    default_space,
    list_objectives,
    list_searchers,
    pareto_front,
    register_objective,
    register_searcher,
)
from .energy import EnergyBreakdown, EnergyModel, EnergyReport, energy_of
from .graph import (
    FfnKind,
    InferenceMode,
    TransformerConfig,
    Workload,
    autoregressive,
    encoder,
    prompt,
)
from .hw import (
    ChipModel,
    ChipToChipLink,
    ClusterModel,
    MultiChipPlatform,
    PlatformPreset,
    get_platform_preset,
    list_platform_presets,
    mipi_link,
    register_platform_preset,
    siracusa_chip,
    siracusa_platform,
    siracusa_variant,
)
from .kernels import KernelLibrary, MatmulEfficiencyModel
from .models import (
    get_model,
    list_models,
    mobilebert,
    tinyllama_42m,
    tinyllama_gated,
    tinyllama_scaled,
)
from .sim import SimulationResult, simulate_block
from .spec import (
    CompareSpec,
    EvalSpec,
    ModelSpec,
    PlatformSpec,
    ServingSpec,
    SpaceSpec,
    StageSpec,
    StudySpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    WorkloadSpec,
    load_spec,
)
from .api.study import Study, StudyResult


# The single source of truth for the package version: pyproject.toml
# reads it back via `[tool.setuptools.dynamic]`, so installed metadata
# and in-place (PYTHONPATH=src) checkouts can never disagree.
__version__ = "1.4.0"

__all__ = [
    "CompareSpec",
    "EvalSpec",
    "ModelSpec",
    "PlatformSpec",
    "ServingSpec",
    "SpaceSpec",
    "StageSpec",
    "Study",
    "StudyResult",
    "StudySpec",
    "SweepSpec",
    "TraceSpec",
    "TuneSpec",
    "WorkloadSpec",
    "load_spec",
    "BlockPartition",
    "BlockProgram",
    "BlockReport",
    "BlockScheduler",
    "ChipModel",
    "ChipPartition",
    "ChipToChipLink",
    "ChoiceAxis",
    "ClusterModel",
    "Comparison",
    "Constraint",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyReport",
    "EvalOptions",
    "EvalResult",
    "EvalSweep",
    "FfnKind",
    "FloatAxis",
    "GenerationReport",
    "InferenceMode",
    "IntAxis",
    "KernelLibrary",
    "MatmulEfficiencyModel",
    "MemoryPlan",
    "MultiChipPlatform",
    "PartitionStrategy",
    "PlatformPreset",
    "PrefetchAccounting",
    "ScalingPoint",
    "SearchSpace",
    "ServingScenario",
    "Session",
    "SimulationResult",
    "TransformerConfig",
    "TuneResult",
    "WeightResidency",
    "Workload",
    "autoregressive",
    "chip_footprint",
    "default_space",
    "encoder",
    "energy_of",
    "evaluate_block",
    "evaluate_generation",
    "get_model",
    "get_platform_preset",
    "get_strategy",
    "list_models",
    "list_objectives",
    "list_platform_presets",
    "list_searchers",
    "list_strategies",
    "mipi_link",
    "mobilebert",
    "pareto_front",
    "partition_block",
    "plan_memory",
    "prompt",
    "register_objective",
    "register_platform_preset",
    "register_searcher",
    "register_strategy",
    "scaling_points",
    "simulate_block",
    "siracusa_chip",
    "siracusa_platform",
    "siracusa_variant",
    "speedup",
    "tinyllama_42m",
    "tinyllama_gated",
    "tinyllama_scaled",
    "__version__",
]
