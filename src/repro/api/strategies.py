"""Built-in partitioning strategies.

Five strategies ship with the library, covering the paper's scheme and
every Table I baseline behind the single :class:`~repro.api.registry.
PartitionStrategy` interface:

``paper``
    The paper's tensor-parallel scheme run through the full pipeline
    (partition → schedule → block simulation → energy model).  The
    returned :class:`~repro.api.EvalResult` carries the complete
    :class:`~repro.analysis.evaluate.BlockReport` and honours every
    :class:`~repro.api.EvalOptions` knob.

``single_chip``
    One chip of the platform executes the whole block (the reference every
    speedup is normalised to).  Simulator-backed, report attached.

``weight_replicated``
    Sequence parallelism with a full weight copy per chip (the "edge meets
    Transformers" family the paper criticises).

``pipeline_parallel``
    Layer-wise pipelining (the PipeEdge / Hermes family).

``tensor_parallel``
    The paper's scheme wrapped as a Table-I comparison entry — identical
    cycles and energy to ``paper`` under default options, presented with
    the ablation's metadata.  Simulator-backed, report attached.

The simulator-backed strategies also take one workload on many platforms
(``evaluate_many``, through :func:`repro.analysis.evaluate.evaluate_blocks`,
which builds each program structure once); their ``evaluate`` is its
one-platform case.  The analytical ones return the :class:`EvalResult`
their :mod:`repro.baselines` cost model builds.  Every number is pinned by
``tests/data/paper_golden.json``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..analysis.evaluate import evaluate_blocks
from ..baselines.pipeline_parallel import evaluate_pipeline_parallel
from ..baselines.weight_replicated import evaluate_weight_replicated
from ..errors import ReproError, value_or_raise
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform
from .registry import EvalOptions, register_strategy
from .result import EvalResult

#: Registry names of the Table I ablation, in the table's row order.
BASELINE_STRATEGIES = (
    "single_chip",
    "weight_replicated",
    "pipeline_parallel",
    "tensor_parallel",
)

#: Registry name of the paper's simulator-backed scheme.
PAPER_STRATEGY = "paper"


class _SimulatedStrategy:
    """A strategy the block simulator prices, many platforms per call."""

    notes = "head-split MHSA, F-split FFN, hierarchical all-reduce"
    #: Synchronisations per block (``None``: derived from the chip count).
    synchronisations: Optional[int] = None

    def evaluate(
        self,
        workload: Workload,
        platform: MultiChipPlatform,
        options: EvalOptions,
    ) -> EvalResult:
        return value_or_raise(self.evaluate_many(workload, (platform,), options)[0])

    def evaluate_many(
        self,
        workload: Workload,
        platforms: Sequence[MultiChipPlatform],
        options: EvalOptions,
    ) -> List[Union[EvalResult, ReproError]]:
        """One result per platform, or the error ``evaluate`` would raise."""
        reports = evaluate_blocks(
            workload,
            [self.engine_platform(platform) for platform in platforms],
            **self.engine_options(options),
        )
        return [
            report
            if isinstance(report, ReproError)
            else EvalResult.from_block_report(
                report,
                strategy=self.name,
                approach=self.label,
                synchronisations_per_block=self.synchronisations,
                notes=self.notes,
            )
            for report in reports
        ]

    def engine_platform(self, platform: MultiChipPlatform) -> MultiChipPlatform:
        """The platform the block runs on."""
        return platform

    def engine_options(self, options: EvalOptions) -> dict:
        """Keyword arguments of :func:`evaluate_blocks`: its defaults."""
        return {}


@register_strategy
class PaperStrategy(_SimulatedStrategy):
    """The paper's tensor-parallel scheme through the full simulator."""

    name = PAPER_STRATEGY
    aliases = ("ours",)
    label = "Ours (tensor parallel, scattered weights)"

    def engine_options(self, options: EvalOptions) -> dict:
        return {
            "kernel_library": options.kernel_library,
            "prefetch_accounting": options.prefetch_accounting,
            "record_events": options.record_events,
            "energy": options.energy,
        }


@register_strategy
class SingleChipStrategy(_SimulatedStrategy):
    """Whole block on one chip of the platform."""

    name = "single_chip"
    label = "Single chip"
    notes = "all weights and traffic on one chip"
    synchronisations = 0

    def engine_platform(self, platform: MultiChipPlatform) -> MultiChipPlatform:
        return platform.with_num_chips(1)


@register_strategy
class WeightReplicatedStrategy:
    """Sequence parallelism with a full weight copy per chip."""

    name = "weight_replicated"
    aliases = ("sequence_parallel",)
    label = "Sequence parallel, replicated weights"

    def evaluate(
        self,
        workload: Workload,
        platform: MultiChipPlatform,
        options: EvalOptions,
    ) -> EvalResult:
        return evaluate_weight_replicated(workload, platform)


@register_strategy
class PipelineParallelStrategy:
    """Layer-wise pipelining across the chips."""

    name = "pipeline_parallel"
    label = "Pipeline parallel (layer split)"

    def evaluate(
        self,
        workload: Workload,
        platform: MultiChipPlatform,
        options: EvalOptions,
    ) -> EvalResult:
        return evaluate_pipeline_parallel(workload, platform)


@register_strategy
class TensorParallelStrategy(_SimulatedStrategy):
    """The paper's scheme presented as a Table-I comparison entry.

    Default options: the Table I entry ignores the session's knobs.
    """

    name = "tensor_parallel"
    label = "Ours (tensor parallel, scattered weights)"
