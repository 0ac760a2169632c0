"""Evaluation, metrics, sweeps, and plain-text figure rendering."""

from .evaluate import BlockReport, evaluate_block
from .export import sweep_to_csv, write_sweep
from .figures import (
    HeadlineMetric,
    dse_matrix,
    headline_metrics,
    max_sustainable_rate,
    render_dse,
    render_fig4,
    render_fig5,
    render_fig6,
    render_headline,
    render_serving,
    render_table1,
    serving_matrix,
)
from .generation import GenerationReport, GenerationStep, evaluate_generation
from .metrics import (
    ScalingPoint,
    edp_improvement,
    energy_ratio,
    is_super_linear,
    parallel_efficiency,
    scaling_points,
    speedup,
)
from .tables import (
    comparison_table,
    energy_runtime_table,
    format_table,
    runtime_breakdown_table,
    scaling_table,
)

__all__ = [
    "BlockReport",
    "GenerationReport",
    "GenerationStep",
    "HeadlineMetric",
    "ScalingPoint",
    "comparison_table",
    "dse_matrix",
    "edp_improvement",
    "energy_ratio",
    "energy_runtime_table",
    "evaluate_block",
    "evaluate_generation",
    "format_table",
    "headline_metrics",
    "is_super_linear",
    "max_sustainable_rate",
    "parallel_efficiency",
    "render_dse",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_headline",
    "render_serving",
    "render_table1",
    "runtime_breakdown_table",
    "scaling_points",
    "scaling_table",
    "serving_matrix",
    "speedup",
    "sweep_to_csv",
    "write_sweep",
]
