"""Evaluation, metrics, sweeps, and plain-text figure rendering."""

from .evaluate import BlockReport, evaluate_block
from .export import (
    comparison_to_json,
    eval_result_to_dict,
    eval_sweep_to_json,
    fleet_report_to_dict,
    fleet_report_to_json,
    report_to_dict,
    search_state_to_dict,
    search_state_to_json,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_records,
    write_sweep,
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
    "ScalingPoint",
    "comparison_table",
    "comparison_to_json",
    "eval_result_to_dict",
    "eval_sweep_to_json",
    "edp_improvement",
    "energy_ratio",
    "energy_runtime_table",
    "evaluate_block",
    "evaluate_generation",
    "fleet_report_to_dict",
    "fleet_report_to_json",
    "format_table",
    "is_super_linear",
    "parallel_efficiency",
    "report_to_dict",
    "runtime_breakdown_table",
    "scaling_points",
    "search_state_to_dict",
    "search_state_to_json",
    "scaling_table",
    "speedup",
    "sweep_to_csv",
    "sweep_to_json",
    "sweep_to_records",
    "write_sweep",
]
