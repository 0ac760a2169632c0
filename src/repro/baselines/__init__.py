"""Baseline partitioning approaches used for the Table I ablation."""

from .compare import comparison_rows, qualitative_table, render_comparison
from .pipeline_parallel import evaluate_pipeline_parallel
from .weight_replicated import evaluate_weight_replicated

__all__ = [
    "comparison_rows",
    "evaluate_pipeline_parallel",
    "evaluate_weight_replicated",
    "qualitative_table",
    "render_comparison",
]
