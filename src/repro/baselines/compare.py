"""Rendering of the partitioning-approach comparison (Table I ablation).

The paper's Table I is a qualitative comparison of prior work.
:meth:`repro.api.Session.compare` backs it with a quantitative ablation in
which every approach runs on the same Siracusa-like platform, the same
workload, and the same cost models, so the differences come only from the
partitioning strategy; this module renders its :class:`EvalResult` rows
next to the published table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.tables import format_table
from ..api.result import EvalResult
from ..units import format_bytes, format_energy


def comparison_rows(results: Sequence[EvalResult]) -> List[List[str]]:
    """Render comparison results as table rows (one per approach).

    Speedups are relative to the first result.
    """
    baseline = results[0]
    rows: List[List[str]] = []
    for result in results:
        rows.append(
            [
                result.approach,
                str(result.num_chips),
                "yes" if result.weights_replicated else "no",
                "yes" if result.uses_pipelining else "no",
                str(result.synchronisations_per_block),
                format_bytes(result.weight_bytes_per_chip),
                f"{result.block_cycles:,.0f}",
                f"{result.speedup_over(baseline):.2f}x",
                format_energy(result.block_energy_joules),
                format_bytes(result.l3_bytes_per_block),
            ]
        )
    return rows


def render_comparison(results: Sequence[EvalResult]) -> str:
    """Plain-text Table-I-style comparison with measured columns."""
    headers = [
        "Approach",
        "Chips",
        "Weight dup.",
        "Pipelining",
        "Syncs/block",
        "Weights/chip",
        "Cycles/block",
        "Speedup",
        "Energy/block",
        "L3/block",
    ]
    return format_table(headers, comparison_rows(results))


def qualitative_table() -> Dict[str, Dict[str, str]]:
    """The literal content of the paper's Table I (qualitative comparison)."""
    return {
        "DeepThings [20]": {
            "Model": "CNN",
            "Scale": "Low-Power",
            "Platform": "Raspberry Pi",
            "Pipelining": "No",
            "Weight Duplication": "Yes",
        },
        "Efficiently Scaling Transformer Inference [13]": {
            "Model": "Transformer",
            "Scale": "Datacenter",
            "Platform": "TPU",
            "Pipelining": "No",
            "Weight Duplication": "No",
        },
        "DeepSpeed Inference [12]": {
            "Model": "Transformer",
            "Scale": "Datacenter",
            "Platform": "GPU",
            "Pipelining": "Yes",
            "Weight Duplication": "No",
        },
        "When the Edge Meets Transformers [21]": {
            "Model": "Transformer",
            "Scale": "Low-Power",
            "Platform": "CPU",
            "Pipelining": "No",
            "Weight Duplication": "Yes",
        },
        "Hermes [22]": {
            "Model": "Transformer",
            "Scale": "Low-Power",
            "Platform": "CPU",
            "Pipelining": "Yes",
            "Weight Duplication": "No",
        },
        "Ours": {
            "Model": "Transformer",
            "Scale": "Extreme Edge",
            "Platform": "Siracusa (MCU)",
            "Pipelining": "No",
            "Weight Duplication": "No",
        },
    }
