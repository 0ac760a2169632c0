"""Plain-text renderers for the paper's figures and tables.

The benchmark harness prints the same rows and series the paper plots, so
the shapes can be compared by eye (and asserted programmatically in the
test suite) without any plotting dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from ..core.schedule import RuntimeCategory
from ..units import format_bytes, format_energy, format_time
from .metrics import ScalingPoint

if TYPE_CHECKING:  # pragma: no cover - repro.api imports this package
    from ..api.session import EvalSweep

_BREAKDOWN_ORDER = (
    RuntimeCategory.COMPUTE,
    RuntimeCategory.DMA_L3_L2,
    RuntimeCategory.DMA_L2_L1,
    RuntimeCategory.CHIP_TO_CHIP,
    RuntimeCategory.IDLE,
)

_BREAKDOWN_LABELS = {
    RuntimeCategory.COMPUTE: "Computation",
    RuntimeCategory.DMA_L3_L2: "DMA L3<->L2",
    RuntimeCategory.DMA_L2_L1: "DMA L2<->L1",
    RuntimeCategory.CHIP_TO_CHIP: "Chip-to-Chip",
    RuntimeCategory.IDLE: "Idle",
}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a simple fixed-width text table."""
    columns = len(headers)
    widths = [len(header) for header in headers]
    for row in rows:
        if len(row) != columns:
            raise ValueError("all rows must have the same number of columns")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def runtime_breakdown_table(sweep: "EvalSweep") -> str:
    """Fig. 4-style table: runtime breakdown and speedup per chip count.

    Needs a simulator-backed sweep (every result carries its report).
    """
    headers = ["Chips", "Cycles"] + [
        _BREAKDOWN_LABELS[category] for category in _BREAKDOWN_ORDER
    ] + ["Speedup", "Linear", "On-chip"]
    speedups = sweep.speedups()
    rows: List[List[str]] = []
    for result in sweep.results:
        breakdown = result.runtime_breakdown()
        row = [str(result.num_chips), f"{result.block_cycles:,.0f}"]
        row.extend(
            f"{breakdown.get(category, 0.0):,.0f}" for category in _BREAKDOWN_ORDER
        )
        row.append(f"{speedups[result.num_chips]:.2f}x")
        row.append(f"{result.num_chips:.2f}x")
        row.append("yes" if result.runs_from_on_chip_memory else "no")
        rows.append(row)
    return format_table(headers, rows)


def energy_runtime_table(sweep: "EvalSweep") -> str:
    """Fig. 5-style table: runtime vs. energy per chip count.

    Needs a simulator-backed sweep (every result measures its C2C traffic).
    """
    headers = [
        "Chips",
        "Cycles",
        "Runtime",
        "Energy/block",
        "EDP (uJ*s)",
        "L3 traffic",
        "C2C traffic",
    ]
    rows: List[List[str]] = []
    for result in sweep.results:
        rows.append(
            [
                str(result.num_chips),
                f"{result.block_cycles:,.0f}",
                format_time(result.block_runtime_seconds),
                format_energy(result.block_energy_joules),
                f"{result.energy_delay_product * 1e6:.3f}",
                format_bytes(result.l3_bytes_per_block),
                format_bytes(result.c2c_bytes_per_block),
            ]
        )
    return format_table(headers, rows)


def scaling_table(points: Sequence[ScalingPoint], title: str = "") -> str:
    """Fig. 6-style table: speedup vs. chip count with linear reference."""
    headers = [
        "Chips",
        "Speedup",
        "Linear",
        "Efficiency",
        "Energy gain",
        "EDP gain",
        "On-chip",
    ]
    rows = []
    for point in points:
        rows.append(
            [
                str(point.num_chips),
                f"{point.speedup:.2f}x",
                f"{point.num_chips:.2f}x",
                f"{point.parallel_efficiency:.2f}",
                f"{point.energy_improvement:.2f}x",
                f"{point.edp_improvement:.2f}x",
                "yes" if point.runs_from_on_chip_memory else "no",
            ]
        )
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def comparison_table(rows: Dict[str, Dict[str, str]], headers: Sequence[str]) -> str:
    """Table-I-style qualitative comparison of partitioning approaches."""
    table_rows = []
    for name, values in rows.items():
        table_rows.append([name] + [values.get(column, "-") for column in headers])
    return format_table(["Approach"] + list(headers), table_rows)
