"""Export of evaluation results to CSV and JSON.

Sweeps and reports are plain Python objects; these helpers serialise them
into formats that downstream tooling (plotting scripts, spreadsheets,
regression dashboards) can consume without importing the library.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Dict, List

from ..core.schedule import RuntimeCategory
from ..errors import AnalysisError
from .evaluate import BlockReport

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle with repro.api
    from ..api.result import EvalResult
    from ..api.session import CacheInfo, Comparison, EvalSweep
    from ..dse.engine import TuneResult

#: Column order of the sweep CSV export.
SWEEP_CSV_COLUMNS = (
    "workload",
    "num_chips",
    "block_cycles",
    "block_runtime_seconds",
    "block_energy_joules",
    "energy_delay_product",
    "speedup",
    "l3_bytes",
    "c2c_bytes",
    "on_chip",
    "compute_cycles",
    "dma_l3_l2_cycles",
    "dma_l2_l1_cycles",
    "chip_to_chip_cycles",
    "idle_cycles",
)


def report_to_dict(report: BlockReport, speedup: float | None = None) -> Dict[str, Any]:
    """Flatten one :class:`BlockReport` into JSON-serialisable primitives."""
    breakdown = report.runtime_breakdown()
    record: Dict[str, Any] = {
        "workload": report.workload.name,
        "num_chips": report.num_chips,
        "block_cycles": report.block_cycles,
        "block_runtime_seconds": report.block_runtime_seconds,
        "block_energy_joules": report.block_energy_joules,
        "energy_delay_product": report.energy_delay_product,
        "l3_bytes": report.total_l3_bytes,
        "c2c_bytes": report.total_c2c_bytes,
        "on_chip": report.runs_from_on_chip_memory,
        "residencies": {
            str(chip_id): residency.value
            for chip_id, residency in report.residencies().items()
        },
        "compute_cycles": breakdown[RuntimeCategory.COMPUTE],
        "dma_l3_l2_cycles": breakdown[RuntimeCategory.DMA_L3_L2],
        "dma_l2_l1_cycles": breakdown[RuntimeCategory.DMA_L2_L1],
        "chip_to_chip_cycles": breakdown[RuntimeCategory.CHIP_TO_CHIP],
        "idle_cycles": breakdown[RuntimeCategory.IDLE],
        "energy_breakdown_joules": {
            "compute": report.energy.total.compute,
            "l2_l1": report.energy.total.l2_l1,
            "l3_l2": report.energy.total.l3_l2,
            "chip_to_chip": report.energy.total.chip_to_chip,
        },
    }
    if speedup is not None:
        record["speedup"] = speedup
    return record


def sweep_to_records(sweep: "EvalSweep") -> List[Dict[str, Any]]:
    """Flatten a simulator-backed sweep into one record per chip count.

    Raises:
        AnalysisError: If the sweep's strategy is analytical (its results
            carry no :class:`BlockReport`; use :func:`eval_sweep_to_dict`).
    """
    if any(result.report is None for result in sweep.results):
        raise AnalysisError(
            f"strategy {sweep.strategy!r} is analytical; only simulator-backed "
            "sweeps export per-chip records"
        )
    speedups = sweep.speedups()
    return [
        report_to_dict(result.report, speedup=speedups[result.num_chips])
        for result in sweep.results
    ]


def sweep_to_json(sweep: "EvalSweep", *, indent: int = 2) -> str:
    """Serialise a simulator-backed sweep to a JSON document."""
    document = {
        "workload": sweep.workload.name,
        "chip_counts": sweep.chip_counts,
        "results": sweep_to_records(sweep),
    }
    return json.dumps(document, indent=indent, sort_keys=True)


#: :func:`report_to_dict` fields only the simulator-backed report can fill;
#: the analytical branch of :func:`eval_result_to_dict` exports them as
#: ``None`` so both branches always share one schema.
_SIMULATOR_ONLY_FIELDS = (
    "on_chip",
    "residencies",
    "compute_cycles",
    "dma_l3_l2_cycles",
    "dma_l2_l1_cycles",
    "chip_to_chip_cycles",
    "idle_cycles",
    "energy_breakdown_joules",
)


def eval_result_to_dict(
    result: "EvalResult", speedup: float | None = None
) -> Dict[str, Any]:
    """Flatten one :class:`~repro.api.EvalResult` of *any* strategy.

    Simulator-backed results reuse :func:`report_to_dict` so the keys match
    the classic sweep export exactly; analytical baselines fill the
    simulator-only fields (breakdowns, residencies) with ``None``.  The
    strategy metadata columns are appended in both cases, giving every CLI
    command one shared machine-readable schema.
    """
    if result.report is not None:
        record = report_to_dict(result.report, speedup=speedup)
    else:
        record = {
            "workload": result.workload.name,
            "num_chips": result.num_chips,
            "block_cycles": result.block_cycles,
            "block_runtime_seconds": result.block_runtime_seconds,
            "block_energy_joules": result.block_energy_joules,
            "energy_delay_product": result.energy_delay_product,
            "l3_bytes": result.l3_bytes_per_block,
            "c2c_bytes": result.c2c_bytes_per_block,
        }
        for field in _SIMULATOR_ONLY_FIELDS:
            record[field] = None
        if speedup is not None:
            record["speedup"] = speedup
    record.update(
        {
            "strategy": result.strategy,
            "approach": result.approach,
            "weight_bytes_per_chip": result.weight_bytes_per_chip,
            "weights_replicated": result.weights_replicated,
            "synchronisations_per_block": result.synchronisations_per_block,
            "uses_pipelining": result.uses_pipelining,
            "notes": result.notes,
        }
    )
    return record


def eval_sweep_to_dict(sweep: "EvalSweep") -> Dict[str, Any]:
    """Flatten any strategy's chip-count sweep into primitives.

    This is the cache-free body of :func:`eval_sweep_to_json`, and the
    per-stage artifact form the :class:`~repro.api.study.Study` runner
    writes (cache statistics are deliberately absent: they depend on what
    ran earlier in the session, so including them would break the
    byte-determinism of study artifacts).
    """
    speedups = sweep.speedups()
    return {
        "workload": sweep.workload.name,
        "strategy": sweep.strategy,
        "chip_counts": sweep.chip_counts,
        "results": [
            eval_result_to_dict(result, speedup=speedups[result.num_chips])
            for result in sweep.results
        ],
    }


def eval_sweep_to_json(
    sweep: "EvalSweep", *, indent: int = 2, cache: "CacheInfo | None" = None
) -> str:
    """Serialise any strategy's chip-count sweep to a JSON document.

    Pass the evaluating session's :meth:`~repro.api.Session.cache_info`
    as ``cache`` to make memoisation reuse observable in the output.
    """
    document = eval_sweep_to_dict(sweep)
    if cache is not None:
        document["cache"] = cache.to_dict()
    return json.dumps(document, indent=indent, sort_keys=True)


def tune_result_to_dict(
    result: "TuneResult", *, include_cache: bool = True
) -> Dict[str, Any]:
    """Flatten a :class:`~repro.dse.engine.TuneResult` into primitives.

    Candidates and the front appear in evaluation order; together with
    the deterministic searchers this makes the document byte-identical
    across runs for equal seed/space/budget.  ``include_cache=False``
    drops the session cache statistics (which depend on evaluation
    history, not on the tuning inputs) — the form study artifacts use.
    """
    document = {
        "workload": result.workload.name,
        "searcher": result.searcher,
        "seed": result.seed,
        "budget": result.budget,
        "objectives": [
            {"name": objective.name, "sense": objective.sense.value}
            for objective in result.objectives
        ],
        "constraints": [
            constraint.render() for constraint in result.constraints
        ],
        "space": {
            "axes": list(result.space.names),
            "size": result.space.size,
        },
        "evaluations_requested": result.evaluations_requested,
        "candidates": [candidate.as_dict() for candidate in result.candidates],
        "front": [candidate.as_dict() for candidate in result.front],
    }
    if include_cache:
        document["cache"] = result.cache.to_dict()
    return document


def tune_result_to_json(result: "TuneResult", *, indent: int = 2) -> str:
    """Serialise a tuning run to a JSON document (``repro tune --json``)."""
    return json.dumps(tune_result_to_dict(result), indent=indent, sort_keys=True)


def comparison_to_dict(comparison: "Comparison") -> Dict[str, Any]:
    """Flatten a strategy ablation into primitives."""
    return {
        "workload": comparison.workload.name,
        "num_chips": comparison.num_chips,
        "strategies": comparison.strategies,
        "results": [
            eval_result_to_dict(result) for result in comparison.results
        ],
    }


def comparison_to_json(comparison: "Comparison", *, indent: int = 2) -> str:
    """Serialise a strategy ablation to a JSON document."""
    return json.dumps(comparison_to_dict(comparison), indent=indent, sort_keys=True)


def sweep_to_csv(sweep: "EvalSweep") -> str:
    """Serialise a simulator-backed sweep to CSV (one row per chip count)."""
    records = sweep_to_records(sweep)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SWEEP_CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    return buffer.getvalue()


def check_sweep_path(path: str) -> None:
    """Reject a :func:`write_sweep` path before anything is evaluated.

    Raises:
        AnalysisError: Unless ``path`` ends in ``.json`` or ``.csv``.
    """
    if not path.lower().endswith((".json", ".csv")):
        raise AnalysisError(
            f"unsupported export extension for {path!r}; use .json or .csv"
        )


def write_sweep(sweep: "EvalSweep", path: str) -> None:
    """Write a sweep to ``path``; the format follows the file extension.

    ``.json`` produces the JSON document, ``.csv`` the CSV table.

    Raises:
        AnalysisError: For unsupported extensions (see
            :func:`check_sweep_path`).
    """
    check_sweep_path(path)
    if path.lower().endswith(".json"):
        payload = sweep_to_json(sweep)
    else:
        payload = sweep_to_csv(sweep)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
