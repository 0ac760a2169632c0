"""Export of a chip-count sweep to a CSV or JSON file.

Every result type serialises itself (``to_dict()``/``to_json()``); these
helpers only write a sweep to a file in the format its extension names,
for downstream tooling (plotting scripts, spreadsheets, regression
dashboards) that does not import the library.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle with repro.api
    from ..api.session import EvalSweep

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


def sweep_to_csv(sweep: "EvalSweep") -> str:
    """Serialise a sweep to CSV: the :data:`SWEEP_CSV_COLUMNS` of each
    of ``sweep.to_dict()["results"]``, one row per chip count.

    An analytical strategy's simulator-only cells are empty.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SWEEP_CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(sweep.to_dict()["results"])
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

    ``.json`` writes ``sweep.to_json()``, ``.csv`` :func:`sweep_to_csv`.

    Raises:
        AnalysisError: For unsupported extensions (see
            :func:`check_sweep_path`).
    """
    check_sweep_path(path)
    if path.lower().endswith(".json"):
        payload = sweep.to_json()
    else:
        payload = sweep_to_csv(sweep)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
