"""Regenerate ``experiments_golden.json``, the pinned text of ``repro experiments``.

The golden document maps each ``--only`` value to the exact stdout of
``repro experiments --only <value> --no-cache``.  The command is run
in-process through :func:`repro.cli.main`, so the session and its cache
statistics start empty for every value.
``tests/integration/test_experiments_golden.py`` reruns the command and
compares the text with ``==``.  Regenerate from the repository root
with::

    PYTHONPATH=src python tests/data/make_experiments_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from typing import Dict

from repro.cli import main as cli_main

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "experiments_golden.json"

#: Every ``repro experiments --only`` value.
EXPERIMENTS = (
    "all",
    "dse",
    "fig4",
    "fig5",
    "fig6",
    "headline",
    "serving",
    "table1",
)


def experiment_text(only: str) -> str:
    """The stdout of ``repro experiments --only <only> --no-cache``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli_main(["experiments", "--only", only, "--no-cache"])
    if status != 0:
        raise RuntimeError(f"repro experiments --only {only} exited {status}")
    return buffer.getvalue()


def golden_document() -> Dict[str, str]:
    """Recompute the text of every experiment."""
    return {only: experiment_text(only) for only in EXPERIMENTS}


def render(document: Dict[str, str]) -> str:
    """The committed text form: sorted keys, one experiment per entry."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> None:
    """Write the golden document next to this script."""
    GOLDEN_PATH.write_text(render(golden_document()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
