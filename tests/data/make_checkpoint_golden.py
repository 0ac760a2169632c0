"""Regenerate ``checkpoint_golden.json``, the pinned bytes of tune checkpoints.

A checkpoint (``repro tune --checkpoint``, kind ``search_state``) carries
the searcher's RNG state, every evaluated candidate in visit order, the
budget spent and the incumbent front, so its bytes pin a search's whole
visited order.  The golden document maps each run below to the exact
text of one checkpoint file:

* the final checkpoint of small ``grid``, ``random``, ``anneal`` and
  ``halving`` tunes with a ``checkpoint_every`` of 2 to 4;
* the last checkpoint that a ``grid``, a ``random`` and a ``halving``
  tune write before ``REPRO_TUNE_INTERRUPT_AFTER`` stops them (a
  mid-run state: the hook writes no final checkpoint).

Every tune runs in-process on a fresh :class:`repro.api.Session` without
a persistent store, over a 40-point space whose 16-chip points are
infeasible.  ``tests/dse/test_checkpoint_golden.py`` reruns each tune and
compares the text with ``==``.  Regenerate from the repository root
with::

    PYTHONPATH=src python tests/data/make_checkpoint_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Dict, Optional, Tuple

from repro.api import Session
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace
from repro.dse.orchestrator import INTERRUPT_ENV
from repro.errors import SearchInterrupted
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "checkpoint_golden.json"

#: Two strategies, two clocks, two links and five chip counts (16 exceeds
#: TinyLlama's heads: infeasible); chips vary fastest in grid order.
SPACE = SearchSpace(
    axes=(
        ChoiceAxis("strategy", ("paper", "weight_replicated")),
        FloatAxis("freq_mhz", 200.0, 400.0, levels=(200.0, 400.0)),
        FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 1.0)),
        ChoiceAxis("chips", (1, 2, 4, 8, 16)),
    )
)

#: name -> (searcher, budget, seed, checkpoint_every, interrupt after N
#: new evaluations or None).
RUNS: Dict[str, Tuple[str, int, int, int, Optional[int]]] = {
    "grid-final": ("grid", 12, 0, 4, None),
    "random-final": ("random", 16, 3, 4, None),
    "anneal-final": ("anneal", 12, 1, 2, None),
    "halving-final": ("halving", 12, 2, 3, None),
    "grid-interrupted": ("grid", 12, 0, 3, 5),
    "random-interrupted": ("random", 16, 3, 4, 6),
    "halving-interrupted": ("halving", 12, 2, 2, 5),
}


def checkpoint_text(name: str) -> str:
    """The text of the checkpoint file that run ``name`` leaves behind."""
    searcher, budget, seed, every, interrupt = RUNS[name]
    workload = autoregressive(tinyllama_42m(), 64)
    saved = os.environ.pop(INTERRUPT_ENV, None)
    if interrupt is not None:
        os.environ[INTERRUPT_ENV] = str(interrupt)
    try:
        with tempfile.TemporaryDirectory() as directory:
            path = pathlib.Path(directory) / "state.json"
            try:
                Session().tune(
                    workload,
                    SPACE,
                    searcher=searcher,
                    budget=budget,
                    seed=seed,
                    objectives=("latency", "energy"),
                    checkpoint=path,
                    checkpoint_every=every,
                )
            except SearchInterrupted:
                if interrupt is None:
                    raise
            else:
                if interrupt is not None:
                    raise RuntimeError(f"{name} was not interrupted")
            return path.read_text(encoding="utf-8")
    finally:
        os.environ.pop(INTERRUPT_ENV, None)
        if saved is not None:
            os.environ[INTERRUPT_ENV] = saved


def golden_document() -> Dict[str, str]:
    """Recompute the checkpoint text of every run."""
    return {name: checkpoint_text(name) for name in RUNS}


def main() -> None:
    document = golden_document()
    GOLDEN_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(document)} checkpoints to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
