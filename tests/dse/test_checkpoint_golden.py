"""The bytes of tune checkpoints, pinned across commits.

``tests/data/checkpoint_golden.json`` was generated by
``tests/data/make_checkpoint_golden.py``: the final checkpoint of small
``grid``, ``random``, ``anneal`` and ``halving`` tunes, and the last
checkpoint that interrupted ``grid``, ``random`` and ``halving`` tunes
write.  Each tune is rerun in-process and its checkpoint text compared
with ``==``, so a change to a searcher's visited order, its RNG draws,
the candidate format or the checkpoint encoding fails here.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.api import Session
from repro.dse.orchestrator import INTERRUPT_ENV
from repro.errors import SearchInterrupted
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
GOLDEN = json.loads((DATA / "checkpoint_golden.json").read_text(encoding="utf-8"))


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_checkpoint_golden", DATA / "make_checkpoint_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(GENERATOR.RUNS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_checkpoint_matches_golden(name):
    assert GENERATOR.checkpoint_text(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_checkpoint_is_mid_run_or_final(name):
    document = json.loads(GOLDEN[name])
    searcher, budget, _, every, interrupt = GENERATOR.RUNS[name]
    assert document["kind"] == "search_state"
    assert document["searcher"] == searcher
    if interrupt is None:
        assert document["evaluations_requested"] == budget
    else:
        # The hook writes no final checkpoint: the file is the last one
        # the cadence wrote before the interrupt.
        assert len(document["candidates"]) == interrupt // every * every
        assert document["evaluations_requested"] < budget


def test_a_resumed_tune_equals_the_uninterrupted_one(tmp_path, monkeypatch):
    # The checkpoint stores each candidate's objectives with sorted keys;
    # the resumed candidates must list them in measurement order again.
    def tune(checkpoint, **kwargs):
        return Session().tune(
            autoregressive(tinyllama_42m(), 64),
            GENERATOR.SPACE,
            searcher="random",
            budget=16,
            seed=3,
            objectives=("latency", "energy"),
            checkpoint=checkpoint,
            checkpoint_every=4,
            **kwargs,
        )

    uninterrupted = tune(tmp_path / "uninterrupted.json")
    checkpoint = tmp_path / "interrupted.json"
    monkeypatch.setenv(INTERRUPT_ENV, "6")
    with pytest.raises(SearchInterrupted):
        tune(checkpoint)
    monkeypatch.delenv(INTERRUPT_ENV)
    resumed = tune(checkpoint, resume=checkpoint)
    assert resumed.candidates == uninterrupted.candidates
    assert resumed.front == uninterrupted.front
