"""Property-based tests of the search orchestrator's determinism contract.

Three properties, each over real simulator evaluations (tiny spaces and
budgets keep them fast):

* a tune fanned out over 1, 2, or 4 worker processes is byte-identical
  to the serial run, cache statistics included — parallelism may only
  move evaluations in time;
* interrupting a checkpointed search (hard kill: no final checkpoint
  write) and resuming from the last checkpoint reproduces the
  uninterrupted result document byte for byte, final checkpoint
  included;
* a resumed run never re-pays for checkpointed points: its engine
  evaluations are exactly the uninterrupted total minus the candidates
  the checkpoint carried.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace
from repro.dse.orchestrator import INTERRUPT_ENV
from repro.errors import SearchInterrupted
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m

WORKLOAD = autoregressive(tinyllama_42m(), 64)

#: An eight-point space: small enough that every example stays fast,
#: rich enough that searchers visit it in seed-dependent orders.
SPACE = SearchSpace(
    axes=(
        ChoiceAxis("chips", (1, 2)),
        FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 1.0)),
        ChoiceAxis("l2_kib", (1024, 2048)),
        ChoiceAxis("strategy", ("paper",)),
    )
)

SEARCHERS = ("random", "halving", "surrogate")


def _tune(session: Session, searcher: str, seed: int, budget: int, **kwargs):
    return session.tune(
        WORKLOAD,
        SPACE,
        searcher=searcher,
        budget=budget,
        seed=seed,
        objectives=("latency", "energy"),
        **kwargs,
    )


def _document(result, include_cache: bool = False) -> str:
    cache = result.cache if include_cache else None
    return json.dumps(result.to_dict(cache=cache), sort_keys=True)


@contextmanager
def _interrupt_after(count: int):
    """Simulate a hard kill after ``count`` fresh engine evaluations."""
    os.environ[INTERRUPT_ENV] = str(count)
    try:
        yield
    finally:
        del os.environ[INTERRUPT_ENV]


@settings(max_examples=4, deadline=None)
@given(
    searcher=st.sampled_from(SEARCHERS),
    seed=st.integers(min_value=0, max_value=5),
    budget=st.integers(min_value=4, max_value=8),
    workers=st.sampled_from((2, 4)),
)
def test_parallel_tune_is_byte_identical_to_serial(
    searcher, seed, budget, workers
):
    serial = _document(_tune(Session(), searcher, seed, budget), include_cache=True)
    fanned = _document(
        _tune(Session(), searcher, seed, budget, parallel=workers),
        include_cache=True,
    )
    assert fanned == serial


@settings(max_examples=4, deadline=None)
@given(
    searcher=st.sampled_from(SEARCHERS),
    seed=st.integers(min_value=0, max_value=5),
    budget=st.integers(min_value=5, max_value=8),
    checkpoint_every=st.integers(min_value=1, max_value=2),
    interrupt_after=st.integers(min_value=1, max_value=2),
)
def test_interrupted_then_resumed_equals_uninterrupted(
    searcher, seed, budget, checkpoint_every, interrupt_after
):
    with tempfile.TemporaryDirectory() as tmp:
        reference_path = Path(tmp) / "reference.json"
        uninterrupted = _tune(
            Session(),
            searcher,
            seed,
            budget,
            checkpoint=reference_path,
            checkpoint_every=checkpoint_every,
        )
        reference = _document(uninterrupted)
        final_checkpoint = reference_path.read_bytes()

        checkpoint = Path(tmp) / "interrupted.json"
        interrupted = False
        try:
            with _interrupt_after(interrupt_after):
                _tune(
                    Session(),
                    searcher,
                    seed,
                    budget,
                    checkpoint=checkpoint,
                    checkpoint_every=checkpoint_every,
                )
        except SearchInterrupted:
            interrupted = True
        # The hook kills without a final write, so a checkpoint exists
        # only if the cadence fired before the interrupt; resuming from
        # nothing is just a fresh run, which the contract also covers.
        resume = checkpoint if checkpoint.exists() else None
        resumed = _tune(
            Session(),
            searcher,
            seed,
            budget,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        assert _document(resumed) == reference
        assert checkpoint.read_bytes() == final_checkpoint
        if not interrupted:
            # The search finished before the hook fired (every point the
            # searcher asked for was already evaluated): nothing to kill,
            # and the equality above already held trivially.
            assert interrupt_after >= len(uninterrupted.candidates)


@settings(max_examples=4, deadline=None)
@given(
    searcher=st.sampled_from(SEARCHERS),
    seed=st.integers(min_value=0, max_value=5),
    budget=st.integers(min_value=5, max_value=8),
    interrupt_after=st.integers(min_value=1, max_value=2),
)
def test_resume_never_repays_checkpointed_points(
    searcher, seed, budget, interrupt_after
):
    baseline = Session()
    uninterrupted = _tune(baseline, searcher, seed, budget)
    total_unique = len(uninterrupted.candidates)
    assert baseline.cache_info().misses == total_unique

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "state.json"
        try:
            with _interrupt_after(interrupt_after):
                _tune(
                    Session(),
                    searcher,
                    seed,
                    budget,
                    checkpoint=checkpoint,
                    checkpoint_every=1,  # every fresh point is durable
                )
        except SearchInterrupted:
            pass
        if not checkpoint.exists():
            return  # the search finished before the hook fired
        carried = len(json.loads(checkpoint.read_text())["candidates"])

        resumed_session = Session()
        resumed = _tune(
            resumed_session,
            searcher,
            seed,
            budget,
            resume=checkpoint,
        )
        assert len(resumed.candidates) == total_unique
        # Budget accounting: the resumed run pays the engine for exactly
        # the points the checkpoint did not carry — never a point twice.
        assert resumed_session.cache_info().misses == total_unique - carried
