"""The search orchestrator: parallel evaluation, checkpoint, resume.

:class:`SearchOrchestrator` sits between :func:`repro.dse.engine.run_tune`
and a registered search algorithm and adds the production concerns the
searchers themselves stay free of:

* **Batched evaluation.**  Searchers announce the points they visit
  next by calling ``evaluate.prefill(points)``: grid and random announce
  their whole schedule before the first evaluation, the multi-fidelity
  searchers each batch before evaluating it.  On a miss the evaluator
  prices the requested point and the announced ones after it in one
  :meth:`repro.api.Session.run_many` call
  (:class:`~repro.dse.engine.DesignEvaluator`); a serial window never
  reaches past the next checkpoint or the interrupt hook.
* **Parallel evaluation.**  With workers, a window spans every announced
  point, and its ``run_many`` call runs the engine step across worker
  processes (the same call behind ``repro sweep --parallel``).  The
  session still does every lookup and commit and the searcher still
  records every candidate in its own order, so every artifact — cache
  statistics included — is **byte-identical** for any worker count.
* **Checkpoint/resume.**  Every ``checkpoint_every`` unique evaluations
  (and once more on completion or :class:`KeyboardInterrupt`) the run's
  :class:`SearchState` — searcher identity, RNG state, evaluated
  candidates, incumbent front, budget spent — is written atomically as a
  schema-versioned JSON document (spec kind ``search_state``).  Resume
  *replays* the search: the evaluator is preloaded with the checkpointed
  candidates and the searcher re-runs from the same seed, so
  checkpointed points are answered without engine runs while the
  visited order, budget accounting, and RNG draws exactly reproduce an
  uninterrupted run.
  Replay keeps every registered searcher resumable without making any
  of them checkpoint-aware.

The ``REPRO_TUNE_INTERRUPT_AFTER`` environment variable makes
interruption testable: after that many *new* evaluations the orchestrator
raises :class:`~repro.errors.SearchInterrupted` without writing a further
checkpoint — simulating a hard kill at an arbitrary point between
checkpoint boundaries.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple, Union

from ..errors import AnalysisError, SearchInterrupted, SpecError
from ..spec.base import SpecBase, register, spec_error
from .engine import Candidate, DesignEvaluator
from .objectives import Objective
from .pareto import Constraint, filter_constraints, pareto_front
from .space import Point, SearchSpace

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "INTERRUPT_ENV",
    "SearchOrchestrator",
    "SearchState",
    "load_search_state",
]

#: Checkpoint cadence (unique evaluations) when a checkpoint path is set
#: but no explicit interval was requested.
DEFAULT_CHECKPOINT_EVERY = 25

#: Environment variable holding the test hook "interrupt after N new
#: evaluations" (see the module docstring).
INTERRUPT_ENV = "REPRO_TUNE_INTERRUPT_AFTER"


# ----------------------------------------------------------------------
# Search state
# ----------------------------------------------------------------------
@register
@dataclass(frozen=True)
class SearchState(SpecBase):
    """A tuning run's resumable state: the checkpoint document.

    Spec kind ``search_state``, written by ``repro tune --checkpoint``
    and read back by ``repro tune --resume`` and Study-stage resume; it
    is not a runnable stage.  Every field is required, so a checkpoint
    document always carries the whole state.

    Attributes:
        searcher: Canonical searcher name.
        seed: The search seed.
        budget: The evaluation budget of the run.
        workload: Name of the tuned workload (resume fingerprint).
        axes: Axis names of the searched space, in canonical order.
        space_size: Point count of the space (``None`` when continuous).
        objectives: Names of every *measured* objective, in order
            (Pareto objectives first, then constraint-only ones).
        constraints: Rendered constraint expressions.
        evaluations_requested: Searcher evaluation calls so far,
            cache-hit repeats included — the budget spent.
        rng_state: JSON-ready :meth:`random.Random.getstate` snapshot at
            checkpoint time.
        candidates: Unique evaluated candidates, in evaluation order, in
            their :meth:`~repro.dse.engine.Candidate.as_dict` form.
        front: Indices into ``candidates`` forming the incumbent
            constraint-feasible Pareto front.
    """

    kind = "search_state"

    searcher: str
    seed: int
    budget: int
    workload: str
    axes: Tuple[str, ...]
    space_size: Optional[int]
    objectives: Tuple[str, ...]
    constraints: Tuple[str, ...]
    evaluations_requested: int
    rng_state: Any
    candidates: Tuple[Mapping[str, Any], ...]
    front: Tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("axes", "objectives", "constraints", "candidates", "front"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.evaluations_requested < 0:
            raise SpecError(
                "evaluations_requested must be >= 0, got "
                f"{self.evaluations_requested}"
            )
        for index in self.front:
            if not 0 <= index < len(self.candidates):
                raise SpecError(
                    f"front index {index} outside the candidate list "
                    f"(length {len(self.candidates)})"
                )

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "SearchState":
        candidates = data.get("candidates") if isinstance(data, Mapping) else None
        if isinstance(candidates, (list, tuple)):
            for index, item in enumerate(candidates):
                if not isinstance(item, Mapping) or "point" not in item:
                    raise spec_error(
                        f"{path}.candidates[{index}]",
                        "expected a serialised candidate mapping with a 'point'",
                    )
        return super().from_dict(data, path)

    def save(self, path: Union[str, Path]) -> None:
        """Atomically write the checkpoint document to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = target.with_name(target.name + ".tmp")
        staging.write_text(self.to_json(), encoding="utf-8")
        os.replace(staging, target)


def load_search_state(path: Union[str, Path]) -> SearchState:
    """Read and validate a checkpoint document.

    Raises:
        AnalysisError: If the file is missing or not valid JSON.
        SpecError: If the document is structurally invalid (with the
            JSON path of the offending field).
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as error:
        raise AnalysisError(
            f"cannot read checkpoint {target}: {error.strerror or error}"
        ) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise AnalysisError(
            f"checkpoint {target} is not valid JSON: {error}"
        ) from None
    return SearchState.from_dict(data, path=str(target))


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class _OrchestratedEvaluate:
    """The evaluate callable handed to the searcher.

    Delegates to the orchestrator, which tracks fresh evaluations for
    checkpoints and the interrupt hook; ``prefill(points)`` is the
    evaluator's :meth:`~repro.dse.engine.DesignEvaluator.announce`, by
    which searchers announce the points they evaluate next, in order,
    for the evaluator to price in one session call.
    """

    def __init__(self, orchestrator: "SearchOrchestrator") -> None:
        self._orchestrator = orchestrator
        self.prefill = orchestrator.evaluator.announce

    def __call__(self, point: Point) -> Candidate:
        return self._orchestrator._evaluate(point)


class SearchOrchestrator:
    """Drives one search algorithm with parallelism and checkpointing.

    Construction only records the configuration; :meth:`run` performs
    the search, leaving the results in the evaluator (its ``history``
    and ``evaluations_requested`` are what :func:`~repro.dse.engine.
    run_tune` turns into the :class:`~repro.dse.engine.TuneResult`).
    """

    def __init__(
        self,
        evaluator: DesignEvaluator,
        algorithm,
        space: SearchSpace,
        objectives: Sequence[Objective],
        *,
        budget: int,
        seed: int,
        constraints: Sequence[Constraint] = (),
        parallel: Optional[int] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        resume: Optional[Union[str, Path]] = None,
    ) -> None:
        if parallel is not None and parallel < 1:
            raise AnalysisError(
                f"parallel worker count must be >= 1, got {parallel}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise AnalysisError(
                f"checkpoint interval must be >= 1, got {checkpoint_every}"
            )
        self.evaluator = evaluator
        self.algorithm = algorithm
        self.space = space
        self.objectives = tuple(objectives)
        self.constraints = tuple(constraints)
        self.budget = budget
        self.seed = seed
        self.workers = parallel if parallel is not None else 1
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.checkpoint_every = (
            checkpoint_every
            if checkpoint_every is not None
            else DEFAULT_CHECKPOINT_EVERY
        )
        self.resume = Path(resume) if resume is not None else None
        self._rng = random.Random(seed)
        self._fresh = 0
        self._interrupt_after = self._read_interrupt_hook()

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute the search (resuming first when configured)."""
        if self.resume is not None:
            state = load_search_state(self.resume)
            self._validate_resume(state)
            self.evaluator.preload(state.candidates)
        try:
            self.algorithm.search(
                self.space,
                _OrchestratedEvaluate(self),
                self.objectives,
                budget=self.budget,
                rng=self._rng,
            )
        except KeyboardInterrupt:
            # Best-effort salvage on a genuine ^C: persist whatever the
            # run has paid for, then let the interrupt propagate.
            self._write_checkpoint()
            raise
        self._write_checkpoint()

    # ------------------------------------------------------------------
    # Evaluation plumbing
    # ------------------------------------------------------------------
    def _evaluate(self, point: Point) -> Candidate:
        fresh = not self.evaluator.is_cached(point)
        if (
            fresh
            and self._interrupt_after is not None
            and self._fresh >= self._interrupt_after
        ):
            raise SearchInterrupted(
                f"tuning interrupted after {self._fresh} new evaluations "
                f"({INTERRUPT_ENV}={self._interrupt_after}); resume from "
                "the last checkpoint to continue"
            )
        candidate = self.evaluator.evaluate(
            point, window=self._window(), parallel=self.workers
        )
        if fresh:
            self._fresh += 1
            if (
                self.checkpoint is not None
                and self.evaluator.unique_evaluations % self.checkpoint_every
                == 0
            ):
                self._write_checkpoint()
        return candidate

    def _window(self) -> Optional[int]:
        """How many new points one evaluation may run ahead of the walk.

        A serial window stops at the next checkpoint and at the interrupt
        hook, so neither a hard kill nor the hook loses more work than a
        walk evaluating one point at a time.  With workers, a window spans
        every announced point: each window starts a process pool.
        """
        if self.workers > 1:
            return None
        bounds = []
        if self.checkpoint is not None:
            every = self.checkpoint_every
            bounds.append(every - self.evaluator.unique_evaluations % every)
        if self._interrupt_after is not None:
            bounds.append(self._interrupt_after - self._fresh)
        return min(bounds) if bounds else None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _state(self) -> SearchState:
        candidates = self.evaluator.history
        eligible = filter_constraints(candidates, self.constraints)
        front = pareto_front(eligible, self.objectives)
        positions = {
            candidate.point: index
            for index, candidate in enumerate(candidates)
        }
        return SearchState(
            searcher=self.algorithm.name,
            seed=self.seed,
            budget=self.budget,
            workload=self.evaluator.workload.name,
            axes=tuple(self.space.names),
            space_size=self.space.size,
            objectives=tuple(
                objective.name for objective in self.evaluator.objectives
            ),
            constraints=tuple(
                constraint.render() for constraint in self.constraints
            ),
            evaluations_requested=self.evaluator.evaluations_requested,
            rng_state=self._rng.getstate(),
            candidates=tuple(candidate.as_dict() for candidate in candidates),
            front=tuple(positions[candidate.point] for candidate in front),
        )

    def _write_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        self._state().save(self.checkpoint)

    def _validate_resume(self, state: SearchState) -> None:
        expected = (
            ("searcher", self.algorithm.name, state.searcher),
            ("seed", self.seed, state.seed),
            ("budget", self.budget, state.budget),
            ("workload", self.evaluator.workload.name, state.workload),
            ("axes", tuple(self.space.names), state.axes),
            ("space_size", self.space.size, state.space_size),
            (
                "objectives",
                tuple(objective.name for objective in self.evaluator.objectives),
                state.objectives,
            ),
            (
                "constraints",
                tuple(constraint.render() for constraint in self.constraints),
                state.constraints,
            ),
        )
        for field, ours, theirs in expected:
            if ours != theirs:
                raise AnalysisError(
                    f"checkpoint {self.resume} was written by a different "
                    f"search: its {field} is {theirs!r}, this run's is "
                    f"{ours!r}"
                )

    @staticmethod
    def _read_interrupt_hook() -> Optional[int]:
        raw = os.environ.get(INTERRUPT_ENV)
        if raw is None or not raw.strip():
            return None
        try:
            value = int(raw)
        except ValueError:
            raise AnalysisError(
                f"{INTERRUPT_ENV} must be an integer, got {raw!r}"
            ) from None
        return value if value >= 0 else None
