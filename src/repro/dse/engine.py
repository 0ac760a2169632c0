"""The DSE engine: point evaluation, tuning runs, and their results.

The engine glues the declarative layers together: a
:class:`DesignEvaluator` turns search-space points into measured
:class:`Candidate` records through one shared
:class:`~repro.api.Session` (so repeated points hit the session's
memoisation cache and serving scenarios reuse its phase costs), and
:func:`run_tune` drives a registered search algorithm over it, returning
the :class:`TuneResult` behind :meth:`repro.api.Session.tune` and the
``repro tune`` CLI.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from ..api.registry import get_strategy
from ..api.result import EvalResult
from ..api.session import CacheInfo, Session
from ..errors import (
    AnalysisError,
    ArchitectureError,
    MemoryCapacityError,
    PartitioningError,
    ReproError,
    SchedulingError,
    UnknownStrategyError,
    detached,
)
from ..graph.workload import Workload
from ..spec.base import SpecBase, _check_name, register, require_finite
from .objectives import Measurement, Objective, Sense, get_objective
from .pareto import Constraint, filter_constraints, pareto_front, parse_constraint
from .space import (
    DesignPoint,
    Point,
    SearchSpace,
    Value,
    default_space,
    materialise,
    point_key,
)

__all__ = [
    "Candidate",
    "DesignEvaluator",
    "ServingScenario",
    "TuneResult",
    "run_tune",
]


# ----------------------------------------------------------------------
# Serving scenario
# ----------------------------------------------------------------------
@register
@dataclass(frozen=True)
class ServingScenario(SpecBase):
    """The fixed traffic scenario behind serving-level objectives.

    Objectives with ``requires_serving`` (SLO attainment, energy per
    request) simulate this scenario once per unique design point; the
    scenario is deliberately small so a tuning run stays interactive.
    Spec kind ``serving_scenario``.

    Attributes:
        rate_rps: Mean Poisson arrival rate.
        duration_s: Arrival horizon in seconds.
        policy: Registered scheduling policy name.
        seed: Trace seed (one fixed seed keeps tuning deterministic).
        ttft_slo_s: The TTFT target the ``slo`` objective scores against.
        max_context: Serving context window.
    """

    kind = "serving_scenario"

    rate_rps: float = 2.0
    duration_s: float = 20.0
    policy: str = "fifo"
    seed: int = 0
    ttft_slo_s: float = 1.0
    max_context: int = 1024

    def __post_init__(self) -> None:
        require_finite("", self, ("rate_rps", "duration_s", "ttft_slo_s"))

    def validate(self, path: str = "$") -> None:
        """Check that the scenario's scheduling policy is registered."""
        from ..serving.policies import get_policy

        _check_name(get_policy, self.policy, f"{path}.policy")

    def trace(self):
        """Build the scenario's traffic trace."""
        from ..serving.traces import PoissonTrace

        return PoissonTrace(rate_rps=self.rate_rps, duration_s=self.duration_s)


# ----------------------------------------------------------------------
# Candidates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Candidate:
    """One evaluated design point.

    Attributes:
        point: Canonical (name-sorted) items of the originating point.
        strategy: Partitioning strategy of the point.
        num_chips: Chip count of the materialised platform.
        feasible: Whether the point could be evaluated at all (a chip
            count exceeding the model's head count, or a workload that
            does not fit, yields an infeasible candidate rather than a
            failed search).
        objective_values: Measured ``(objective name, value)`` pairs, in
            measurement order; empty when infeasible.
        block_cycles: Per-block runtime in cycles (``None`` if infeasible).
        block_runtime_seconds: Per-block runtime in seconds.
        block_energy_joules: Per-block energy in joules.
        note: Failure description for infeasible candidates.
    """

    point: Tuple[Tuple[str, Value], ...]
    strategy: str
    num_chips: int
    feasible: bool
    objective_values: Tuple[Tuple[str, float], ...] = ()
    block_cycles: Optional[float] = None
    block_runtime_seconds: Optional[float] = None
    block_energy_joules: Optional[float] = None
    note: str = ""

    @property
    def point_dict(self) -> Point:
        """The point as a plain mutable mapping."""
        return dict(self.point)

    def value(self, objective: str) -> float:
        """The measured value of one objective.

        Raises:
            AnalysisError: If the candidate is infeasible or the
                objective was not measured.
        """
        if not self.feasible:
            raise AnalysisError(
                f"candidate {dict(self.point)} is infeasible ({self.note}); "
                "it has no objective values"
            )
        for name, measured in self.objective_values:
            if name == objective:
                return measured
        measured_names = ", ".join(name for name, _ in self.objective_values)
        raise AnalysisError(
            f"objective {objective!r} was not measured for this candidate "
            f"(measured: {measured_names or '<none>'})"
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by ``repro tune --json``)."""
        return {
            "point": dict(self.point),
            "strategy": self.strategy,
            "num_chips": self.num_chips,
            "feasible": self.feasible,
            "objectives": dict(self.objective_values),
            "block_cycles": self.block_cycles,
            "block_runtime_seconds": self.block_runtime_seconds,
            "block_energy_joules": self.block_energy_joules,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], index: int) -> "Candidate":
        """Rebuild a candidate from its :meth:`as_dict` form.

        ``index`` is the candidate's position in a checkpoint's
        ``candidates`` list, which the error names.

        Raises:
            AnalysisError: If ``data`` is not a serialised candidate.
        """
        try:
            return cls(
                point=tuple(sorted(data["point"].items())),
                strategy=data["strategy"],
                num_chips=data["num_chips"],
                feasible=data["feasible"],
                objective_values=tuple(data["objectives"].items()),
                block_cycles=data["block_cycles"],
                block_runtime_seconds=data["block_runtime_seconds"],
                block_energy_joules=data["block_energy_joules"],
                note=data.get("note", ""),
            )
        except (KeyError, AttributeError, TypeError) as error:
            raise AnalysisError(
                f"checkpoint candidates[{index}] is not a serialised "
                f"candidate ({error!r})"
            ) from None


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
PointKey = Tuple[Tuple[str, Value], ...]

#: Errors that make a point an infeasible candidate instead of failing
#: the search.
_INFEASIBLE = (
    ArchitectureError,
    PartitioningError,
    MemoryCapacityError,
    SchedulingError,
)


def _strategy_name(name: Value) -> str:
    """The canonical name of a point's strategy, as given if unknown."""
    try:
        return get_strategy(name).name
    except UnknownStrategyError:
        return str(name)


class DesignEvaluator:
    """Evaluates search-space points through one shared session.

    Every unique point is materialised, run, and (when any objective
    needs it) served exactly once; repeats return the cached
    :class:`Candidate`.  Together with the session's own content-hash
    memoisation this guarantees at most one simulator evaluation per
    unique configuration regardless of how often a searcher revisits it
    — and when the session carries a persistent cache
    (:mod:`repro.api.cache`, the ``repro tune`` default), points
    evaluated by *any previous process* are answered from disk, so
    repeated or resumed searches over the same space start warm.

    Points announced ahead of the walk (:meth:`announce`) are evaluated
    together: on a miss, :meth:`evaluate` runs the requested point and
    the announced points that follow it through one
    :meth:`~repro.api.Session.run_many` call, and records each candidate
    when the walk reaches its point.
    """

    def __init__(
        self,
        session: Session,
        workload: Workload,
        objectives: Sequence[Objective],
        *,
        serving: Optional[ServingScenario] = None,
        default_strategy: str = "paper",
    ) -> None:
        if not objectives:
            raise AnalysisError("the evaluator needs at least one objective")
        self.session = session
        self.workload = workload
        self.objectives = tuple(objectives)
        self.default_strategy = default_strategy
        needs_serving = any(obj.requires_serving for obj in self.objectives)
        self.serving = serving if serving is not None else (
            ServingScenario() if needs_serving else None
        )
        self._needs_serving = needs_serving
        self._candidates: Dict[PointKey, Candidate] = {}
        self._requested = 0
        # The points the walk requests next, and the points evaluated
        # ahead of it: key -> (design or None, result or error).
        self._upcoming: Deque[Mapping[str, Value]] = deque()
        self._evaluated: Dict[PointKey, tuple] = {}

    @property
    def history(self) -> Tuple[Candidate, ...]:
        """Unique evaluated candidates, in first-evaluation order."""
        return tuple(self._candidates.values())

    @property
    def evaluations_requested(self) -> int:
        """Total :meth:`evaluate` calls, including cache-hit repeats."""
        return self._requested

    @property
    def unique_evaluations(self) -> int:
        """Number of unique candidates known (preloaded ones included)."""
        return len(self._candidates)

    def is_cached(self, point: Mapping[str, Value]) -> bool:
        """Whether ``point`` already has a candidate (no engine run needed)."""
        return point_key(point) in self._candidates

    def preload(self, candidates: Sequence[Mapping[str, Any]]) -> None:
        """Seed the memo with a checkpoint's candidates (``as_dict`` forms).

        This is how a checkpoint resume avoids re-paying evaluated
        points: the searcher replays deterministically and every
        preloaded point is answered from here, without an engine run and
        without touching :attr:`evaluations_requested`.  Insertion order
        is preserved, so :attr:`history` keeps the original evaluation
        order, and each candidate's objective values are put back in
        measurement order (a checkpoint stores them with sorted keys).

        Raises:
            AnalysisError: If an entry is not a serialised candidate.
        """
        rank = {objective.name: at for at, objective in enumerate(self.objectives)}
        for index, data in enumerate(candidates):
            candidate = Candidate.from_dict(data, index)
            values = sorted(
                candidate.objective_values,
                key=lambda item: rank.get(item[0], len(rank)),
            )
            candidate = replace(candidate, objective_values=tuple(values))
            self._candidates.setdefault(candidate.point, candidate)

    def announce(self, points: Sequence[Point]) -> None:
        """Queue the points the walk will request next, in order.

        A miss whose point is not the next announced new point drops the
        queue: the walk left the announced order.
        """
        self._upcoming.extend(points)

    def evaluate(
        self,
        point: Mapping[str, Value],
        *,
        window: Optional[int] = None,
        parallel: Optional[int] = None,
    ) -> Candidate:
        """Measure one point (memoised by canonical point identity).

        On a miss, the point and the announced new points that follow it
        (at most ``window`` points in all; every announced one when
        ``None``) are evaluated in one session call, across ``parallel``
        worker processes when that is above one
        (:meth:`~repro.api.Session.run_many`).
        """
        self._requested += 1
        key = point_key(point)
        cached = self._candidates.get(key)
        if cached is not None:
            return cached
        if key not in self._evaluated:
            self._evaluate_window(key, point, window, parallel)
        candidate = self._candidate(key, point, *self._evaluated.pop(key))
        self._candidates[key] = candidate
        return candidate

    def _evaluate_window(
        self,
        key: PointKey,
        point: Mapping[str, Value],
        window: Optional[int],
        parallel: Optional[int],
    ) -> None:
        """Evaluate ``point`` and the announced new points that follow it."""
        designs = []
        for batch_key, batch_point in self._window(key, point, window):
            try:
                designs.append(
                    materialise(
                        batch_point,
                        default_strategy=self.default_strategy,
                        workload=self.workload,
                    )
                )
            except ReproError as error:
                self._evaluated[batch_key] = (None, detached(error))
        outcomes = self.session.run_many(
            [
                (self._workload_of(design), design.strategy, design.platform)
                for design in designs
            ],
            parallel=parallel,
        )
        for design, outcome in zip(designs, outcomes):
            self._evaluated[design.point] = (design, outcome)

    def _window(
        self, key: PointKey, point: Mapping[str, Value], window: Optional[int]
    ) -> Iterator[Tuple[PointKey, Mapping[str, Value]]]:
        """``point`` and the announced new points after it, taken off the queue."""
        yield key, point
        upcoming = self._upcoming
        while (
            upcoming
            and upcoming[0] != point
            and self._known(point_key(upcoming[0]))
        ):
            upcoming.popleft()
        if not upcoming or upcoming[0] != point:
            upcoming.clear()  # the walk left the announced order
            return
        upcoming.popleft()
        limit = len(upcoming) + 1 if window is None else window
        taken = {key}
        while upcoming and len(taken) < limit:
            upcoming_key = point_key(upcoming[0])
            if upcoming_key not in taken and not self._known(upcoming_key):
                taken.add(upcoming_key)
                yield upcoming_key, upcoming[0]
            upcoming.popleft()

    def _known(self, key: PointKey) -> bool:
        return key in self._candidates or key in self._evaluated

    def _candidate(
        self,
        key: PointKey,
        point: Mapping[str, Value],
        design: Optional[DesignPoint],
        outcome: Union[EvalResult, ReproError],
    ) -> Candidate:
        """The candidate of an evaluated point, feasible or not.

        Raises the point's error (or its serving error) unless it marks
        the point infeasible.
        """
        if isinstance(outcome, ReproError):
            if not isinstance(outcome, _INFEASIBLE):
                raise outcome
            return self._infeasible(key, point, design, outcome)
        serving_report = None
        if self._needs_serving:
            try:
                serving_report = self._serve(design)
            except _INFEASIBLE as error:
                return self._infeasible(key, point, design, error)
        measurement = Measurement(
            design=design, result=outcome, serving=serving_report
        )
        values = tuple(
            (objective.name, float(objective.value(measurement)))
            for objective in self.objectives
        )
        return Candidate(
            point=key,
            strategy=design.strategy,
            num_chips=design.platform.num_chips,
            feasible=True,
            objective_values=values,
            block_cycles=outcome.block_cycles,
            block_runtime_seconds=outcome.block_runtime_seconds,
            block_energy_joules=outcome.block_energy_joules,
        )

    def _infeasible(
        self,
        key: PointKey,
        point: Mapping[str, Value],
        design: Optional[DesignPoint],
        error: ReproError,
    ) -> Candidate:
        return Candidate(
            point=key,
            strategy=(
                design.strategy
                if design is not None
                else _strategy_name(point.get("strategy", self.default_strategy))
            ),
            num_chips=int(point.get("chips", 8)),
            feasible=False,
            note=f"{type(error).__name__}: {error}",
        )

    def _workload_of(self, design: DesignPoint) -> Workload:
        return design.workload if design.workload is not None else self.workload

    def _serve(self, design: DesignPoint):
        scenario = self.serving
        assert scenario is not None
        return self.session.serve(
            self._workload_of(design).config,
            scenario.trace(),
            policy=scenario.policy,
            strategy=design.strategy,
            platform=design.platform,
            seed=scenario.seed,
            max_context=scenario.max_context,
            slo_targets=(scenario.ttft_slo_s,),
        )


# ----------------------------------------------------------------------
# Tune result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run — the ``Session.tune`` deliverable.

    Attributes:
        workload: The tuned workload.
        searcher: Canonical name of the search algorithm.
        space: The searched space.
        seed: The search seed.
        budget: The evaluation budget the searcher was granted.
        objectives: The Pareto objectives, in request order.
        constraints: The feasibility constraints.
        candidates: Unique evaluated candidates, in evaluation order.
        front: The constraint-feasible Pareto front, in evaluation order.
        evaluations_requested: Searcher evaluation calls, repeats included.
        cache: The session's memoisation statistics after the run.
    """

    workload: Workload
    searcher: str
    space: SearchSpace
    seed: int
    budget: int
    objectives: Tuple[Objective, ...]
    constraints: Tuple[Constraint, ...]
    candidates: Tuple[Candidate, ...]
    front: Tuple[Candidate, ...]
    evaluations_requested: int
    cache: CacheInfo

    @property
    def objective_names(self) -> Tuple[str, ...]:
        """Names of the Pareto objectives, in request order."""
        return tuple(objective.name for objective in self.objectives)

    def feasible(self) -> Tuple[Candidate, ...]:
        """Candidates that evaluated and satisfy every constraint."""
        return tuple(filter_constraints(self.candidates, self.constraints))

    def best(self, objective: Optional[str] = None) -> Candidate:
        """The best feasible candidate by one objective (default: the first).

        Raises:
            AnalysisError: If no candidate is feasible, or the objective
                is not part of this run.
        """
        name = objective if objective is not None else self.objective_names[0]
        if name not in self.objective_names:
            raise AnalysisError(
                f"objective {name!r} is not part of this tuning run "
                f"(objectives: {', '.join(self.objective_names)})"
            )
        eligible = self.feasible()
        if not eligible:
            raise AnalysisError(
                "no feasible candidate: every evaluated point was "
                "infeasible or violated a constraint"
            )
        spec = next(obj for obj in self.objectives if obj.name == name)
        chooser = min if spec.sense is Sense.MIN else max
        return chooser(eligible, key=lambda candidate: candidate.value(name))

    def to_dict(self, *, cache: Optional[CacheInfo] = None) -> Dict[str, Any]:
        """JSON-serialisable form (the ``repro tune --json`` document).

        Candidates and the front appear in evaluation order; together
        with the deterministic searchers this makes the document
        byte-identical across runs for equal seed/space/budget.  Pass the
        session's :meth:`~repro.api.Session.cache_info` (after the run it
        equals :attr:`cache`) as ``cache`` to include the memoisation
        statistics, which depend on evaluation history rather than on the
        tuning inputs; a study artifact leaves them out.
        """
        document: Dict[str, Any] = {
            "workload": self.workload.name,
            "searcher": self.searcher,
            "seed": self.seed,
            "budget": self.budget,
            "objectives": [
                {"name": objective.name, "sense": objective.sense.value}
                for objective in self.objectives
            ],
            "constraints": [
                constraint.render() for constraint in self.constraints
            ],
            "space": {
                "axes": list(self.space.names),
                "size": self.space.size,
            },
            "evaluations_requested": self.evaluations_requested,
            "candidates": [candidate.as_dict() for candidate in self.candidates],
            "front": [candidate.as_dict() for candidate in self.front],
        }
        if cache is not None:
            document["cache"] = cache.to_dict()
        return document

    def to_json(self, *, cache: Optional[CacheInfo] = None) -> str:
        """Deterministic JSON document (sorted keys, stable float reprs)."""
        return json.dumps(self.to_dict(cache=cache), indent=2, sort_keys=True)

    def render(self) -> str:
        """Plain-text summary: run header plus the Pareto-front table."""
        from ..analysis.tables import format_table

        lines = [
            (
                f"Tuned {self.workload.name} with searcher "
                f"'{self.searcher}' (seed {self.seed}): "
                f"{len(self.candidates)} unique / "
                f"{self.evaluations_requested} requested evaluations "
                f"of budget {self.budget}"
            ),
            (
                f"  objectives : "
                + ", ".join(
                    f"{obj.name} ({obj.sense.value})" for obj in self.objectives
                )
            ),
        ]
        if self.constraints:
            lines.append(
                "  constraints: "
                + ", ".join(constraint.render() for constraint in self.constraints)
            )
        lines.append(
            f"  cache      : {self.cache.hits} hits, "
            f"{self.cache.misses} misses, {self.cache.size} entries"
        )
        if not self.front:
            lines.append("  Pareto front: empty (no feasible candidate)")
            return "\n".join(lines)
        axis_names = list(self.space.names)
        header = axis_names + [
            f"{obj.name} ({obj.sense.value})" for obj in self.objectives
        ]
        first = self.objectives[0]
        ordered = sorted(
            self.front,
            key=lambda candidate: (
                candidate.value(first.name)
                * (1.0 if first.sense is Sense.MIN else -1.0)
            ),
        )
        rows = []
        for candidate in ordered:
            point = candidate.point_dict
            row = [_format_value(point.get(name)) for name in axis_names]
            row += [
                f"{candidate.value(obj.name):.6g}" for obj in self.objectives
            ]
            rows.append(row)
        lines.append(f"  Pareto front ({len(self.front)} points):")
        lines.append(format_table(header, rows))
        return "\n".join(lines)


def _format_value(value: Optional[Value]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# ----------------------------------------------------------------------
# The tuning run
# ----------------------------------------------------------------------
def run_tune(
    session: Session,
    workload: Workload,
    space: Optional[SearchSpace] = None,
    *,
    searcher: str = "random",
    budget: int = 24,
    seed: int = 0,
    objectives: Sequence[Union[str, Objective]] = ("latency", "energy"),
    constraints: Sequence[Union[str, Constraint]] = (),
    serving: Optional[ServingScenario] = None,
    parallel: Optional[int] = None,
    checkpoint: Optional[Any] = None,
    checkpoint_every: Optional[int] = None,
    resume: Optional[Any] = None,
) -> TuneResult:
    """Search a design space for ``workload`` and extract the Pareto front.

    This is the engine behind :meth:`repro.api.Session.tune`; see there
    for the user-facing contract.  Constraint objectives that are not
    also Pareto objectives are measured anyway (so a run can constrain on
    ``slo`` while trading off ``latency`` vs ``hw_cost``).

    Every run is driven through the
    :class:`~repro.dse.orchestrator.SearchOrchestrator`, which adds
    process-pool evaluation (``parallel``) and checkpoint/resume
    (``checkpoint``/``checkpoint_every``/``resume``) without changing
    the visited candidate sequence — a parallel or resumed run is
    byte-identical to a serial uninterrupted one.
    """
    from .orchestrator import SearchOrchestrator
    from .searchers import get_searcher

    if budget <= 0:
        raise AnalysisError(f"tuning budget must be positive, got {budget}")
    resolved_space = space if space is not None else default_space()
    pareto_objectives = tuple(
        get_objective(obj) if isinstance(obj, str) else obj for obj in objectives
    )
    if not pareto_objectives:
        raise AnalysisError("tuning needs at least one objective")
    resolved_constraints = tuple(
        parse_constraint(constraint) if isinstance(constraint, str) else constraint
        for constraint in constraints
    )
    measured = list(pareto_objectives)
    measured_names = {objective.name for objective in measured}
    for constraint in resolved_constraints:
        if constraint.objective not in measured_names:
            measured.append(get_objective(constraint.objective))
            measured_names.add(constraint.objective)
    algorithm = get_searcher(searcher)
    evaluator = DesignEvaluator(
        session, workload, tuple(measured), serving=serving
    )
    orchestrator = SearchOrchestrator(
        evaluator,
        algorithm,
        resolved_space,
        pareto_objectives,
        budget=budget,
        seed=seed,
        constraints=resolved_constraints,
        parallel=parallel,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
    orchestrator.run()
    candidates = evaluator.history
    eligible = filter_constraints(candidates, resolved_constraints)
    front = tuple(pareto_front(eligible, pareto_objectives))
    return TuneResult(
        workload=workload,
        searcher=algorithm.name,
        space=resolved_space,
        seed=seed,
        budget=budget,
        objectives=pareto_objectives,
        constraints=resolved_constraints,
        candidates=candidates,
        front=front,
        evaluations_requested=evaluator.evaluations_requested,
        cache=session.cache_info(),
    )
