"""Dominance checks, Pareto-front extraction, and constraint filtering.

All functions work in *minimisation space*: a maximised objective's value
is negated before comparison, so "dominates" always means "no worse on
every objective and strictly better on at least one".  Candidates are
duck-typed — anything with a ``feasible`` flag and a ``value(name)``
accessor (the engine's :class:`~repro.dse.engine.Candidate`) works.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import le
from typing import List, Sequence, Tuple, TypeVar

from ..errors import AnalysisError, ConfigurationError
from ..spec.base import require_finite
from .objectives import Objective, Sense

__all__ = [
    "Constraint",
    "dominates",
    "filter_constraints",
    "objective_vector",
    "parse_constraint",
    "pareto_front",
]

CandidateT = TypeVar("CandidateT")


def objective_vector(
    candidate, objectives: Sequence[Objective]
) -> Tuple[float, ...]:
    """The candidate's objective values, sign-folded into minimisation space."""
    return tuple(
        candidate.value(objective.name)
        * (1.0 if objective.sense is Sense.MIN else -1.0)
        for objective in objectives
    )


def dominates(a, b, objectives: Sequence[Objective]) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` on the given objectives.

    Requires both candidates to be feasible; dominance over an infeasible
    candidate is undefined (infeasible points never enter a front).
    """
    if not objectives:
        raise AnalysisError("dominance needs at least one objective")
    if not (a.feasible and b.feasible):
        raise AnalysisError("dominance is only defined between feasible candidates")
    return _vector_dominates(
        objective_vector(a, objectives), objective_vector(b, objectives)
    )


def _vector_dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Dominance between minimisation vectors: ``<=`` everywhere and unequal.

    A NaN fails every ``<=``, so a vector holding one neither dominates
    nor is dominated.
    """
    return a != b and all(map(le, a, b))


def pareto_front(
    candidates: Sequence[CandidateT], objectives: Sequence[Objective]
) -> List[CandidateT]:
    """The non-dominated feasible candidates, in input order.

    Candidates with identical objective vectors are all kept (neither
    dominates the other); infeasible candidates are skipped.  A vector
    holding a NaN compares false both ways, so its candidate neither
    dominates nor is dominated and is always kept.

    Each objective vector is computed once.  Sorted lexicographically, a
    dominator always precedes what it dominates, and dominance is
    transitive, so each candidate only needs testing against the front
    built so far: O(n log n + n * |front|) instead of O(n^2).
    """
    if not objectives:
        raise AnalysisError("a Pareto front needs at least one objective")
    feasible = [c for c in candidates if c.feasible]
    if len(feasible) < 2:
        return feasible
    vectors = [objective_vector(candidate, objectives) for candidate in feasible]
    members: List[int] = []
    comparable: List[int] = []
    for index, vector in enumerate(vectors):
        has_nan = any(value != value for value in vector)
        (members if has_nan else comparable).append(index)
    front: List[Tuple[float, ...]] = []
    for index in sorted(comparable, key=vectors.__getitem__):
        vector = vectors[index]
        if not any(_vector_dominates(other, vector) for other in front):
            front.append(vector)
            members.append(index)
    return [feasible[index] for index in sorted(members)]


# ----------------------------------------------------------------------
# Constraints
# ----------------------------------------------------------------------
_CONSTRAINT_RE = re.compile(
    r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(<=|>=)\s*([-+0-9.eE]+)\s*$"
)


@dataclass(frozen=True)
class Constraint:
    """A bound on one objective: ``objective <= bound`` or ``>= bound``."""

    objective: str
    op: str
    bound: float

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ConfigurationError(
                f"constraint operator must be <= or >=, got {self.op!r}"
            )
        require_finite(f"constraint {self.objective!r} ", self, ("bound",))

    def satisfied_by(self, candidate) -> bool:
        """Whether a feasible candidate meets the bound."""
        if not candidate.feasible:
            return False
        value = candidate.value(self.objective)
        return value <= self.bound if self.op == "<=" else value >= self.bound

    def render(self) -> str:
        """The constraint in its parseable ``name<=bound`` text form."""
        return f"{self.objective}{self.op}{self.bound:g}"


def parse_constraint(text: str) -> Constraint:
    """Parse ``"latency<=0.01"`` / ``"slo>=0.95"`` into a :class:`Constraint`."""
    match = _CONSTRAINT_RE.match(text)
    if not match:
        raise ConfigurationError(
            f"cannot parse constraint {text!r}; expected "
            "<objective><=|>=><number>, e.g. 'latency<=0.01'"
        )
    name, op, bound = match.groups()
    try:
        value = float(bound)
    except ValueError:
        raise ConfigurationError(
            f"constraint {text!r} has a non-numeric bound {bound!r}"
        ) from None
    return Constraint(objective=name, op=op, bound=value)


def filter_constraints(
    candidates: Sequence[CandidateT], constraints: Sequence[Constraint]
) -> List[CandidateT]:
    """The feasible candidates satisfying every constraint, in input order."""
    return [
        candidate
        for candidate in candidates
        if candidate.feasible
        and all(constraint.satisfied_by(candidate) for constraint in constraints)
    ]
