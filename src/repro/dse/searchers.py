"""Pluggable search algorithms and their registry.

A *searcher* decides which points of a :class:`~repro.dse.space.
SearchSpace` get evaluated within a budget.  Searchers register by name
with :func:`register_searcher` — mirroring the strategy/policy/objective
registries — so a new search idea becomes available to
:meth:`repro.api.Session.tune` and the ``repro tune`` CLI by writing one
class::

    from repro.dse import register_searcher

    @register_searcher
    class CoordinateSearcher:
        name = "coordinate"
        label = "Axis-by-axis coordinate descent"

        def search(self, space, evaluate, objectives, *, budget, rng):
            ...

The ``evaluate`` callable maps a point to a measured
:class:`~repro.dse.engine.Candidate` and is memoised per unique point
(and, through the session's persistent cache, across processes — see
:mod:`repro.api.cache`), so revisiting a configuration costs nothing;
``budget`` caps the number of ``evaluate`` calls (repeats included).  All randomness must come from the
passed :class:`random.Random`, which is what makes every shipped searcher
bit-reproducible for equal seeds.

Six searchers ship: exhaustive ``grid``, uniform ``random``,
simulated-annealing ``anneal`` (Metropolis acceptance over a normalised
scalarisation of the objectives), a small ``evolution`` strategy
(mutation + uniform crossover with non-dominated survivor selection),
and two multi-fidelity searchers built for the orchestrator
(:mod:`repro.dse.orchestrator`): ``halving`` (successive halving whose
rung pools are triaged by a free analytic proxy before any budget is
spent) and ``surrogate`` (a numpy-only ridge-regression surrogate that
ranks cheap predictions to propose evaluation batches).

One optional hook lets the orchestrator batch and parallelise a
searcher without changing its visited sequence: when the ``evaluate``
callable has a ``prefill`` attribute, a searcher may call
``evaluate.prefill(points)`` to announce the points it evaluates next,
in order.  ``grid`` and ``random`` announce their whole schedule before
the first evaluation, ``halving`` and ``surrogate`` each batch.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Protocol, Sequence, Tuple, runtime_checkable

from ..errors import ConfigurationError, UnknownSearcherError
from ..registry import Registry, instantiate
from .objectives import Objective
from .pareto import objective_vector
from .space import Point, SearchSpace, point_key

__all__ = [
    "AnnealingSearcher",
    "EvolutionarySearcher",
    "GridSearcher",
    "HalvingSearcher",
    "RandomSearcher",
    "SearchAlgorithm",
    "SurrogateSearcher",
    "get_searcher",
    "list_searchers",
    "register_searcher",
    "unregister_searcher",
]

#: Signature of the (memoised) point evaluator a searcher drives.
Evaluate = Callable[[Point], "object"]


@runtime_checkable
class SearchAlgorithm(Protocol):
    """What the registry requires of a search algorithm.

    Attributes:
        name: Registry key (lowercase snake_case by convention).
        label: Human-readable description shown by the CLI.
    """

    name: str
    label: str

    def search(
        self,
        space: SearchSpace,
        evaluate: Evaluate,
        objectives: Sequence[Objective],
        *,
        budget: int,
        rng: random.Random,
    ) -> Sequence[object]:
        """Drive up to ``budget`` evaluations; return the visited candidates."""
        ...


_SEARCHERS: Registry[SearchAlgorithm] = Registry("searcher", UnknownSearcherError)


def register_searcher(searcher):
    """Class decorator (or direct call) registering a search algorithm.

    Accepts either a searcher *class* (instantiated with no arguments) or
    a ready-made instance; registered under its ``name`` plus any names in
    an optional ``aliases`` tuple.  Returns the argument unchanged so it
    can be used as a decorator.

    Raises:
        ConfigurationError: If the name is missing or taken, the aliases
            are not a tuple of names, or the object does not implement
            :class:`SearchAlgorithm`.
    """
    _SEARCHERS.add(instantiate(searcher, "searcher", SearchAlgorithm))
    return searcher


#: Remove a searcher (and its aliases) from the registry.
unregister_searcher = _SEARCHERS.remove

#: Look up a registered searcher by name or alias; raises
#: :class:`~repro.errors.UnknownSearcherError`, listing the available
#: names, if no searcher is registered under it.
get_searcher = _SEARCHERS.get

#: Sorted canonical names of all registered searchers.
list_searchers = _SEARCHERS.names


def _prefill_hook(evaluate):
    """The orchestrator's announcement hook, if the callable offers one."""
    return getattr(evaluate, "prefill", None)


# ----------------------------------------------------------------------
# Scalarisation (annealing)
# ----------------------------------------------------------------------
class _RunningScalariser:
    """Normalised weighted sum over the objective values seen so far.

    Values are folded into minimisation space, then each objective is
    min-max normalised against the running bounds; infeasible candidates
    scalarise to ``+inf`` so any feasible neighbour beats them.
    """

    def __init__(self, objectives: Sequence[Objective]) -> None:
        self.objectives = tuple(objectives)
        self._bounds: Dict[str, Tuple[float, float]] = {}

    def observe(self, candidate) -> None:
        if not candidate.feasible:
            return
        for objective, value in zip(
            self.objectives, objective_vector(candidate, self.objectives)
        ):
            low, high = self._bounds.get(objective.name, (value, value))
            self._bounds[objective.name] = (min(low, value), max(high, value))

    def scalar(self, candidate) -> float:
        if not candidate.feasible:
            return math.inf
        total = 0.0
        for objective, value in zip(
            self.objectives, objective_vector(candidate, self.objectives)
        ):
            low, high = self._bounds.get(objective.name, (value, value))
            if high > low:
                total += (value - low) / (high - low)
        return total / len(self.objectives)


# ----------------------------------------------------------------------
# Shipped searchers
# ----------------------------------------------------------------------
@register_searcher
class GridSearcher:
    """Exhaustive enumeration of a finite space, truncated at the budget."""

    name = "grid"
    aliases = ("exhaustive",)
    label = "Exhaustive grid enumeration (finite spaces)"

    def search(self, space, evaluate, objectives, *, budget, rng):
        if space.size is None:
            raise ConfigurationError(
                "grid search needs a finite space; give every float axis "
                "explicit levels (or use the random/anneal searchers)"
            )
        points = [point for _, point in zip(range(budget), space.grid())]
        prefill = _prefill_hook(evaluate)
        if prefill is not None:
            prefill(points)
        return [evaluate(point) for point in points]


@register_searcher
class RandomSearcher:
    """Uniform random sampling; duplicates hit the evaluator's cache."""

    name = "random"
    label = "Uniform random sampling"

    def search(self, space, evaluate, objectives, *, budget, rng):
        prefill = _prefill_hook(evaluate)
        if prefill is not None:
            # The walk draws nothing but its samples, so a copy of the
            # generator announces the whole schedule and leaves the
            # walk's own draws untouched.
            ahead = random.Random()
            ahead.setstate(rng.getstate())
            prefill([space.sample(ahead) for _ in range(budget)])
        return [evaluate(space.sample(rng)) for _ in range(budget)]


@register_searcher
class AnnealingSearcher:
    """Simulated annealing on a normalised scalarisation of the objectives.

    A geometric temperature schedule cools from 1.0 to 0.01 across the
    budget; moves are single-axis mutations, accepted when they improve
    the scalarised objective or with Metropolis probability otherwise.
    """

    name = "anneal"
    aliases = ("annealing", "simulated_annealing")
    label = "Simulated annealing (scalarised objectives)"

    initial_temperature = 1.0
    final_temperature = 0.01

    def search(self, space, evaluate, objectives, *, budget, rng):
        scalariser = _RunningScalariser(objectives)
        current = evaluate(space.sample(rng))
        scalariser.observe(current)
        visited = [current]
        if budget <= 1:
            return visited
        cooling = (self.final_temperature / self.initial_temperature) ** (
            1.0 / (budget - 1)
        )
        temperature = self.initial_temperature
        for _ in range(budget - 1):
            candidate = evaluate(space.mutate(current.point_dict, rng))
            scalariser.observe(candidate)
            visited.append(candidate)
            delta = scalariser.scalar(candidate) - scalariser.scalar(current)
            if delta <= 0 or (
                math.isfinite(delta)
                and rng.random() < math.exp(-delta / temperature)
            ):
                current = candidate
            temperature *= cooling
        return visited


@register_searcher
class EvolutionarySearcher:
    """A small (mu + lambda) evolution strategy with Pareto selection.

    Parents are drawn uniformly from the surviving population; offspring
    come from uniform crossover (probability 0.5) or single-axis
    mutation.  Survivor selection keeps the ``population_size`` candidates
    with the fewest dominators (ties broken by age), so the population
    drifts toward the Pareto front without collapsing to one scalar.
    """

    name = "evolution"
    aliases = ("evolutionary", "ga")
    label = "Evolutionary search (mutation + crossover, Pareto selection)"

    population_size = 4
    crossover_probability = 0.5

    def search(self, space, evaluate, objectives, *, budget, rng):
        mu = min(self.population_size, budget)
        visited = [evaluate(space.sample(rng)) for _ in range(mu)]
        population = list(visited)
        evaluations = mu
        while evaluations < budget:
            parent = population[rng.randrange(len(population))]
            if (
                len(population) > 1
                and rng.random() < self.crossover_probability
            ):
                other = population[rng.randrange(len(population))]
                child_point = self._crossover(
                    space, parent.point_dict, other.point_dict, rng
                )
            else:
                child_point = space.mutate(parent.point_dict, rng)
            child = evaluate(child_point)
            visited.append(child)
            population.append(child)
            evaluations += 1
            population = self._select(population, objectives, mu)
        return visited

    @staticmethod
    def _crossover(
        space: SearchSpace, a: Point, b: Point, rng: random.Random
    ) -> Point:
        return {
            axis.name: (a if rng.random() < 0.5 else b)[axis.name]
            for axis in space.axes
        }

    @staticmethod
    def _select(population, objectives, mu):
        feasible = [c for c in population if c.feasible]

        def rank(entry):
            index, candidate = entry
            if not candidate.feasible:
                return (math.inf, index)
            vector = objective_vector(candidate, objectives)
            dominators = sum(
                1
                for other in feasible
                if other is not candidate
                and all(
                    x <= y
                    for x, y in zip(objective_vector(other, objectives), vector)
                )
                and any(
                    x < y
                    for x, y in zip(objective_vector(other, objectives), vector)
                )
            )
            return (dominators, index)

        ordered = sorted(enumerate(population), key=rank)
        return [candidate for _, candidate in ordered[:mu]]


# ----------------------------------------------------------------------
# Multi-fidelity searchers (orchestrator-aware)
# ----------------------------------------------------------------------
def _proxy_score(point: Point) -> float:
    """A free analytic cost proxy used only to *triage* candidate pools.

    A crude closed-form latency x energy estimate from the platform axes
    alone (compute throughput, chip-to-chip share, L2 pressure), scaled
    relative to the paper's Siracusa + MIPI operating point.  It costs no
    budget and is never reported — every measured value still comes from
    a real evaluation — so its only job is to make the halving rungs
    spend their budget on the more promising half of a sampled pool.
    """
    chips = float(point.get("chips", 8) or 8)
    cores = float(point.get("cores", 8) or 8)
    freq = float(point.get("freq_mhz", 400.0) or 400.0)
    link = float(point.get("link_gbps", 0.5) or 0.5)
    l2 = float(point.get("l2_kib", 2048) or 2048)
    link_pj = float(point.get("link_pj_per_byte", 100.0) or 100.0)
    compute = 1.0 / max(1e-9, chips * (cores / 8.0) * (freq / 400.0))
    comm = (
        0.0
        if chips <= 1
        else 0.3 * (chips - 1.0) / chips / max(1e-9, link / 0.5)
    )
    spill = 0.2 / max(1e-9, l2 / 2048.0)
    latency = compute + comm + spill
    energy = chips * (0.5 + 0.5 * freq / 400.0) + 0.3 * (
        link_pj / 100.0
    ) * min(chips - 1.0, 1.0)
    return latency * max(1e-9, energy)


@register_searcher
class HalvingSearcher:
    """Successive halving with free proxy triage and batched rungs.

    Each rung samples a candidate pool ``triage_factor`` times larger
    than the rung's evaluation batch (half fresh samples, half mutations
    of the previous rung's survivors), ranks it with the free analytic
    proxy (:func:`_proxy_score`), and pays real evaluations only for the
    best-ranked batch.  Rung sizes halve geometrically across the
    budget; survivors are the scalariser-best half of each measured
    batch.  Batches are announced through ``evaluate.prefill`` when the
    orchestrator provides it, so rungs parallelise across worker
    processes without changing the visited sequence.
    """

    name = "halving"
    aliases = ("successive_halving", "sha")
    label = "Successive halving (proxy-triaged rungs, batched)"

    triage_factor = 4

    def search(self, space, evaluate, objectives, *, budget, rng):
        prefill = _prefill_hook(evaluate)
        scalariser = _RunningScalariser(objectives)
        visited = []
        survivors: List[Point] = []
        remaining = budget
        while remaining > 0:
            rung = max(1, (remaining + 1) // 2) if remaining > 2 else remaining
            pool: List[Point] = []
            for index in range(rung * self.triage_factor):
                if survivors and index % 2 == 0:
                    base = survivors[rng.randrange(len(survivors))]
                    pool.append(space.mutate(base, rng))
                else:
                    pool.append(space.sample(rng))
            ranked = sorted(
                enumerate(pool), key=lambda entry: (_proxy_score(entry[1]), entry[0])
            )
            batch = [point for _, point in ranked[:rung]]
            if prefill is not None and len(batch) > 1:
                prefill(batch)
            measured = []
            for point in batch:
                candidate = evaluate(point)
                scalariser.observe(candidate)
                measured.append(candidate)
                visited.append(candidate)
            feasible = [c for c in measured if c.feasible]
            ordered = sorted(
                enumerate(feasible),
                key=lambda entry: (scalariser.scalar(entry[1]), entry[0]),
            )
            keep = max(1, rung // 2)
            survivors = [c.point_dict for _, c in ordered[:keep]]
            remaining -= rung
        return visited


class _PointEncoder:
    """Encode points as vectors in ``[0, 1]^d`` for the surrogate model.

    Numeric axes are min-max normalised against their declared bounds
    (or value set); non-numeric choice axes use the choice index.  The
    encoding is a fixed function of the space, so equal runs produce
    equal design matrices.
    """

    def __init__(self, space: SearchSpace) -> None:
        self.space = space

    def encode(self, point: Point) -> List[float]:
        vector = []
        for axis in self.space.axes:
            value = point[axis.name]
            choices = getattr(axis, "choices", None)
            if choices is not None and any(
                isinstance(choice, bool) or not isinstance(choice, (int, float))
                for choice in choices
            ):
                index = next(
                    i for i, choice in enumerate(choices) if choice == value
                )
                span = max(1, len(choices) - 1)
                vector.append(index / span)
                continue
            values = (
                choices
                if choices is not None
                else (
                    axis.levels
                    if getattr(axis, "levels", None) is not None
                    else (axis.low, axis.high)
                )
            )
            low = float(min(values))
            high = float(max(values))
            span = high - low
            vector.append((float(value) - low) / span if span > 0 else 0.5)
        return vector


@register_searcher
class SurrogateSearcher:
    """Surrogate-ranked batch search (numpy-only, BoFire-spirited).

    After a random seed batch, each round fits one ridge regression per
    objective on quadratic features of the evaluated feasible points,
    scores a freshly sampled candidate pool with the cheap predictions
    (per-objective min-max normalised, averaged), and proposes the
    best-ranked unevaluated points as the next evaluation batch — the
    propose-from-cheap-predictions loop of a production optimizer,
    without the quantile-forest machinery.  Needs :mod:`numpy` (a
    lazy import, so registration never does); batches are announced
    through ``evaluate.prefill`` when the orchestrator provides it.
    """

    name = "surrogate"
    aliases = ("model_guided",)
    label = "Surrogate-ranked batches (numpy ridge regression)"

    pool_size = 64
    ridge_lambda = 1e-3

    def search(self, space, evaluate, objectives, *, budget, rng):
        try:
            import numpy as np
        except ImportError:
            raise ConfigurationError(
                "the surrogate searcher needs numpy, which is not "
                "installed; choose another searcher (see `repro searchers`)"
            ) from None
        prefill = _prefill_hook(evaluate)
        encoder = _PointEncoder(space)
        visited = []
        evaluated_keys = set()

        def run_batch(points):
            if prefill is not None and len(points) > 1:
                prefill(points)
            for point in points:
                candidate = evaluate(point)
                evaluated_keys.add(candidate.point)
                visited.append(candidate)

        seed_count = min(budget, max(4, budget // 4))
        run_batch([space.sample(rng) for _ in range(seed_count)])
        remaining = budget - seed_count
        while remaining > 0:
            batch_size = min(remaining, max(2, budget // 6))
            proposals = self._propose(
                np,
                space,
                encoder,
                visited,
                evaluated_keys,
                objectives,
                batch_size,
                rng,
            )
            run_batch(proposals)
            remaining -= len(proposals)
        return visited

    # ------------------------------------------------------------------
    # Proposal machinery
    # ------------------------------------------------------------------
    def _propose(
        self,
        np,
        space,
        encoder,
        visited,
        evaluated_keys,
        objectives,
        batch_size,
        rng,
    ):
        unique = {}
        for candidate in visited:
            if candidate.feasible and candidate.point not in unique:
                unique[candidate.point] = candidate
        observed = list(unique.values())
        pool = [space.sample(rng) for _ in range(self.pool_size)]
        if len(observed) < 4:
            # Not enough signal to fit anything: stay random.
            return pool[:batch_size]
        features = np.array(
            [
                self._features(encoder.encode(c.point_dict))
                for c in observed
            ]
        )
        # Senses fold into minimisation space here, like every other
        # searcher's scalarisation.
        folded = [objective_vector(c, objectives) for c in observed]
        models = []
        for column in range(len(objectives)):
            targets = np.array([vector[column] for vector in folded])
            low, high = float(targets.min()), float(targets.max())
            if high > low:
                targets = (targets - low) / (high - low)
            else:
                targets = np.zeros_like(targets)
            models.append(self._fit(np, features, targets))
        pool_features = np.array(
            [self._features(encoder.encode(point)) for point in pool]
        )
        scores = np.zeros(len(pool))
        for theta in models:
            predicted = pool_features @ theta
            low, high = float(predicted.min()), float(predicted.max())
            if high > low:
                predicted = (predicted - low) / (high - low)
            else:
                predicted = np.zeros_like(predicted)
            scores += predicted
        ranked = sorted(range(len(pool)), key=lambda i: (float(scores[i]), i))
        proposals = []
        for index in ranked:
            if point_key(pool[index]) in evaluated_keys:
                continue
            proposals.append(pool[index])
            if len(proposals) == batch_size:
                break
        while len(proposals) < batch_size:
            # The whole pool is already evaluated: fall back to fresh
            # samples (repeats would only burn budget on cache hits).
            proposals.append(space.sample(rng))
        return proposals

    def _fit(self, np, features, targets):
        gram = features.T @ features + self.ridge_lambda * np.eye(
            features.shape[1]
        )
        try:
            return np.linalg.solve(gram, features.T @ targets)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, features.T @ targets, rcond=None)[0]

    @staticmethod
    def _features(vector: List[float]) -> List[float]:
        quadratic = [
            vector[i] * vector[j]
            for i in range(len(vector))
            for j in range(i, len(vector))
        ]
        return [1.0, *vector, *quadratic]
