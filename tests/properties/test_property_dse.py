"""Property-based tests of the design-space exploration layer.

No simulator runs here: the properties concern the combinatorial layers
(sampling, seeding, dominance) and must hold for *any* well-formed space
or candidate set, so the strategies build random spaces and synthetic
candidates directly.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.dse.engine import Candidate
from repro.dse.objectives import Sense, get_objective
from repro.dse.pareto import dominates, pareto_front
from repro.dse.space import ChoiceAxis, FloatAxis, IntAxis, SearchSpace


# ----------------------------------------------------------------------
# Random spaces
# ----------------------------------------------------------------------
@st.composite
def axes(draw, name: str):
    """One random axis of any of the three kinds."""
    kind = draw(st.sampled_from(["choice", "int", "float", "float_levels"]))
    if kind == "choice":
        values = draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=-100, max_value=100),
                    st.text(
                        alphabet="abcdefgh", min_size=1, max_size=4
                    ),
                ),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        return ChoiceAxis(name, tuple(values))
    if kind == "int":
        low = draw(st.integers(min_value=-50, max_value=50))
        span = draw(st.integers(min_value=0, max_value=40))
        step = draw(st.integers(min_value=1, max_value=7))
        return IntAxis(name, low, low + span, step=step)
    low = draw(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    span = draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    if kind == "float":
        return FloatAxis(name, low, low + span)
    count = draw(st.integers(min_value=1, max_value=4))
    levels = sorted(
        {low + span * index / max(1, count) for index in range(count)}
    )
    return FloatAxis(name, low, low + span, levels=tuple(levels))


@st.composite
def spaces(draw):
    """A random space of one to four uniquely-named axes."""
    count = draw(st.integers(min_value=1, max_value=4))
    return SearchSpace(
        axes=tuple(draw(axes(f"axis{index}")) for index in range(count))
    )


@settings(max_examples=100, deadline=None)
@given(space=spaces(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_points_always_lie_inside_the_space(space, seed):
    rng = random.Random(seed)
    for _ in range(10):
        point = space.sample(rng)
        assert space.contains(point)
        # Mutation keeps the point inside the space too.
        assert space.contains(space.mutate(point, rng))


@settings(max_examples=60, deadline=None)
@given(
    space=spaces(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=20),
)
def test_equal_seeds_give_identical_sample_sequences(space, seed, count):
    assert space.sample_many(count, seed=seed) == space.sample_many(
        count, seed=seed
    )


@settings(max_examples=60, deadline=None)
@given(space=spaces())
def test_finite_grids_enumerate_exactly_size_in_space_points(space):
    if space.size is None or space.size > 200:
        return
    grid = list(space.grid())
    assert len(grid) == space.size
    assert all(space.contains(point) for point in grid)


# ----------------------------------------------------------------------
# Pareto extraction
# ----------------------------------------------------------------------
OBJECTIVES = (get_objective("latency"), get_objective("hw_cost"))
assert all(obj.sense is Sense.MIN for obj in OBJECTIVES)


@st.composite
def candidate_sets(draw):
    """Synthetic candidates over a two-objective minimisation problem."""
    count = draw(st.integers(min_value=1, max_value=25))
    values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    return [
        Candidate(
            point=(("id", index),),
            strategy="paper",
            num_chips=1,
            feasible=draw(st.booleans()),
            objective_values=(
                ("latency", draw(values)),
                ("hw_cost", draw(values)),
            ),
        )
        for index in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(candidates=candidate_sets())
def test_pareto_front_contains_no_dominated_point(candidates):
    front = pareto_front(candidates, OBJECTIVES)
    feasible = [candidate for candidate in candidates if candidate.feasible]
    # Nothing in the front is dominated by anything feasible...
    for member in front:
        assert member.feasible
        assert not any(
            dominates(other, member, OBJECTIVES)
            for other in feasible
            if other is not member
        )
    # ...and everything feasible outside the front is dominated.
    for candidate in feasible:
        if candidate not in front:
            assert any(
                dominates(other, candidate, OBJECTIVES) for other in feasible
            )


def quadratic_front(candidates, objectives):
    """The definition of the front, O(n^2): the oracle of ``pareto_front``."""
    feasible = [candidate for candidate in candidates if candidate.feasible]
    return [
        candidate
        for candidate in feasible
        if not any(
            dominates(other, candidate, objectives)
            for other in feasible
            if other is not candidate
        )
    ]


#: Values that stress the comparisons: ties, signed zeros, infinities, NaN.
AWKWARD_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan)


@st.composite
def mixed_sense_problems(draw):
    """1-4 objectives of mixed sense, and candidates with awkward values.

    Values come mostly from a small pool, so duplicate vectors and ties
    on single objectives are common; some candidates are infeasible.
    """
    objectives = tuple(
        SimpleNamespace(name=f"o{index}", sense=draw(st.sampled_from(Sense)))
        for index in range(draw(st.integers(min_value=1, max_value=4)))
    )
    values = st.one_of(
        st.sampled_from(AWKWARD_VALUES),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    candidates = []
    for index in range(draw(st.integers(min_value=0, max_value=30))):
        feasible = draw(st.booleans()) or draw(st.booleans())
        candidates.append(
            Candidate(
                point=(("id", index),),
                strategy="paper",
                num_chips=1,
                feasible=feasible,
                objective_values=(
                    tuple((objective.name, draw(values)) for objective in objectives)
                    if feasible
                    else ()
                ),
            )
        )
    return candidates, objectives


@settings(max_examples=400, deadline=None)
@given(problem=mixed_sense_problems())
def test_pareto_front_matches_the_quadratic_definition(problem):
    candidates, objectives = problem
    front = pareto_front(candidates, objectives)
    expected = quadratic_front(candidates, objectives)
    # Same members (by identity), in the same (input) order.
    assert [id(member) for member in front] == [id(member) for member in expected]
