"""End-to-end tests of Session.tune over the real simulator."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace, ServingScenario
from repro.dse.pareto import dominates
from repro.errors import AnalysisError
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m


@pytest.fixture
def workload():
    return autoregressive(tinyllama_42m(), 128)


def small_space(**overrides) -> SearchSpace:
    axes = {
        "chips": ChoiceAxis("chips", (1, 2, 4, 8)),
        "link_gbps": FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 0.5, 1.0)),
        "strategy": ChoiceAxis("strategy", ("paper",)),
    }
    axes.update(overrides)
    return SearchSpace(axes=tuple(axes.values()))


class TestTune:
    def test_front_is_non_dominated_and_sorted_render(self, workload):
        session = Session()
        result = session.tune(
            workload,
            small_space(),
            searcher="grid",
            budget=12,
            objectives=("latency", "hw_cost"),
        )
        assert result.searcher == "grid"
        assert len(result.candidates) == 12
        assert result.front
        for left in result.front:
            for right in result.front:
                if left is not right:
                    assert not dominates(left, right, result.objectives)
        text = result.render()
        assert "Pareto front" in text
        assert "latency (min)" in text and "hw_cost (min)" in text

    def test_random_search_evaluates_each_unique_config_once(self, workload):
        # Acceptance criterion: a random search whose budget exceeds the
        # number of unique points must still perform at most one simulator
        # evaluation per unique configuration (asserted via cache_info).
        session = Session()
        space = SearchSpace(
            axes=(
                ChoiceAxis("chips", (1, 2)),
                ChoiceAxis("strategy", ("paper",)),
            )
        )
        result = session.tune(
            workload, space, searcher="random", budget=16, seed=0,
            objectives=("latency",),
        )
        assert result.evaluations_requested == 16
        assert len(result.candidates) <= 2
        info = session.cache_info()
        assert info.misses <= 2
        assert info.misses == len(result.candidates)

    def test_equal_seeds_give_byte_identical_json(self, workload):
        def run():
            result = Session().tune(
                workload, small_space(), searcher="anneal",
                budget=10, seed=42, objectives=("latency", "energy"),
            )
            return result.to_json(cache=result.cache)

        assert run() == run()

    def test_different_seeds_usually_differ(self, workload):
        results = {
            seed: Session().tune(
                workload, small_space(), searcher="random",
                budget=6, seed=seed, objectives=("latency",),
            ).to_json()
            for seed in (0, 1)
        }
        assert results[0] != results[1]

    def test_constraints_filter_the_front(self, workload):
        session = Session()
        result = session.tune(
            workload,
            small_space(),
            searcher="grid",
            budget=12,
            objectives=("hw_cost",),
            constraints=("latency<=0.001",),
        )
        # The constraint objective is measured even though it is not a
        # Pareto objective.
        for candidate in result.feasible():
            assert candidate.value("latency") <= 0.001
        best = result.best("hw_cost")
        assert best.value("latency") <= 0.001
        assert all(
            best.value("hw_cost") <= candidate.value("hw_cost")
            for candidate in result.feasible()
        )

    def test_infeasible_points_become_infeasible_candidates(self, workload):
        # 16 chips exceed TinyLlama's 8 heads: the partitioner refuses,
        # and the search carries on instead of crashing.
        session = Session()
        space = SearchSpace(axes=(ChoiceAxis("chips", (8, 16)),))
        result = session.tune(
            workload, space, searcher="grid", budget=2,
            objectives=("latency",),
        )
        by_chips = {dict(c.point)["chips"]: c for c in result.candidates}
        assert by_chips[8].feasible
        assert not by_chips[16].feasible
        assert "PartitioningError" in by_chips[16].note
        assert [dict(c.point)["chips"] for c in result.front] == [8]

    def test_candidates_name_the_canonical_strategy(self, workload):
        # "ours" is an alias of "paper"; the infeasible 16-chip candidate
        # must name the strategy as the feasible one does.
        space = SearchSpace(
            axes=(
                ChoiceAxis("chips", (8, 16)),
                ChoiceAxis("strategy", ("ours",)),
            )
        )
        result = Session().tune(
            workload, space, searcher="grid", budget=2, objectives=("latency",)
        )
        assert [(c.num_chips, c.feasible) for c in result.candidates] == [
            (8, True),
            (16, False),
        ]
        assert [c.strategy for c in result.candidates] == ["paper", "paper"]

    def test_best_without_feasible_candidates_raises(self, workload):
        session = Session()
        result = session.tune(
            workload,
            small_space(),
            searcher="grid",
            budget=3,
            objectives=("latency",),
            constraints=("latency<=0.0",),  # unsatisfiable
        )
        assert result.front == ()
        with pytest.raises(AnalysisError, match="no feasible candidate"):
            result.best()
        assert "empty" in result.render()

    def test_bad_arguments_rejected(self, workload):
        session = Session()
        with pytest.raises(AnalysisError):
            session.tune(workload, budget=0)
        with pytest.raises(AnalysisError):
            session.tune(workload, objectives=())

    def test_serving_objectives_run_the_serving_simulator(self, workload):
        session = Session()
        space = SearchSpace(
            axes=(
                ChoiceAxis("chips", (4, 8)),
                ChoiceAxis("strategy", ("paper",)),
            )
        )
        scenario = ServingScenario(rate_rps=2.0, duration_s=10.0, ttft_slo_s=0.5)
        result = session.tune(
            workload,
            space,
            searcher="grid",
            budget=2,
            objectives=("slo", "hw_cost"),
            serving=scenario,
        )
        assert len(result.candidates) == 2
        for candidate in result.candidates:
            assert 0.0 <= candidate.value("slo") <= 1.0
        # More chips serve the scenario at least as well.
        by_chips = {dict(c.point)["chips"]: c for c in result.candidates}
        assert by_chips[8].value("slo") >= by_chips[4].value("slo")
