"""Unit tests for the objective registry, dominance, and constraints."""

from __future__ import annotations

import pytest

from repro.dse.engine import Candidate
from repro.dse.objectives import (
    Sense,
    get_objective,
    hardware_cost_units,
    list_objectives,
    register_objective,
    unregister_objective,
)
from repro.dse.pareto import (
    dominates,
    filter_constraints,
    pareto_front,
    parse_constraint,
)
from repro.dse.space import materialise
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    UnknownObjectiveError,
)


def make_candidate(latency: float, cost: float, feasible: bool = True) -> Candidate:
    return Candidate(
        point=(("chips", 1),),
        strategy="paper",
        num_chips=1,
        feasible=feasible,
        objective_values=(("latency", latency), ("hw_cost", cost))
        if feasible
        else (),
        note="" if feasible else "PartitioningError: too many chips",
    )


OBJECTIVES = (get_objective("latency"), get_objective("hw_cost"))


class TestObjectiveRegistry:
    def test_shipped_objectives(self):
        assert set(list_objectives()) >= {
            "latency",
            "energy",
            "hw_cost",
            "energy_per_request",
            "slo",
        }
        assert get_objective("latency").sense is Sense.MIN
        assert get_objective("slo").sense is Sense.MAX
        assert get_objective("slo").requires_serving
        assert not get_objective("latency").requires_serving

    def test_aliases_resolve(self):
        assert get_objective("cost") is get_objective("hw_cost")

    def test_unknown_objective_lists_registered_names(self):
        with pytest.raises(UnknownObjectiveError, match="latency"):
            get_objective("bogus")

    def test_register_and_unregister(self):
        @register_objective
        class SyncsObjective:
            name = "test_syncs"
            label = "Synchronisations per block"
            sense = Sense.MIN
            requires_serving = False

            def value(self, measurement):
                return float(measurement.result.synchronisations_per_block)

        try:
            assert get_objective("test_syncs").label.startswith("Sync")
            with pytest.raises(ConfigurationError):
                register_objective(SyncsObjective)  # duplicate name
        finally:
            unregister_objective("test_syncs")
        with pytest.raises(UnknownObjectiveError):
            get_objective("test_syncs")

    def test_rejects_incomplete_objects(self):
        with pytest.raises(ConfigurationError):
            register_objective(object())

    def test_hardware_cost_scales_with_chips(self):
        one = hardware_cost_units(materialise({"chips": 1}))
        eight = hardware_cost_units(materialise({"chips": 8}))
        assert eight == pytest.approx(8 * one)


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates(make_candidate(1.0, 1.0), make_candidate(2.0, 2.0), OBJECTIVES)

    def test_tie_on_one_objective_and_better_on_another_dominates(self):
        a = make_candidate(1.0, 1.0)
        b = make_candidate(1.0, 2.0)
        assert dominates(a, b, OBJECTIVES)
        assert not dominates(b, a, OBJECTIVES)

    def test_trade_off_does_not_dominate(self):
        a = make_candidate(1.0, 2.0)
        b = make_candidate(2.0, 1.0)
        assert not dominates(a, b, OBJECTIVES)
        assert not dominates(b, a, OBJECTIVES)

    def test_equal_vectors_do_not_dominate(self):
        a = make_candidate(1.0, 1.0)
        b = make_candidate(1.0, 1.0)
        assert not dominates(a, b, OBJECTIVES)

    def test_max_sense_flips_direction(self):
        slo = get_objective("slo")
        a = Candidate(
            point=(("chips", 1),), strategy="paper", num_chips=1,
            feasible=True, objective_values=(("slo", 0.99),),
        )
        b = Candidate(
            point=(("chips", 2),), strategy="paper", num_chips=2,
            feasible=True, objective_values=(("slo", 0.5),),
        )
        assert dominates(a, b, (slo,))
        assert not dominates(b, a, (slo,))

    def test_infeasible_candidates_rejected(self):
        with pytest.raises(AnalysisError):
            dominates(make_candidate(1, 1), make_candidate(1, 1, feasible=False),
                      OBJECTIVES)


class TestParetoFront:
    def test_front_keeps_only_non_dominated(self):
        a = make_candidate(1.0, 3.0)
        b = make_candidate(2.0, 2.0)
        c = make_candidate(3.0, 1.0)
        dominated = make_candidate(3.0, 3.0)
        front = pareto_front([a, dominated, b, c], OBJECTIVES)
        assert front == [a, b, c]

    def test_front_skips_infeasible(self):
        feasible = make_candidate(1.0, 1.0)
        broken = make_candidate(0.0, 0.0, feasible=False)
        assert pareto_front([broken, feasible], OBJECTIVES) == [feasible]

    def test_front_needs_objectives(self):
        with pytest.raises(AnalysisError):
            pareto_front([make_candidate(1, 1)], ())


class TestConstraints:
    def test_parse_round_trip(self):
        constraint = parse_constraint("latency<=0.01")
        assert constraint.objective == "latency"
        assert constraint.op == "<="
        assert constraint.bound == pytest.approx(0.01)
        assert constraint.render() == "latency<=0.01"
        assert parse_constraint("slo>=0.95").op == ">="

    def test_parse_rejects_garbage(self):
        for text in ("latency", "latency==1", "latency<=abc", "<=1"):
            with pytest.raises(ConfigurationError):
                parse_constraint(text)

    def test_filtering(self):
        fast = make_candidate(0.5, 10.0)
        slow = make_candidate(2.0, 1.0)
        broken = make_candidate(0.0, 0.0, feasible=False)
        kept = filter_constraints(
            [fast, slow, broken], [parse_constraint("latency<=1.0")]
        )
        assert kept == [fast]

    def test_candidate_value_errors(self):
        with pytest.raises(AnalysisError, match="not measured"):
            make_candidate(1.0, 1.0).value("energy")
        with pytest.raises(AnalysisError, match="infeasible"):
            make_candidate(1.0, 1.0, feasible=False).value("latency")
