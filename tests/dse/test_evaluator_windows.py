"""The evaluator prices announced points in windows, one candidate at a time.

On a miss, :class:`~repro.dse.engine.DesignEvaluator` evaluates the
requested point and the announced points after it in one
``Session.run_many`` call, but records each candidate only when the walk
reaches its point: an error that aborts a tune is raised at its own
point, after every earlier candidate is recorded.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.registry import register_strategy, unregister_strategy
from repro.dse.engine import DesignEvaluator
from repro.dse.objectives import get_objective
from repro.errors import ConfigurationError, SimulationError
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m


@pytest.fixture
def workload():
    return autoregressive(tinyllama_42m(), 64)


@pytest.fixture
def evaluator(workload):
    return DesignEvaluator(Session(), workload, (get_objective("latency"),))


@pytest.fixture
def fragile():
    """``paper`` except that it fails to simulate four chips."""

    @register_strategy
    class Fragile:
        name = "fragile_for_test"
        label = "Fails on four chips"

        def evaluate(self, workload, platform, options):
            if platform.num_chips == 4:
                raise SimulationError("four chips deadlock")
            return Session(memoize=False).run(workload, platform=platform)

    yield Fragile.name
    unregister_strategy(Fragile.name)


def _spy(monkeypatch):
    sizes = []
    run_many = Session.run_many

    def recording(self, requests, **kwargs):
        sizes.append(len(requests))
        return run_many(self, requests, **kwargs)

    monkeypatch.setattr(Session, "run_many", recording)
    return sizes


def test_an_announced_window_is_one_session_call(evaluator, monkeypatch):
    sizes = _spy(monkeypatch)
    points = [{"chips": chips} for chips in (1, 2, 4, 2, 16)]
    evaluator.announce(points)
    candidates = [evaluator.evaluate(point) for point in points]
    assert sizes == [4]  # the repeat is not evaluated twice
    assert candidates[1] is candidates[3]
    assert [c.feasible for c in candidates] == [True, True, True, True, False]
    assert evaluator.evaluations_requested == 5
    assert len(evaluator.history) == 4


def test_a_walk_that_leaves_the_announced_order_drops_it(evaluator, monkeypatch):
    sizes = _spy(monkeypatch)
    evaluator.announce([{"chips": 1}, {"chips": 2}, {"chips": 4}])
    evaluator.evaluate({"chips": 8})
    evaluator.evaluate({"chips": 2})
    assert sizes == [1, 1]


def test_a_materialise_error_is_raised_at_its_point(evaluator):
    points = [{"chips": 1}, {"chips": 2}, {"chips": 2, "bogus_axis": 1}, {"chips": 4}]
    evaluator.announce(points)
    evaluator.evaluate(points[0])
    evaluator.evaluate(points[1])
    with pytest.raises(ConfigurationError, match="unknown design axes"):
        evaluator.evaluate(points[2])
    assert [dict(c.point)["chips"] for c in evaluator.history] == [1, 2]
    assert evaluator.evaluate(points[3]).feasible


def test_a_simulation_error_is_raised_at_its_point(evaluator, fragile):
    points = [{"chips": chips, "strategy": fragile} for chips in (1, 2, 4, 8)]
    evaluator.announce(points)
    evaluator.evaluate(points[0])
    evaluator.evaluate(points[1])
    with pytest.raises(SimulationError, match="four chips deadlock"):
        evaluator.evaluate(points[2])
    assert len(evaluator.history) == 2
    assert evaluator.evaluate(points[3]).feasible


def test_serving_objectives_serve_every_feasible_point(workload, monkeypatch):
    served = []
    serve = Session.serve

    def recording(self, *args, **kwargs):
        served.append(kwargs["platform"].num_chips)
        return serve(self, *args, **kwargs)

    monkeypatch.setattr(Session, "serve", recording)
    evaluator = DesignEvaluator(Session(), workload, (get_objective("slo"),))
    points = [{"chips": chips} for chips in (4, 16, 8)]
    evaluator.announce(points)
    candidates = [evaluator.evaluate(point) for point in points]
    assert [c.feasible for c in candidates] == [True, False, True]
    assert served == [4, 8]
