"""Benchmark: design-space exploration must amortise through the cache.

A tuning run's cost is dominated by unique simulator evaluations, so the
DSE layer's value depends on two properties this benchmark asserts:

* repeated tuning runs over the same space reuse the session's
  memoisation cache — the second searcher pays (almost) nothing for
  points the first already simulated, and no run ever simulates more
  unique configurations than the space holds;
* a full three-searcher tour of a 24-point space stays interactive
  (a few seconds of wall clock), which is what makes ``repro tune``
  usable as an ad-hoc deployment-sizing tool.
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace, dominates, pareto_front
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m

#: Evaluation budget granted to every searcher.
BUDGET = 24

#: Wall-clock budget for the whole three-searcher tour.
MAX_SECONDS = 30.0


def _space() -> SearchSpace:
    return SearchSpace(
        axes=(
            ChoiceAxis("chips", (1, 2, 4, 8)),
            FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 0.5, 1.0)),
            ChoiceAxis("l2_kib", (2048, 4096)),
            ChoiceAxis("strategy", ("paper",)),
        )
    )


def test_tuning_runs_share_the_session_cache(run_once):
    session = Session()
    workload = autoregressive(tinyllama_42m(), 128)
    space = _space()
    space_size = space.size
    assert space_size is not None

    def measure():
        start = time.perf_counter()
        results = {
            searcher: session.tune(
                workload,
                space,
                searcher=searcher,
                budget=BUDGET,
                seed=0,
                objectives=("latency", "hw_cost"),
            )
            for searcher in ("grid", "random", "anneal")
        }
        return time.perf_counter() - start, results

    elapsed, results = run_once(measure)

    # The cache never simulates more unique configurations than the space
    # holds, no matter how many searchers revisit it.
    cache = session.cache_info()
    assert cache.misses <= space_size
    assert cache.hits > 0, "the second and third searcher should hit the cache"

    # Every searcher's front is genuinely non-dominated.
    for name, result in results.items():
        front = pareto_front(result.candidates, result.objectives)
        assert set(result.front) == set(front), name
        assert result.front, name

    # The exhaustive grid front dominates the sampled ones: a sampled-front
    # point that is not on the true front must be dominated by some grid
    # candidate (the grid saw every design, including that one).
    grid_front_points = {c.point for c in results["grid"].front}
    objectives = results["grid"].objectives
    for name in ("random", "anneal"):
        for candidate in results[name].front:
            if candidate.point not in grid_front_points:
                assert any(
                    dominates(other, candidate, objectives)
                    for other in results["grid"].candidates
                    if other.feasible and other.point != candidate.point
                ), (name, candidate.point)

    print(
        f"\n3 searchers x budget {BUDGET} over {space_size} designs: "
        f"{elapsed * 1e3:.1f} ms wall, cache {cache.hits} hits / "
        f"{cache.misses} misses"
    )
    assert elapsed < MAX_SECONDS, (
        f"tuning tour took {elapsed:.1f} s (budget: {MAX_SECONDS:.0f} s)"
    )


def test_parallel_tune_is_byte_identical_and_interactive(run_once):
    """4-worker tune: same bytes as serial, still interactive wall clock.

    The throughput claim (parallel evaluations/s vs the serial baseline)
    lives in ``run_all.py`` where both sides run in fresh processes; this
    test pins the correctness half — worker fan-out must not change a
    single byte of the result — plus a generous wall-clock ceiling.
    """
    import json

    workload = autoregressive(tinyllama_42m(), 128)
    space = _space()

    def tour():
        documents = {}
        start = time.perf_counter()
        for workers in (None, 4):
            session = Session()  # fresh cache per drive: same work both times
            result = session.tune(
                workload,
                space,
                searcher="random",
                budget=BUDGET,
                seed=0,
                objectives=("latency", "hw_cost"),
                parallel=workers,
            )
            documents[workers] = json.dumps(result.to_dict(), sort_keys=True)
        return time.perf_counter() - start, documents

    elapsed, documents = run_once(tour)
    assert documents[None] == documents[4], (
        "parallel tune changed the result document"
    )
    print(f"\nserial + 4-worker tune, budget {BUDGET}: {elapsed * 1e3:.1f} ms")
    assert elapsed < MAX_SECONDS
