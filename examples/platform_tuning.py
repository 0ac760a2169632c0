#!/usr/bin/env python3
"""Platform tuning: which hardware meets the target at minimal cost?

The paper answers "how fast is TinyLlama on eight Siracusa chips"; a
deployer asks the inverse — which platform and partition configuration
meets a latency (or SLO) target at minimal hardware cost.  This example
drives the DSE engine through `Session.tune` to answer it three ways:

1. trade block latency against a hardware-cost proxy over the standard
   platform space and print the Pareto front,
2. apply a deployment constraint (latency under 1 ms) and pick the
   cheapest platform that satisfies it,
3. rank searchers: how much of the exhaustive front does a budget of 16
   random/annealing evaluations recover?

Every evaluation flows through one shared `Session`, so the three
studies together simulate each unique design at most once.
"""

from __future__ import annotations

from repro import Session, autoregressive, tinyllama_42m
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace
from repro.units import format_time

#: One shared session: all three studies below evaluate through it.
SESSION = Session()

#: A finite space so the exhaustive reference stays cheap (36 designs).
SPACE = SearchSpace(
    axes=(
        ChoiceAxis("chips", (1, 2, 4, 8)),
        FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 0.5, 1.0)),
        ChoiceAxis("l2_kib", (1024, 2048, 4096)),
        ChoiceAxis("strategy", ("paper",)),
    )
)

WORKLOAD = autoregressive(tinyllama_42m(), 128)


def pareto_study() -> None:
    """The full latency/cost trade-off of the space."""
    print("1) Latency vs. hardware cost (exhaustive grid)")
    result = SESSION.tune(
        WORKLOAD,
        SPACE,
        searcher="grid",
        budget=SPACE.size,
        objectives=("latency", "hw_cost"),
    )
    print(result.render())
    print()


def constrained_pick() -> None:
    """The cheapest platform that clears a 1 ms block-latency target."""
    print("2) Cheapest platform with block latency <= 1 ms")
    result = SESSION.tune(
        WORKLOAD,
        SPACE,
        searcher="grid",
        budget=SPACE.size,
        objectives=("hw_cost", "latency"),
        constraints=("latency<=0.001",),
    )
    winner = result.best("hw_cost")
    point = winner.point_dict
    print(
        f"   -> {point['chips']} chips, {point['link_gbps']:g} GB/s links, "
        f"{point['l2_kib']} KiB L2: "
        f"{format_time(winner.value('latency'))} / block at cost "
        f"{winner.value('hw_cost'):g} units "
        f"({len(result.feasible())} of {len(result.candidates)} designs "
        "meet the target)"
    )
    print()


def searcher_shootout() -> None:
    """How much of the true front does a 16-evaluation budget recover?"""
    print("3) Searcher shootout at budget 16")
    reference = SESSION.tune(
        WORKLOAD,
        SPACE,
        searcher="grid",
        budget=SPACE.size,
        objectives=("latency", "hw_cost"),
    )
    true_front = {candidate.point for candidate in reference.front}
    for searcher in ("random", "anneal", "evolution"):
        result = SESSION.tune(
            WORKLOAD,
            SPACE,
            searcher=searcher,
            budget=16,
            seed=0,
            objectives=("latency", "hw_cost"),
        )
        found = {candidate.point for candidate in result.front}
        share = len(found & true_front) / len(true_front)
        print(
            f"   {searcher:<10}: recovered {share * 100:5.1f}% of the front "
            f"with {len(result.candidates)} unique evaluations"
        )
    cache = SESSION.cache_info()
    print(
        f"   shared session cache: {cache.hits} hits, {cache.misses} misses "
        f"({cache.size} unique designs simulated across all studies)"
    )


def declarative_twin() -> None:
    """The same grid study as data, plus a serving run on the winner.

    The shipped "platform-tuning" study
    (src/repro/spec/shipped/platform_tuning.json,
    `repro study run platform-tuning`) declares study 1 as a tune stage and
    then serves traffic on the best design via a `platform_from` stage
    reference — no Python required.
    """
    from repro.api import Study
    from repro.spec import get_study

    print("4) The declarative twin: `repro study run platform-tuning`")
    result = Study(get_study("platform-tuning")).run()
    tuned = result.stage("tune").result
    imperative = SESSION.tune(
        WORKLOAD,
        SPACE,
        searcher="grid",
        budget=SPACE.size,
        objectives=("latency", "hw_cost"),
    )
    agrees = {c.point for c in tuned.front} == {c.point for c in imperative.front}
    served = result.stage("serve-best").result
    print(f"   tune stage reproduces study 1's Pareto front: {agrees}")
    print(
        f"   serve-best stage ran on the tuned {served.num_chips}-chip "
        f"design: p95 TTFT {served.metrics.ttft.p95 * 1e3:.1f} ms"
    )


def main() -> None:
    pareto_study()
    constrained_pick()
    searcher_shootout()
    declarative_twin()


if __name__ == "__main__":
    main()
