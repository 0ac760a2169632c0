"""Figure 4(b): TinyLlama prompt mode, 1-8 chips.

Paper result: prompt mode is computation-dominated, so removing off-chip
transfers helps less than in autoregressive mode, yet the 8-chip system is
still super-linear (9.9x).
"""

from __future__ import annotations

from repro.analysis.tables import runtime_breakdown_table
from repro.core.schedule import RuntimeCategory


def test_fig4b_runtime_breakdown(run_study):
    fig4 = run_study("fig4")
    sweep = fig4.stage("tinyllama-prompt").result
    print()
    print("Fig. 4(b) TinyLlama prompt mode")
    print(runtime_breakdown_table(sweep))

    speedups = sweep.speedups()
    breakdowns = {r.num_chips: r.runtime_breakdown() for r in sweep.results}

    # Prompt mode is computation-dominated on every chip count (Sec. V-B).
    for num_chips, breakdown in breakdowns.items():
        assert breakdown[RuntimeCategory.COMPUTE] > breakdown[RuntimeCategory.DMA_L3_L2]

    # The 8-chip system is super-linear, in the neighbourhood of 9.9x, but
    # clearly less super-linear than the memory-bound autoregressive mode.
    assert speedups[8] > 8
    assert 8.0 < speedups[8] < 16.0
    autoregressive_speedups = fig4.stage("tinyllama-autoregressive").result.speedups()
    assert autoregressive_speedups[8] > speedups[8]
