"""Figure 4(a): TinyLlama autoregressive mode, 1-8 chips.

Paper result: runtime dominated by L3 DMA for 1-4 chips; with 8 chips the
block runs from on-chip memory and the speedup becomes super-linear
(26.1x).  The benchmark regenerates the runtime-breakdown rows and asserts
that shape.
"""

from __future__ import annotations

from repro.analysis.tables import runtime_breakdown_table
from repro.core.schedule import RuntimeCategory


def test_fig4a_runtime_breakdown(run_study):
    sweep = run_study("fig4").stage("tinyllama-autoregressive").result
    print()
    print("Fig. 4(a) TinyLlama autoregressive mode")
    print(runtime_breakdown_table(sweep))

    speedups = sweep.speedups()
    breakdowns = {r.num_chips: r.runtime_breakdown() for r in sweep.results}

    # Paper shape: 1-4 chips are dominated by off-chip (L3) DMA ...
    for num_chips in (1, 2, 4):
        breakdown = breakdowns[num_chips]
        assert breakdown[RuntimeCategory.DMA_L3_L2] > breakdown[RuntimeCategory.COMPUTE]
        assert speedups[num_chips] <= num_chips * 1.15
    # ... and the 8-chip system runs from on-chip memory with a clearly
    # super-linear speedup in the neighbourhood of the paper's 26.1x.
    eight = sweep.result_for(8)
    assert eight.runs_from_on_chip_memory
    assert breakdowns[8][RuntimeCategory.DMA_L3_L2] == 0.0
    assert speedups[8] > 8
    assert 15.0 < speedups[8] < 45.0
