"""Figure 5: energy versus runtime for all three workloads.

Paper result: for TinyLlama the 8-chip energy stays in the same range as
the single chip (the weights still cross the off-chip interface once per
block) while the runtime collapses; for the scaled-up model the energy
drops further once all weights fit on-chip (32/64 chips); for MobileBERT
the 4-chip energy is slightly higher than the single-chip energy.
"""

from __future__ import annotations

from repro.analysis import render_fig5


def test_fig5_energy_runtime(run_study):
    result = run_study("fig5")
    print()
    print(render_fig5(result))

    # TinyLlama autoregressive: runtime collapses, energy stays in range
    # (paper: ~0.7 mJ at 1 chip vs 0.64 mJ at 8 chips).
    autoregressive = result.stage("tinyllama-autoregressive").result
    one = autoregressive.result_for(1)
    eight = autoregressive.result_for(8)
    assert eight.block_cycles < one.block_cycles / 8
    assert 0.7 < eight.block_energy_joules / one.block_energy_joules < 1.3
    assert 0.3e-3 < eight.block_energy_joules < 1.0e-3

    # Scaled-up model: once every weight is resident (32/64 chips) the
    # energy per block drops below the double-buffered 16-chip point.
    scaled = result.stage("scaled-autoregressive").result
    assert (
        scaled.result_for(32).block_energy_joules
        < scaled.result_for(16).block_energy_joules
    )
    assert scaled.result_for(32).l3_bytes_per_block == 0
    assert scaled.result_for(16).l3_bytes_per_block > 0

    # MobileBERT: slight energy increase at 4 chips.
    mobilebert = result.stage("mobilebert").result
    assert (
        mobilebert.result_for(4).block_energy_joules
        > mobilebert.result_for(1).block_energy_joules
    )
