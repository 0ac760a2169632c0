"""Figure 4(c): MobileBERT encoder, 1-4 chips.

Paper result: partitioning on 4 chips suppresses the off-chip transfers and
yields a super-linear 4.7x speedup, at the cost of a slight increase in
per-inference energy (smaller kernels utilise the cluster less well).
"""

from __future__ import annotations

from repro.analysis.tables import energy_runtime_table, runtime_breakdown_table


def test_fig4c_runtime_and_energy(run_study):
    sweep = run_study("fig4").stage("mobilebert").result
    print()
    print("Fig. 4(c) MobileBERT")
    print(runtime_breakdown_table(sweep))
    print(energy_runtime_table(sweep))

    speedups = sweep.speedups()
    energies = sweep.energies_joules()

    # Super-linear speedup at 4 chips, in the neighbourhood of 4.7x.
    assert speedups[4] > 4.0
    assert 4.0 < speedups[4] < 5.5
    # The 4-chip system runs with on-chip weights, the single chip does not.
    assert sweep.result_for(4).runs_from_on_chip_memory
    assert not sweep.result_for(1).runs_from_on_chip_memory
    # Off-chip traffic drops by an order of magnitude at 4 chips.
    assert (
        sweep.result_for(1).l3_bytes_per_block
        > 4 * sweep.result_for(4).l3_bytes_per_block
    )
    # ... but the energy per block slightly increases (utilisation loss).
    assert energies[4] > energies[1]
    assert energies[4] < energies[1] * 1.25
