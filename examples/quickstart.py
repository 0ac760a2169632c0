#!/usr/bin/env python3
"""Quickstart: partition TinyLlama across 8 MCUs and measure one block.

This is the smallest end-to-end use of the library's unified API:

1. pick a model configuration and an inference mode,
2. open a :class:`repro.Session` (defaults to the paper's platform preset:
   Siracusa chips joined by MIPI links),
3. call :meth:`Session.run` with a registered partitioning strategy —
   ``"paper"`` partitions the block with the paper's tensor-parallel
   scheme, schedules it, simulates it, and applies the energy model,
4. inspect runtime, runtime breakdown, energy, and where the weights live,
5. call :meth:`Session.compare` to pit the paper's scheme against the
   Table I baselines on the same platform.

Repeated ``Session.run`` calls with the same strategy and inputs are
memoised by content hash, so re-evaluating any point later in the session
returns the cached result instantly.

Run with: ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro import Session, autoregressive, speedup, tinyllama_42m
from repro.core import RuntimeCategory
from repro.units import format_bytes, format_energy, format_time


def main() -> None:
    model = tinyllama_42m()
    workload = autoregressive(model, context_len=128)
    print(f"Model: {model.name}, {model.total_params / 1e6:.1f} M parameters")
    print(f"One block's weights: {format_bytes(model.block_weight_bytes)}")
    print(f"Workload: {workload.describe()}")
    print()

    session = Session()

    # Single-chip reference first, then the 8-chip distributed system.
    single_chip = session.run(workload, strategy="paper", chips=1)
    distributed = session.run(workload, strategy="paper", chips=8)

    for result in (single_chip, distributed):
        print(f"=== {result.num_chips} chip(s) ===")
        print(f"  block runtime : {result.block_cycles:,.0f} cycles "
              f"({format_time(result.block_runtime_seconds)})")
        print(f"  block energy  : {format_energy(result.block_energy_joules)}")
        print(f"  off-chip (L3) : {format_bytes(result.l3_bytes_per_block)} per block")
        print(f"  chip-to-chip  : {format_bytes(result.c2c_bytes_per_block)} per block")
        print(f"  weights on-chip during execution: {result.runs_from_on_chip_memory}")
        breakdown = result.runtime_breakdown()
        print("  runtime breakdown (average cycles per chip):")
        for category in (
            RuntimeCategory.COMPUTE,
            RuntimeCategory.DMA_L3_L2,
            RuntimeCategory.DMA_L2_L1,
            RuntimeCategory.CHIP_TO_CHIP,
            RuntimeCategory.IDLE,
        ):
            print(f"    {category.value:<14} {breakdown[category]:>12,.0f}")
        print()

    gain = speedup(single_chip.block_cycles, distributed.block_cycles)
    edp_gain = single_chip.energy_delay_product / distributed.energy_delay_product
    print(f"Speedup of 8 chips over 1 chip : {gain:.1f}x "
          f"({'super' if gain > 8 else 'sub'}-linear)")
    print(f"EDP improvement                : {edp_gain:.1f}x")
    print()
    print("The paper reports 26.1x speedup and 27.2x EDP improvement for this "
          "configuration; run `repro experiments --only headline` for the "
          "full comparison.")
    print()

    # The same session runs the Table I ablation on 8 chips; re-running any
    # of these strategies later returns the memoised results instantly.
    print("Strategy ablation on 8 chips (Table I style):")
    print(session.compare(workload, chips=8).render())
    print()

    # This whole script also ships as data: the "quickstart" study
    # (src/repro/spec/shipped/quickstart.json, `repro study run quickstart`)
    # declares the same three stages, and its artifacts match these
    # imperative calls bit for bit.
    from repro.api import Study
    from repro.spec import get_study

    study = Study(get_study("quickstart")).run()
    declarative = study.stage("distributed").result
    print("Declarative twin ('quickstart' study) agrees with the session "
          f"calls: {declarative == distributed}")


if __name__ == "__main__":
    main()
