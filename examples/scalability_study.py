#!/usr/bin/env python3
"""Scalability study: how far does the partitioning scheme scale?

Reproduces the paper's Sec. V-C experiment interactively: the TinyLlama
head count is raised from 8 to 64 (all other parameters unchanged) and the
model is distributed over 1-64 chips.  The script prints the speedup of
both inference modes next to the ideal linear scaling, and shows where the
weight-residency regime changes — the transitions that explain the shape of
the curve (streamed -> double-buffered -> everything resident on chip).
"""

from __future__ import annotations

from repro import Session, autoregressive, prompt, scaling_points, tinyllama_scaled
from repro.analysis.tables import scaling_table
from repro.units import format_energy

CHIP_COUNTS = (1, 2, 4, 8, 16, 32, 64)


def main() -> None:
    session = Session()
    model = tinyllama_scaled()
    print(f"Scaled-up model: {model.name} "
          f"({model.num_heads} heads of dimension {model.head_dim})")
    print()

    for label, workload in (
        ("autoregressive mode (S=128, KV-cached decoding)",
         autoregressive(model, 128)),
        ("prompt mode (S=16)", prompt(model, 16)),
    ):
        sweep = session.sweep(workload, CHIP_COUNTS)
        print(scaling_table(scaling_points(sweep.results),
                            title=f"Scalability, {label}"))
        print()
        print("Weight residency and energy per chip count:")
        for result in sweep.results:
            residency = result.residencies()[0].value
            print(f"  {result.num_chips:>3} chips: {residency:<16} "
                  f"energy/block {format_energy(result.block_energy_joules)}")
        print()

    print("Expected shape (paper): super-linear speedup once a block fits "
          "on-chip (8-16 chips), a further energy drop once the whole model "
          "fits (32-64 chips), quasi-linear autoregressive scaling up to 64 "
          "chips, and diminishing prompt-mode returns past 16 chips.")


if __name__ == "__main__":
    main()
