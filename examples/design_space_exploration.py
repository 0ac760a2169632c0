#!/usr/bin/env python3
"""Design-space exploration: what would a different platform change?

The library's hardware models are fully parametric, so the same evaluation
pipeline can answer deployment questions the paper leaves open:

* How sensitive is the 8-chip speedup to the chip-to-chip link bandwidth?
* How much L2 is actually needed before a TinyLlama block becomes on-chip
  resident at a given chip count?
* What happens when the double-buffered weight prefetch can no longer be
  hidden (the conservative prefetch-accounting policy)?

Each sweep reuses one :class:`repro.Session`, overriding the platform per
point; memoisation means shared reference points are simulated only once.
Every swept platform is the paper's with one value changed, built by
:func:`repro.siracusa_variant`.

These are hand-rolled one-axis sweeps.  For automated multi-objective
search over the same knobs (Pareto fronts, constraints, searchers), see
``examples/platform_tuning.py`` and the `repro.dse` subsystem
(``docs/DSE.md``).
"""

from __future__ import annotations

from repro import (
    PrefetchAccounting,
    Session,
    autoregressive,
    mobilebert,
    siracusa_platform,
    siracusa_variant,
    tinyllama_42m,
    encoder,
)
from repro.units import format_bytes, format_time, kib

#: One shared session: every sweep below evaluates through it.
SESSION = Session()


def link_bandwidth_sweep() -> None:
    """Sensitivity of the 8-chip MobileBERT runtime to the C2C bandwidth."""
    print("1) Chip-to-chip link bandwidth sweep (MobileBERT, 4 chips)")
    workload = encoder(mobilebert(), 268)
    baseline = SESSION.run(workload, chips=1)
    for gbps in (0.125, 0.25, 0.5, 1.0, 2.0):
        platform = siracusa_variant(4, link_gbps=gbps)
        report = SESSION.run(workload, platform=platform)
        gain = baseline.block_cycles / report.block_cycles
        print(f"   {gbps:>5.3f} GB/s: {report.block_cycles:>12,.0f} cycles/block, "
              f"speedup {gain:4.2f}x over one chip")
    print()


def l2_capacity_sweep() -> None:
    """Where does the on-chip residency crossover move with the L2 size?"""
    print("2) L2 capacity sweep (TinyLlama autoregressive, 4 chips)")
    workload = autoregressive(tinyllama_42m(), 128)
    for l2_kib in (1024, 1536, 2048, 3072, 4096):
        # The runtime keeps its 496 KiB, at most half the L2.
        platform = siracusa_variant(4, l2_kib=l2_kib)
        report = SESSION.run(workload, platform=platform)
        residency = report.residencies()[0].value
        print(f"   L2 = {format_bytes(kib(l2_kib)):>9}: {residency:<16} "
              f"{report.block_cycles:>12,.0f} cycles/block")
    print()


def prefetch_accounting_comparison() -> None:
    """Paper-style (hidden) vs. conservative (overlap) prefetch accounting."""
    print("3) Prefetch accounting policy (TinyLlama autoregressive, 8 chips)")
    workload = autoregressive(tinyllama_42m(), 128)
    platform = siracusa_platform(8)
    single = SESSION.run(workload, chips=1)
    for policy in (
        PrefetchAccounting.HIDDEN,
        PrefetchAccounting.OVERLAP,
        PrefetchAccounting.BLOCKING,
    ):
        # Prefetch accounting is a session-wide policy, so each one gets
        # its own session; the platform and workload are shared.
        report = Session(prefetch_accounting=policy).run(workload, platform=platform)
        gain = single.block_cycles / report.block_cycles
        print(f"   {policy.value:<9}: {report.block_cycles:>12,.0f} cycles/block "
              f"({format_time(report.block_runtime_seconds)}), "
              f"speedup {gain:5.1f}x")
    print()
    print("The paper's 26.1x assumes the next block's weight prefetch is fully "
          "hidden; the conservative policies show how much of the gain depends "
          "on that assumption.")


def main() -> None:
    link_bandwidth_sweep()
    l2_capacity_sweep()
    prefetch_accounting_comparison()


if __name__ == "__main__":
    main()
