"""Ablations of the modelling and design choices behind the paper's results.

These benchmarks quantify them (docs/MODELS.md documents the platform
constants and the model variants they vary):

* the prefetch-accounting policy (how much of the super-linear speedup
  rests on hiding the double-buffered weight prefetch),
* the hierarchical (groups-of-4) reduction versus a flat all-to-one reduce,
* the chip-to-chip link bandwidth,
* the FFN flavour (the paper's two-matrix description versus the gated
  SwiGLU variant used by the actual llama2.c checkpoint).
"""

from __future__ import annotations

from repro import (
    PrefetchAccounting,
    autoregressive,
    encoder,
    evaluate_block,
    mobilebert,
    siracusa_platform,
    siracusa_variant,
    tinyllama_42m,
    tinyllama_gated,
)
from repro.core.collectives import (
    all_to_one_reduce,
    estimate_plan_cycles,
    hierarchical_all_reduce,
)


def test_ablation_prefetch_accounting(run_once):
    """How much of the 8-chip speedup depends on hiding the prefetch."""
    workload = autoregressive(tinyllama_42m(), 128)
    single = evaluate_block(workload, siracusa_platform(1))

    def run_policies():
        return {
            policy: evaluate_block(
                workload, siracusa_platform(8), prefetch_accounting=policy
            )
            for policy in PrefetchAccounting
        }

    reports = run_once(run_policies)
    print()
    print("Prefetch accounting ablation (TinyLlama autoregressive, 8 chips):")
    for policy, report in reports.items():
        gain = single.block_cycles / report.block_cycles
        print(f"  {policy.value:<9}: {report.block_cycles:>12,.0f} cycles "
              f"(speedup {gain:5.1f}x)")

    hidden = reports[PrefetchAccounting.HIDDEN]
    overlap = reports[PrefetchAccounting.OVERLAP]
    blocking = reports[PrefetchAccounting.BLOCKING]
    # Hidden (the paper's accounting) is fastest, blocking slowest.
    assert hidden.block_cycles < overlap.block_cycles <= blocking.block_cycles
    # Even the most conservative accounting keeps the 8-chip system
    # clearly (super-linearly is not required) ahead of the single chip.
    assert single.block_cycles / blocking.block_cycles > 6
    # The L3 energy is identical across policies: accounting only moves
    # runtime, not traffic.
    assert hidden.total_l3_bytes == overlap.total_l3_bytes == blocking.total_l3_bytes


def test_ablation_hierarchical_vs_flat_reduce(run_once):
    """Groups-of-4 reduction versus a flat all-to-one reduction."""
    platform = siracusa_platform(64)
    payload = 512  # one autoregressive partial output row (E bytes, int8)

    def estimate():
        hierarchical = hierarchical_all_reduce(platform, payload)
        flat = all_to_one_reduce(platform, payload)
        return (
            estimate_plan_cycles(hierarchical, platform),
            estimate_plan_cycles(flat, platform),
        )

    hierarchical_cycles, flat_cycles = run_once(estimate)
    print()
    print(f"All-reduce of {payload} B on 64 chips: hierarchical "
          f"{hierarchical_cycles:,.0f} cycles vs flat {flat_cycles:,.0f} cycles")
    # The hierarchical scheme is the scalable one (the reason the paper
    # groups chips by four); the flat reduce serialises 63 messages at the
    # root and loses badly at 64 chips.
    assert hierarchical_cycles < flat_cycles / 3


def test_ablation_link_bandwidth(run_once):
    """Sensitivity of the MobileBERT 4-chip speedup to the C2C bandwidth."""
    workload = encoder(mobilebert(), 268)
    single = evaluate_block(workload, siracusa_platform(1))

    def run_links():
        results = {}
        for gbps in (0.125, 0.5, 2.0):
            results[gbps] = evaluate_block(workload, siracusa_variant(4, link_gbps=gbps))
        return results

    results = run_once(run_links)
    print()
    print("Link-bandwidth ablation (MobileBERT, 4 chips):")
    for gbps, report in results.items():
        gain = single.block_cycles / report.block_cycles
        print(f"  {gbps:>6.3f} GB/s: speedup {gain:4.2f}x")
    # Faster links help monotonically; the paper's 0.5 GB/s operating point
    # is already enough for a ~4x-or-better speedup.
    assert results[0.125].block_cycles > results[0.5].block_cycles > results[2.0].block_cycles
    assert single.block_cycles / results[0.5].block_cycles > 3.5


def test_ablation_ffn_flavour(run_once):
    """The paper's two-matrix FFN versus the gated llama2.c FFN."""
    def run_both():
        reports = {}
        for config in (tinyllama_42m(), tinyllama_gated()):
            workload = autoregressive(config, 128)
            reports[config.name] = {
                1: evaluate_block(workload, siracusa_platform(1)),
                8: evaluate_block(workload, siracusa_platform(8)),
            }
        return reports

    reports = run_once(run_both)
    print()
    print("FFN flavour ablation (TinyLlama autoregressive):")
    for name, by_chips in reports.items():
        gain = by_chips[1].block_cycles / by_chips[8].block_cycles
        print(f"  {name:<28}: 8-chip speedup {gain:5.1f}x")
    # The qualitative result (clearly super-linear 8-chip speedup) holds for
    # both FFN flavours, i.e. it does not depend on the two-matrix reading
    # of the paper's model description.
    for by_chips in reports.values():
        assert by_chips[1].block_cycles / by_chips[8].block_cycles > 8
