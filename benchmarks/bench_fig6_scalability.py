"""Figure 6: scalability of the scaled-up TinyLlama on 1-64 chips.

Paper result: autoregressive mode scales quasi-linearly up to 64 chips
(60.1x), with super-linear points where a block (8-16 chips) or the whole
model (32-64 chips) becomes on-chip resident; prompt mode scales linearly
up to 16 chips and then shows diminishing returns.
"""

from __future__ import annotations

from repro.analysis import render_fig6


def test_fig6_scalability(run_study):
    result = run_study("fig6")
    print()
    print(render_fig6(result))

    autoregressive = result.stage("autoregressive").result.speedups()
    prompt = result.stage("prompt").result.speedups()

    # Autoregressive: speedup grows monotonically with the chip count and
    # lands in the neighbourhood of the paper's 60.1x at 64 chips.
    counts = sorted(autoregressive)
    for previous, current in zip(counts, counts[1:]):
        assert autoregressive[current] > autoregressive[previous]
    assert 45.0 < autoregressive[64] < 80.0
    # Super-linear once a block fits on-chip (8-32 chips).
    for num_chips in (8, 16, 32):
        assert autoregressive[num_chips] > num_chips

    # Prompt mode: close to linear up to 16 chips, diminishing afterwards.
    assert prompt[16] > 0.7 * 16
    efficiency_16 = prompt[16] / 16
    efficiency_64 = prompt[64] / 64
    assert efficiency_64 < 0.6 * efficiency_16
    # Autoregressive scales better than prompt at the largest system size.
    assert autoregressive[64] > prompt[64]

    # Residency transitions explain the curve: double-buffered at 8/16,
    # everything resident at 32/64.
    from repro.core.placement import WeightResidency

    residency = {
        r.num_chips: r.residencies()[0]
        for r in result.stage("autoregressive").result.results
    }
    assert residency[8] is WeightResidency.DOUBLE_BUFFERED
    assert residency[16] is WeightResidency.DOUBLE_BUFFERED
    assert residency[32] is WeightResidency.ALL_RESIDENT
    assert residency[64] is WeightResidency.ALL_RESIDENT
