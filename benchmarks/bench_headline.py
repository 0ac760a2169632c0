"""Headline numbers: abstract of the paper versus our measurements.

Paper: 8-chip TinyLlama autoregressive inference at 0.64 mJ and 0.54 ms
with a 26.1x super-linear speedup and a 27.2x EDP improvement; 9.9x for
prompt mode; 4.7x for MobileBERT on 4 chips; 60.1x and 1.3x lower energy
for the scaled-up model on 64 chips.
"""

from __future__ import annotations

from repro.analysis import headline_metrics, render_headline


def test_headline_numbers(run_study):
    result = run_study("headline")
    print()
    print(render_headline(result))
    metrics = {metric.name: metric for metric in headline_metrics(result)}

    def measured(name: str) -> float:
        return metrics[name].measured_value

    # Speedups: super-linear where the paper claims super-linear, and within
    # a factor ~1.5 of the reported magnitudes.
    assert measured("tinyllama_autoregressive_speedup_8_chips") > 8
    assert 15 < measured("tinyllama_autoregressive_speedup_8_chips") < 45
    assert measured("tinyllama_prompt_speedup_8_chips") > 8
    assert measured("mobilebert_speedup_4_chips") > 4
    assert 40 < measured("scaled_tinyllama_speedup_64_chips") < 90

    # Energy and latency of the 8-chip system land in the paper's range.
    assert 0.3e-3 < measured("tinyllama_autoregressive_energy_8_chips") < 1.0e-3
    assert 0.2e-3 < measured("tinyllama_autoregressive_latency_8_chips") < 1.0e-3

    # EDP improvement within ~30% of the paper's 27.2x.
    assert 18 < measured("tinyllama_autoregressive_edp_improvement_8_chips") < 40

    # Scaled-up model consumes less energy per block than the single chip.
    assert measured("scaled_tinyllama_energy_reduction_64_chips") > 1.0
