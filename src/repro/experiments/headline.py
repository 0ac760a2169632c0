"""Headline numbers of the paper (abstract and Sec. V-B).

The abstract reports, for the 8-chip TinyLlama system in autoregressive
mode, an energy of 0.64 mJ, a latency of 0.54 ms, a super-linear speedup of
26.1x, and an EDP improvement of 27.2x over a single chip; 9.9x for prompt
mode, 4.7x for MobileBERT on 4 chips, and 60.1x / 1.3x energy reduction for
the scaled-up model on 64 chips.  This experiment measures the same
quantities with our simulator and reports them side by side with the
paper's values, flagging whether the qualitative claim (who wins, and
whether the scaling is super-linear) still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.tables import format_table
from ..graph.workload import autoregressive, prompt
from ..models.tinyllama import (
    TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN,
    TINYLLAMA_PROMPT_SEQ_LEN,
    tinyllama_scaled,
)
from .fig4 import run_fig4a, run_fig4b, run_fig4c, session_sweep


@dataclass(frozen=True)
class HeadlineMetric:
    """One paper-reported number next to its measured counterpart."""

    name: str
    paper_value: float
    measured_value: float
    unit: str
    higher_is_better: bool = True

    @property
    def ratio(self) -> float:
        """Measured / paper value."""
        if self.paper_value == 0:
            return float("inf")
        return self.measured_value / self.paper_value


@dataclass(frozen=True)
class HeadlineResult:
    """All headline metrics of the paper."""

    metrics: List[HeadlineMetric]

    def metric(self, name: str) -> HeadlineMetric:
        """Look up a metric by name."""
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"no headline metric named {name!r}")


def run_headline() -> HeadlineResult:
    """Measure every headline number of the paper."""
    autoregressive_sweep = run_fig4a()
    prompt_sweep = run_fig4b()
    mobilebert_sweep = run_fig4c()

    ar8 = autoregressive_sweep.result_for(8)
    ar1 = autoregressive_sweep.result_for(1)
    speedups_ar = autoregressive_sweep.speedups()
    speedups_prompt = prompt_sweep.speedups()
    speedups_mb = mobilebert_sweep.speedups()

    edp_improvement = (
        ar1.energy_delay_product / ar8.energy_delay_product
        if ar8.energy_delay_product > 0
        else float("inf")
    )

    scaled = tinyllama_scaled()
    scaled_ar_sweep = session_sweep(
        autoregressive(scaled, TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN), (1, 64)
    )
    scaled_prompt_sweep = session_sweep(
        prompt(scaled, TINYLLAMA_PROMPT_SEQ_LEN), (1, 8)
    )
    scaled_speedup = scaled_ar_sweep.speedups()[64]
    scaled_energy_gain = (
        scaled_ar_sweep.result_for(1).block_energy_joules
        / scaled_ar_sweep.result_for(64).block_energy_joules
    )

    metrics = [
        HeadlineMetric(
            name="tinyllama_autoregressive_speedup_8_chips",
            paper_value=26.1,
            measured_value=speedups_ar[8],
            unit="x",
        ),
        HeadlineMetric(
            name="tinyllama_autoregressive_energy_8_chips",
            paper_value=0.64e-3,
            measured_value=ar8.block_energy_joules,
            unit="J",
            higher_is_better=False,
        ),
        HeadlineMetric(
            name="tinyllama_autoregressive_latency_8_chips",
            paper_value=0.54e-3,
            measured_value=ar8.block_runtime_seconds,
            unit="s",
            higher_is_better=False,
        ),
        HeadlineMetric(
            name="tinyllama_autoregressive_edp_improvement_8_chips",
            paper_value=27.2,
            measured_value=edp_improvement,
            unit="x",
        ),
        HeadlineMetric(
            name="tinyllama_prompt_speedup_8_chips",
            paper_value=9.9,
            measured_value=speedups_prompt[8],
            unit="x",
        ),
        HeadlineMetric(
            name="mobilebert_speedup_4_chips",
            paper_value=4.7,
            measured_value=speedups_mb[4],
            unit="x",
        ),
        HeadlineMetric(
            name="scaled_tinyllama_speedup_64_chips",
            paper_value=60.1,
            measured_value=scaled_speedup,
            unit="x",
        ),
        HeadlineMetric(
            name="scaled_tinyllama_energy_reduction_64_chips",
            paper_value=1.3,
            measured_value=scaled_energy_gain,
            unit="x",
        ),
        HeadlineMetric(
            name="scaled_tinyllama_prompt_speedup_8_chips",
            paper_value=9.9,
            measured_value=scaled_prompt_sweep.speedups()[8],
            unit="x",
        ),
    ]
    return HeadlineResult(metrics=metrics)


def render_headline(result: HeadlineResult) -> str:
    """Plain-text paper-vs-measured comparison."""
    rows = []
    for metric in result.metrics:
        rows.append(
            [
                metric.name,
                f"{metric.paper_value:g} {metric.unit}",
                f"{metric.measured_value:g} {metric.unit}",
                f"{metric.ratio:.2f}",
            ]
        )
    return format_table(["Metric", "Paper", "Measured", "Measured/Paper"], rows)


def main() -> None:
    """Run and print the headline comparison."""
    print(render_headline(run_headline()))


if __name__ == "__main__":
    main()
