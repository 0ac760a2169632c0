"""Figure 5: energy versus runtime for the three workloads.

The paper's Fig. 5 plots per-block energy against per-block runtime for
TinyLlama autoregressive mode, TinyLlama prompt mode, and MobileBERT; the
default-configuration points (1-8 chips for TinyLlama, 1-4 for MobileBERT)
are shown as crosses and the scaled-up (64-head) model's 16-64 chip points
as circles.  This module regenerates both series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.tables import energy_runtime_table
from ..api.session import EvalSweep
from ..graph.workload import autoregressive, prompt
from ..models.tinyllama import (
    TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN,
    TINYLLAMA_PROMPT_SEQ_LEN,
    tinyllama_scaled,
)
from .fig4 import (
    MOBILEBERT_CHIP_COUNTS,
    TINYLLAMA_CHIP_COUNTS,
    mobilebert_workload,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    session_sweep,
)

#: Chip counts of the scaled-up model shown as circles in Fig. 5(a)/(b).
SCALED_CHIP_COUNTS = (16, 32, 64)


@dataclass(frozen=True)
class Fig5Result:
    """The energy/runtime series behind Fig. 5."""

    autoregressive: EvalSweep
    autoregressive_scaled: EvalSweep
    prompt: EvalSweep
    prompt_scaled: EvalSweep
    mobilebert: EvalSweep

    def points(self) -> Dict[str, List[Tuple[int, float, float]]]:
        """(chips, cycles, energy_joules) tuples per panel and series."""
        def series(sweep: EvalSweep) -> List[Tuple[int, float, float]]:
            return [
                (result.num_chips, result.block_cycles, result.block_energy_joules)
                for result in sweep.results
            ]

        return {
            "tinyllama_autoregressive": series(self.autoregressive),
            "tinyllama_autoregressive_scaled": series(self.autoregressive_scaled),
            "tinyllama_prompt": series(self.prompt),
            "tinyllama_prompt_scaled": series(self.prompt_scaled),
            "mobilebert": series(self.mobilebert),
        }


def run_fig5(
    original_chip_counts: Sequence[int] = TINYLLAMA_CHIP_COUNTS,
    scaled_chip_counts: Sequence[int] = SCALED_CHIP_COUNTS,
    mobilebert_chip_counts: Sequence[int] = MOBILEBERT_CHIP_COUNTS,
) -> Fig5Result:
    """Run every series of Fig. 5."""
    scaled = tinyllama_scaled()
    return Fig5Result(
        autoregressive=run_fig4a(original_chip_counts),
        autoregressive_scaled=session_sweep(
            autoregressive(scaled, TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN),
            scaled_chip_counts,
        ),
        prompt=run_fig4b(original_chip_counts),
        prompt_scaled=session_sweep(
            prompt(scaled, TINYLLAMA_PROMPT_SEQ_LEN), scaled_chip_counts
        ),
        mobilebert=run_fig4c(mobilebert_chip_counts),
    )


def render_fig5(result: Fig5Result) -> str:
    """Plain-text rendering of the five series."""
    sections = [
        ("Fig. 5(a) TinyLlama autoregressive (original model)", result.autoregressive),
        (
            "Fig. 5(a) TinyLlama autoregressive (scaled-up, 64 heads)",
            result.autoregressive_scaled,
        ),
        ("Fig. 5(b) TinyLlama prompt (original model)", result.prompt),
        ("Fig. 5(b) TinyLlama prompt (scaled-up, 64 heads)", result.prompt_scaled),
        ("Fig. 5(c) MobileBERT", result.mobilebert),
    ]
    parts = []
    for title, sweep in sections:
        parts.append(title)
        parts.append(energy_runtime_table(sweep))
        parts.append("")
    return "\n".join(parts)


def main() -> None:
    """Run and print Fig. 5."""
    print(render_fig5(run_fig5()))


if __name__ == "__main__":
    main()
