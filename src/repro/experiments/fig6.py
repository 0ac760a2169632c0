"""Figure 6: scalability of the partitioning scheme up to 64 chips.

The paper scales the TinyLlama head count from 8 to 64 (leaving every other
parameter unchanged) and distributes inference over 1-64 chips, reporting
the speedup of the autoregressive and prompt modes against a single chip
next to the ideal linear-scaling line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..analysis.metrics import scaling_points
from ..analysis.tables import scaling_table
from ..api.session import EvalSweep
from ..graph.workload import autoregressive, prompt
from ..models.tinyllama import (
    TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN,
    TINYLLAMA_PROMPT_SEQ_LEN,
    TINYLLAMA_SCALED_NUM_HEADS,
    tinyllama_scaled,
)
from .fig4 import session_sweep

#: Chip counts of the scalability study (Fig. 6).
SCALABILITY_CHIP_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Fig6Result:
    """The two speedup curves of Fig. 6."""

    autoregressive: EvalSweep
    prompt: EvalSweep

    def speedups(self) -> Dict[str, Dict[int, float]]:
        """Speedup series for both modes."""
        return {
            "autoregressive": self.autoregressive.speedups(),
            "prompt": self.prompt.speedups(),
        }


def run_fig6(
    chip_counts: Sequence[int] = SCALABILITY_CHIP_COUNTS,
    num_heads: int = TINYLLAMA_SCALED_NUM_HEADS,
) -> Fig6Result:
    """Run the scalability study on the scaled-up TinyLlama."""
    scaled = tinyllama_scaled(num_heads)
    return Fig6Result(
        autoregressive=session_sweep(
            autoregressive(scaled, TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN), chip_counts
        ),
        prompt=session_sweep(
            prompt(scaled, TINYLLAMA_PROMPT_SEQ_LEN), chip_counts
        ),
    )


def render_fig6(result: Fig6Result) -> str:
    """Plain-text rendering of the two speedup curves."""
    parts = [
        scaling_table(
            scaling_points(result.autoregressive.results),
            title="Fig. 6 Scaled-up TinyLlama, autoregressive mode",
        ),
        "",
        scaling_table(
            scaling_points(result.prompt.results),
            title="Fig. 6 Scaled-up TinyLlama, prompt mode",
        ),
    ]
    return "\n".join(parts)


def main() -> None:
    """Run and print Fig. 6."""
    print(render_fig6(run_fig6()))


if __name__ == "__main__":
    main()
