"""Figure 4: runtime breakdown and speedup for the three workloads.

The paper's Fig. 4 shows, for (a) TinyLlama autoregressive mode, (b)
TinyLlama prompt mode, and (c) MobileBERT, the per-block runtime broken
down into computation, L3<->L2 DMA, L2<->L1 DMA, and chip-to-chip
communication, together with the speedup over a single chip and the linear
scaling reference.  This module regenerates those series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..analysis.tables import runtime_breakdown_table
from ..api.session import EvalSweep, default_session
from ..graph.workload import Workload, autoregressive, encoder, prompt
from ..models.mobilebert import MOBILEBERT_SEQ_LEN, mobilebert
from ..models.tinyllama import (
    TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN,
    TINYLLAMA_PROMPT_SEQ_LEN,
    tinyllama_42m,
)

#: Chip counts used in Fig. 4(a) and 4(b).
TINYLLAMA_CHIP_COUNTS = (1, 2, 4, 8)

#: Chip counts used in Fig. 4(c).
MOBILEBERT_CHIP_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class Fig4Result:
    """The three sweeps behind Fig. 4."""

    autoregressive: EvalSweep
    prompt: EvalSweep
    mobilebert: EvalSweep

    def speedups(self) -> Dict[str, Dict[int, float]]:
        """Speedup series of the three panels."""
        return {
            "tinyllama_autoregressive": self.autoregressive.speedups(),
            "tinyllama_prompt": self.prompt.speedups(),
            "mobilebert": self.mobilebert.speedups(),
        }


def tinyllama_autoregressive_workload() -> Workload:
    """The workload of Fig. 4(a): TinyLlama, KV-cached decoding, S=128."""
    return autoregressive(tinyllama_42m(), TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN)


def tinyllama_prompt_workload() -> Workload:
    """The workload of Fig. 4(b): TinyLlama prompt mode, S=16."""
    return prompt(tinyllama_42m(), TINYLLAMA_PROMPT_SEQ_LEN)


def mobilebert_workload() -> Workload:
    """The workload of Fig. 4(c): MobileBERT encoder, S=268."""
    return encoder(mobilebert(), MOBILEBERT_SEQ_LEN)


def session_sweep(workload: Workload, chip_counts: Sequence[int]) -> EvalSweep:
    """Run one figure sweep through the shared evaluation session."""
    return default_session().sweep(workload, chip_counts)


def run_fig4a(chip_counts: Sequence[int] = TINYLLAMA_CHIP_COUNTS) -> EvalSweep:
    """Fig. 4(a): TinyLlama autoregressive mode, 1-8 chips."""
    return session_sweep(tinyllama_autoregressive_workload(), chip_counts)


def run_fig4b(chip_counts: Sequence[int] = TINYLLAMA_CHIP_COUNTS) -> EvalSweep:
    """Fig. 4(b): TinyLlama prompt mode, 1-8 chips."""
    return session_sweep(tinyllama_prompt_workload(), chip_counts)


def run_fig4c(chip_counts: Sequence[int] = MOBILEBERT_CHIP_COUNTS) -> EvalSweep:
    """Fig. 4(c): MobileBERT, 1-4 chips."""
    return session_sweep(mobilebert_workload(), chip_counts)


def run_fig4() -> Fig4Result:
    """Run all three panels of Fig. 4."""
    return Fig4Result(
        autoregressive=run_fig4a(),
        prompt=run_fig4b(),
        mobilebert=run_fig4c(),
    )


def render_fig4(result: Fig4Result) -> str:
    """Plain-text rendering of the three panels."""
    sections = [
        ("Fig. 4(a) TinyLlama autoregressive mode", result.autoregressive),
        ("Fig. 4(b) TinyLlama prompt mode", result.prompt),
        ("Fig. 4(c) MobileBERT", result.mobilebert),
    ]
    parts = []
    for title, sweep in sections:
        parts.append(title)
        parts.append(runtime_breakdown_table(sweep))
        parts.append("")
    return "\n".join(parts)


def main() -> None:
    """Run and print Fig. 4."""
    print(render_fig4(run_fig4()))


if __name__ == "__main__":
    main()
