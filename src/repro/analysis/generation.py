"""Token-generation latency and energy model.

The figures of the paper report steady-state per-block numbers at a fixed
context length.  An application (the smart-glasses assistant of the paper's
introduction) cares about the cost of generating a whole reply: a prompt
pass over the query followed by token-by-token decoding with a *growing*
KV-cache.  This module composes per-block evaluations into that end-to-end
view, re-evaluating the block at several context lengths so the quadratic
attention term and the KV-cache growth are captured rather than assumed
constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.placement import PrefetchAccounting
from ..errors import AnalysisError
from ..graph.transformer import TransformerConfig
from ..graph.workload import autoregressive, prompt
from ..hw.platform import MultiChipPlatform
from .evaluate import BlockReport, evaluate_block


@dataclass(frozen=True)
class GenerationStep:
    """Cost of decoding one token at a given context length."""

    token_index: int
    context_length: int
    block_cycles: float
    inference_cycles: float
    inference_energy_joules: float


@dataclass(frozen=True)
class GenerationReport:
    """End-to-end cost of one prompt pass plus ``N`` generated tokens.

    Attributes:
        config: The model used.
        platform_chips: Number of chips of the platform.
        prompt_tokens: Length of the prompt processed in prompt mode.
        generated_tokens: Number of tokens decoded autoregressively.
        prompt_report: Per-block report of the prompt pass.
        steps: Per-token decoding costs (sampled and interpolated).
    """

    config: TransformerConfig
    platform_chips: int
    prompt_tokens: int
    generated_tokens: int
    prompt_report: BlockReport
    steps: List[GenerationStep]

    @property
    def prompt_cycles(self) -> float:
        """Cycles of the full prompt pass (all layers)."""
        return self.prompt_report.inference_cycles

    @property
    def decode_cycles(self) -> float:
        """Cycles of decoding all generated tokens (all layers each)."""
        return sum(step.inference_cycles for step in self.steps)

    @property
    def total_cycles(self) -> float:
        """Cycles of the whole reply (prompt pass plus decoding)."""
        return self.prompt_cycles + self.decode_cycles

    @property
    def total_energy_joules(self) -> float:
        """Energy of the whole reply."""
        decode = sum(step.inference_energy_joules for step in self.steps)
        return self.prompt_report.inference_energy_joules + decode

    def total_seconds(self, frequency_hz: Optional[float] = None) -> float:
        """Wall-clock duration of the whole reply.

        ``frequency_hz`` defaults to the clock of the platform the reply
        was evaluated on.
        """
        if frequency_hz is None:
            frequency_hz = self.prompt_report.platform.frequency_hz
        if frequency_hz <= 0:
            raise AnalysisError("frequency must be positive")
        return self.total_cycles / frequency_hz

    @property
    def mean_time_per_token_cycles(self) -> float:
        """Average decoding cost per generated token."""
        if not self.steps:
            return 0.0
        return self.decode_cycles / len(self.steps)


def _sample_context_lengths(start: int, end: int, samples: int) -> List[int]:
    """Pick ``samples`` context lengths between start and end (inclusive)."""
    if samples <= 1 or end <= start:
        return [max(start, 1)]
    span = end - start
    return sorted({start + round(span * i / (samples - 1)) for i in range(samples)})


def evaluate_generation(
    config: TransformerConfig,
    platform: MultiChipPlatform,
    *,
    prompt_tokens: int,
    generated_tokens: int,
    context_samples: int = 4,
    prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN,
) -> GenerationReport:
    """Size one full reply: a prompt pass plus autoregressive decoding.

    The decoder is evaluated at ``context_samples`` context lengths between
    the prompt length and the final length; intermediate tokens reuse the
    nearest evaluated context (piecewise-constant interpolation), which
    keeps the number of simulator runs small while still reflecting the
    growth of the attention and KV-cache terms.

    Args:
        config: Model configuration.
        platform: Multi-chip platform to run on.
        prompt_tokens: Number of prompt tokens processed in prompt mode.
        generated_tokens: Number of tokens to decode (0 sizes a pure
            prompt pass, e.g. classification or scoring).
        context_samples: Number of distinct context lengths to simulate.
        prefetch_accounting: Runtime accounting policy for weight prefetches.

    Raises:
        AnalysisError: If ``prompt_tokens`` is not positive or
            ``generated_tokens`` is negative.
    """
    if prompt_tokens <= 0:
        raise AnalysisError("prompt_tokens must be positive")
    if generated_tokens < 0:
        raise AnalysisError("generated_tokens cannot be negative")
    if context_samples <= 0:
        raise AnalysisError("context_samples must be positive")

    prompt_report = evaluate_block(
        prompt(config, prompt_tokens),
        platform,
        prefetch_accounting=prefetch_accounting,
    )
    if generated_tokens == 0:
        return GenerationReport(
            config=config,
            platform_chips=platform.num_chips,
            prompt_tokens=prompt_tokens,
            generated_tokens=0,
            prompt_report=prompt_report,
            steps=[],
        )

    final_context = prompt_tokens + generated_tokens
    sampled_lengths = _sample_context_lengths(
        prompt_tokens + 1, final_context, context_samples
    )
    sampled_reports: Dict[int, BlockReport] = {
        length: evaluate_block(
            autoregressive(config, length),
            platform,
            prefetch_accounting=prefetch_accounting,
        )
        for length in sampled_lengths
    }

    steps: List[GenerationStep] = []
    for token_index in range(generated_tokens):
        context_length = prompt_tokens + token_index + 1
        nearest = min(sampled_lengths, key=lambda length: abs(length - context_length))
        report = sampled_reports[nearest]
        steps.append(
            GenerationStep(
                token_index=token_index,
                context_length=context_length,
                block_cycles=report.block_cycles,
                inference_cycles=report.inference_cycles,
                inference_energy_joules=report.inference_energy_joules,
            )
        )

    return GenerationReport(
        config=config,
        platform_chips=platform.num_chips,
        prompt_tokens=prompt_tokens,
        generated_tokens=generated_tokens,
        prompt_report=prompt_report,
        steps=steps,
    )
