"""Pipeline-parallel baseline.

This models the PipeEdge / Hermes family of approaches (Table I of the
paper): the Transformer *layers* are distributed across chips, each chip
executing a contiguous stage of the model.  Weights are not replicated, and
each chip's share of the model may even fit on-chip — but for a real-time,
single-user request the stages execute one after another, so the latency
of one token is essentially the single-chip latency plus the inter-stage
activation transfers.  Pipelining only pays off with a batch of independent
requests to keep all stages busy, which the paper argues is unavailable in
smart-glasses scenarios.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..analysis.evaluate import evaluate_block
from ..api.result import EvalResult
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform


def evaluate_pipeline_parallel(
    workload: Workload, platform: MultiChipPlatform
) -> EvalResult:
    """Analytically evaluate a layer-wise pipeline across the platform.

    Each stage is modelled as a single-chip execution of its layers: the
    block is evaluated (:func:`~repro.analysis.evaluate_block`, so a
    session builds each distinct stage program once) on a one-chip
    platform whose weight-residency decision sees only the stage's share
    of the model (a chip holding ``L/N`` layers may keep them all
    resident, which is the one advantage pipelining shares with the
    paper's scheme).  The per-token latency is the sum of all stage
    latencies plus the inter-stage activation transfers; the per-block
    figure reported is that latency divided by the layer count, to stay
    comparable with the other approaches.
    """
    config = workload.config
    num_chips = platform.num_chips
    layers_per_stage = max(1, math.ceil(config.num_layers / num_chips))
    num_stages = math.ceil(config.num_layers / layers_per_stage)

    stage = evaluate_block(
        Workload(
            config=replace(config, num_layers=layers_per_stage),
            mode=workload.mode,
            seq_len=workload.seq_len,
        ),
        platform.with_num_chips(1),
    )

    # Inter-stage activation transfer: the S x E activations move once per
    # stage boundary per token.
    act_bytes = workload.query_rows * config.embed_dim * config.act_dtype.size_bytes
    transfer_cycles = platform.link.transfer_cycles(act_bytes, platform.frequency_hz)
    transfer_energy = platform.link.transfer_energy_joules(act_bytes)
    num_boundaries = max(0, num_stages - 1)

    inference_cycles = (
        config.num_layers * stage.block_cycles + num_boundaries * transfer_cycles
    )
    inference_energy = (
        config.num_layers * stage.block_energy_joules
        + num_boundaries * transfer_energy
    )
    plan = stage.program.memory_plans[0]

    return EvalResult(
        strategy="pipeline_parallel",
        approach="Pipeline parallel (layer split)",
        workload=workload,
        num_chips=num_chips,
        frequency_hz=platform.frequency_hz,
        block_cycles=inference_cycles / config.num_layers,
        block_energy_joules=inference_energy / config.num_layers,
        l3_bytes_per_block=stage.total_l3_bytes,
        weight_bytes_per_chip=plan.block_weight_bytes * layers_per_stage,
        weights_replicated=False,
        synchronisations_per_block=0,
        uses_pipelining=True,
        notes=(
            f"{layers_per_stage} layer(s) per stage; single-request latency "
            "gains come only from weight residency, not from parallel compute"
        ),
    )
