"""Lowering declarative architectures into the graph representation.

:func:`build_model` turns a validated :class:`~repro.arch.spec.ArchSpec`
into a plain :class:`~repro.graph.transformer.TransformerConfig`, the
one place a model configuration is constructed, so every architecture
flows through partitioning, scheduling, simulation, Session, DSE,
serving, and fleet without those layers changing.

The graph layer models one homogeneous stack of blocks, so the factory
merges an architecture's block groups per role and requires the merged
groups to agree on every architectural choice (an
:class:`~repro.errors.ArchitectureError` otherwise).  Encoder/decoder
architectures lower to their *decoder* stack by default, with
``cross_attention=True`` so every block carries the second
(encoder-memory) attention stage; pass ``stack="encoder"`` to obtain the
encoder stack as a separate config.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ArchitectureError, ConfigurationError, SpecError
from ..graph.dtypes import DType, dtype_from_name
from ..graph.ops import ActivationKind, NormKind, total_macs
from ..graph.transformer import (
    FfnKind,
    InferenceMode,
    TransformerConfig,
    build_block_operators,
)
from ..graph.workload import Workload
from .spec import ArchSpec, BlockGroupSpec

__all__ = [
    "build_model",
    "model_macs",
    "resolve_activation",
    "resolve_dtype",
    "resolve_norm",
]

_NORMS = {kind.value: kind for kind in NormKind}
_ACTIVATIONS = {kind.value: kind for kind in ActivationKind}
_FFN_MATRICES = {
    "dense": FfnKind.STANDARD,
    "gated": FfnKind.GATED,
    "moe": FfnKind.STANDARD,
    "moe-gated": FfnKind.GATED,
}


def _fail(path: Optional[str], field: str, message: str) -> ArchitectureError:
    where = f"{path}" if path else field
    return ArchitectureError(f"{where}: {message}")


def resolve_norm(name: str, *, path: Optional[str] = None) -> NormKind:
    """Look up a normalisation flavour by name."""
    kind = _NORMS.get(name)
    if kind is None:
        raise _fail(
            path,
            "norm",
            f"unknown norm {name!r}; choices: " + ", ".join(sorted(_NORMS)),
        )
    return kind


def resolve_activation(name: str, *, path: Optional[str] = None) -> ActivationKind:
    """Look up an activation flavour by name."""
    kind = _ACTIVATIONS.get(name)
    if kind is None:
        raise _fail(
            path,
            "activation",
            f"unknown activation {name!r}; choices: "
            + ", ".join(sorted(_ACTIVATIONS)),
        )
    return kind


def resolve_dtype(name: str, *, path: Optional[str] = None) -> DType:
    """Look up a dtype by registry name."""
    try:
        return dtype_from_name(name)
    except KeyError as error:
        raise _fail(path, "dtype", str(error.args[0])) from None


def _resolved_choices(spec: ArchSpec, group: BlockGroupSpec) -> Dict[str, object]:
    """The architectural choices one group pins for the merged stack."""
    return {
        "num_heads": group.num_heads,
        "head_dim": group.head_dim,
        "ffn_dim": group.ffn_dim,
        "kv_heads": group.resolved_kv_heads(),
        "ffn_kind": _FFN_MATRICES[group.ffn],
        "num_experts": group.num_experts if group.is_moe else 1,
        "moe_top_k": group.moe_top_k if group.is_moe else 1,
        "norm_kind": resolve_norm(group.norm),
        "activation": resolve_activation(group.activation),
        "weight_dtype": resolve_dtype(group.weight_dtype or spec.weight_dtype),
        "act_dtype": resolve_dtype(group.act_dtype or spec.act_dtype),
    }


def _merge_groups(
    spec: ArchSpec, groups: List[BlockGroupSpec], role: str
) -> Dict[str, object]:
    """Merge same-role groups into one homogeneous stack description."""
    merged = _resolved_choices(spec, groups[0])
    for group in groups[1:]:
        choices = _resolved_choices(spec, group)
        for field, value in choices.items():
            if value != merged[field]:
                raise ArchitectureError(
                    f"architecture {spec.name!r}: the {role} stack is "
                    f"heterogeneous in {field} ({merged[field]!r} vs "
                    f"{value!r}); the block cost model requires identical "
                    "blocks within a stack"
                )
    merged["num_layers"] = sum(group.repeat for group in groups)
    return merged


def build_model(spec: ArchSpec, *, stack: str = "auto") -> TransformerConfig:
    """Lower an architecture description into a model configuration.

    Args:
        spec: The architecture to lower.
        stack: Which stack to build: ``"decoder"``, ``"encoder"``, or
            ``"auto"`` (the decoder when one exists, else the encoder).
            For encoder/decoder architectures the decoder config carries
            ``cross_attention=True``; the encoder stack is available as a
            separate config named ``"<name>.encoder"``.

    Raises:
        ArchitectureError: If the spec violates a structural constraint
            or cannot be expressed by the graph layer.
    """
    for index, group in enumerate(spec.blocks):
        try:
            group.validate(f"arch {spec.name!r} blocks[{index}]")
        except SpecError as error:
            raise ArchitectureError(str(error)) from None
    roles = {group.role for group in spec.blocks}
    if stack == "auto":
        stack = "decoder" if "decoder" in roles else "encoder"
    if stack not in ("decoder", "encoder"):
        raise ArchitectureError(
            f"unknown stack {stack!r}; choices: auto, decoder, encoder"
        )
    if stack not in roles:
        raise ArchitectureError(
            f"architecture {spec.name!r} has no {stack} block groups"
        )
    groups = [group for group in spec.blocks if group.role == stack]
    merged = _merge_groups(spec, groups, stack)
    cross_attention = stack == "decoder" and "encoder" in roles
    name = spec.name if stack != "encoder" or "decoder" not in roles else (
        f"{spec.name}.encoder"
    )
    kv_cache_dtype = (
        resolve_dtype(spec.kv_cache_dtype)
        if spec.kv_cache_dtype is not None
        else None
    )
    try:
        return TransformerConfig(
            name=name,
            embed_dim=spec.embed_dim,
            ffn_dim=merged["ffn_dim"],
            num_heads=merged["num_heads"],
            num_layers=merged["num_layers"],
            head_dim=merged["head_dim"],
            vocab_size=spec.vocab_size,
            ffn_kind=merged["ffn_kind"],
            norm_kind=merged["norm_kind"],
            activation=merged["activation"],
            weight_dtype=merged["weight_dtype"],
            act_dtype=merged["act_dtype"],
            tie_embeddings=spec.tie_embeddings,
            kv_heads=merged["kv_heads"],
            num_experts=merged["num_experts"],
            moe_top_k=merged["moe_top_k"],
            attention_window=spec.attention_window,
            kv_cache_dtype=kv_cache_dtype,
            cross_attention=cross_attention,
        )
    except ConfigurationError as error:
        raise ArchitectureError(
            f"architecture {spec.name!r} cannot be lowered: {error}"
        ) from None


def model_macs(
    config: TransformerConfig,
    *,
    mode: InferenceMode = InferenceMode.AUTOREGRESSIVE,
    seq_len: int = 128,
) -> int:
    """Multiply-accumulate count of one full forward pass (all layers).

    A convenience for architecture comparisons and the property suite;
    per-block operator costs come from the same
    :func:`~repro.graph.transformer.build_block_operators` the schedulers
    use, so this can never drift from the cost model.
    """
    workload = Workload(config=config, mode=mode, seq_len=seq_len)
    operators = build_block_operators(
        config,
        query_rows=workload.query_rows,
        kv_rows=workload.new_kv_rows,
        attended_positions=workload.attended_positions,
        cross_attended_positions=workload.cross_attended_positions,
    )
    return total_macs(operators.all_operators) * config.num_layers
