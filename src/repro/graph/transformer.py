"""Transformer model configuration and per-block operator construction.

A :class:`TransformerConfig` captures the shape of an encoder or decoder
model (embedding dimension, FFN dimension, heads, layers, FFN flavour).
:func:`build_block_operators` turns a configuration plus a slice description
(how many heads / FFN columns a chip owns) into the concrete operator list a
chip executes for one Transformer block.  The same builder serves both the
single-chip baseline (the slice is the whole model) and every chip of a
partitioned system, which guarantees that the partitioned cost model and the
baseline cost model cannot drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..errors import ConfigurationError
from ..interning import reduce_interned
from .dtypes import DType, INT8
from .ops import (
    ActivationKind,
    ActivationOp,
    AttentionMatmulOp,
    ElementwiseKind,
    ElementwiseOp,
    LinearOp,
    NormKind,
    NormOp,
    Operator,
    SoftmaxOp,
)


class FfnKind(str, enum.Enum):
    """Feed-forward network flavour.

    ``STANDARD`` is the two-matrix FFN described in the paper
    (``E x F`` followed by ``F x E`` with a GELU in between, as in BERT).
    ``GATED`` is the SwiGLU-style FFN used by the Llama family (three
    matrices: gate ``E x F``, up ``E x F``, down ``F x E``).
    """

    STANDARD = "standard"
    GATED = "gated"


class InferenceMode(str, enum.Enum):
    """The three inference regimes evaluated in the paper."""

    #: Token-by-token decoding with a KV-cache; GEMV-dominated.
    AUTOREGRESSIVE = "autoregressive"
    #: Parallel processing of a prompt; GEMM-dominated, fills the KV-cache.
    PROMPT = "prompt"
    #: Encoder-only processing of a full sequence (no KV-cache).
    ENCODER = "encoder"


@dataclass(frozen=True)
class TransformerConfig:
    """Shape description of a Transformer model.

    Attributes:
        name: Model name used in reports.
        embed_dim: Embedding dimension ``E``.
        ffn_dim: Intermediate (FFN) dimension ``F``.
        num_heads: Number of attention heads ``H``.
        num_layers: Number of Transformer blocks.
        head_dim: Per-head projection dimension ``P``.  Defaults to
            ``embed_dim // num_heads``.
        vocab_size: Vocabulary size (used only for parameter counting).
        ffn_kind: Feed-forward flavour (standard or gated).
        norm_kind: Normalisation flavour (LayerNorm or RMSNorm).
        activation: Pointwise non-linearity in the FFN.
        weight_dtype: Deployment data type of weights.
        act_dtype: Deployment data type of activations.
        tie_embeddings: Whether input and output embeddings share storage.
        kv_heads: Number of key/value heads.  Defaults to ``num_heads``
            (multi-head attention).  Fewer KV heads than query heads gives
            grouped-query attention (GQA); ``kv_heads=1`` is multi-query
            attention (MQA).  Must divide ``num_heads`` evenly.
        num_experts: Number of FFN experts.  ``1`` (default) is a dense
            FFN; values above one describe a mixture-of-experts block in
            which each token is routed to ``moe_top_k`` experts.
        moe_top_k: Experts activated per token (``1 <= top_k <= experts``).
        attention_window: Optional sliding-window size.  When set, each
            query attends to at most this many positions regardless of the
            sequence length (long-context decode with a bounded KV-cache).
        kv_cache_dtype: Optional storage dtype of the KV-cache.  Defaults
            to ``act_dtype``; a narrower type models quantised caches.
        cross_attention: Whether each block carries a second
            (encoder-memory) attention stage, as in a decoder of an
            encoder/decoder model.
    """

    name: str
    embed_dim: int
    ffn_dim: int
    num_heads: int
    num_layers: int
    head_dim: Optional[int] = None
    vocab_size: int = 32000
    ffn_kind: FfnKind = FfnKind.STANDARD
    norm_kind: NormKind = NormKind.LAYERNORM
    activation: ActivationKind = ActivationKind.GELU
    weight_dtype: DType = INT8
    act_dtype: DType = INT8
    tie_embeddings: bool = True
    kv_heads: Optional[int] = None
    num_experts: int = 1
    moe_top_k: int = 1
    attention_window: Optional[int] = None
    kv_cache_dtype: Optional[DType] = None
    cross_attention: bool = False

    def __post_init__(self) -> None:
        if self.embed_dim <= 0 or self.ffn_dim <= 0:
            raise ConfigurationError(
                f"model {self.name!r}: embed_dim and ffn_dim must be positive"
            )
        if self.num_heads <= 0 or self.num_layers <= 0:
            raise ConfigurationError(
                f"model {self.name!r}: num_heads and num_layers must be positive"
            )
        if self.head_dim is None:
            if self.embed_dim % self.num_heads != 0:
                raise ConfigurationError(
                    f"model {self.name!r}: embed_dim {self.embed_dim} is not "
                    f"divisible by num_heads {self.num_heads}; "
                    "specify head_dim explicitly"
                )
            object.__setattr__(self, "head_dim", self.embed_dim // self.num_heads)
        if self.head_dim <= 0:
            raise ConfigurationError(f"model {self.name!r}: head_dim must be positive")
        if self.vocab_size <= 0:
            raise ConfigurationError(
                f"model {self.name!r}: vocab_size must be positive"
            )
        if self.kv_heads is None:
            object.__setattr__(self, "kv_heads", self.num_heads)
        if self.kv_heads <= 0 or self.num_heads % self.kv_heads != 0:
            raise ConfigurationError(
                f"model {self.name!r}: kv_heads {self.kv_heads} must be "
                f"positive and divide num_heads {self.num_heads} evenly"
            )
        if self.num_experts <= 0:
            raise ConfigurationError(
                f"model {self.name!r}: num_experts must be positive"
            )
        if not 1 <= self.moe_top_k <= self.num_experts:
            raise ConfigurationError(
                f"model {self.name!r}: moe_top_k {self.moe_top_k} must lie in "
                f"[1, num_experts={self.num_experts}]"
            )
        if self.attention_window is not None and self.attention_window <= 0:
            raise ConfigurationError(
                f"model {self.name!r}: attention_window must be positive"
            )

    # Stored results share one configuration per value (see repro.interning).
    __reduce_ex__ = reduce_interned

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def projection_dim(self) -> int:
        """Total projection width ``P * H`` of the attention."""
        return self.head_dim * self.num_heads

    @property
    def kv_dim(self) -> int:
        """Total key/value projection width ``P * H_kv``."""
        return self.head_dim * self.kv_heads

    @property
    def heads_per_kv_group(self) -> int:
        """Query heads sharing each key/value head (1 for MHA)."""
        return self.num_heads // self.kv_heads

    @property
    def is_moe(self) -> bool:
        """Whether the FFN is a mixture of experts."""
        return self.num_experts > 1

    @property
    def kv_dtype(self) -> DType:
        """Storage dtype of the KV-cache (``kv_cache_dtype`` or ``act_dtype``)."""
        return self.kv_cache_dtype or self.act_dtype

    @property
    def num_attention_stages(self) -> int:
        """Attention sub-stages per block (2 with cross-attention)."""
        return 2 if self.cross_attention else 1

    @property
    def num_ffn_matrices(self) -> int:
        """Number of weight matrices in the FFN (2 standard, 3 gated)."""
        return 3 if self.ffn_kind is FfnKind.GATED else 2

    @property
    def router_params(self) -> int:
        """Parameters of the MoE router (``E x num_experts``; 0 when dense)."""
        return self.embed_dim * self.num_experts if self.is_moe else 0

    @property
    def attention_weight_params(self) -> int:
        """Parameters of the attention projections of one block.

        Query and output projections are ``E x (P*H)``; key and value
        projections are ``E x (P*H_kv)`` so GQA/MQA models carry fewer KV
        parameters.  Cross-attention doubles the whole set (the second
        stage attends to the encoder memory with its own projections).
        """
        query_out = 2 * self.embed_dim * self.projection_dim
        key_value = 2 * self.embed_dim * self.kv_dim
        return self.num_attention_stages * (query_out + key_value)

    @property
    def ffn_weight_params(self) -> int:
        """Parameters of the FFN matrices of one block (all experts)."""
        expert = self.num_ffn_matrices * self.embed_dim * self.ffn_dim
        return self.num_experts * expert + self.router_params

    @property
    def block_weight_params(self) -> int:
        """Parameters of one Transformer block (attention + FFN)."""
        return self.attention_weight_params + self.ffn_weight_params

    @property
    def block_weight_bytes(self) -> int:
        """Deployment bytes of one block's weights."""
        return self.block_weight_params * self.weight_dtype.size_bytes

    @property
    def embedding_params(self) -> int:
        """Parameters of the token embedding (and LM head when untied)."""
        tables = 1 if self.tie_embeddings else 2
        return tables * self.vocab_size * self.embed_dim

    @property
    def total_params(self) -> int:
        """Total parameter count of the model."""
        return self.num_layers * self.block_weight_params + self.embedding_params

    @property
    def model_weight_bytes(self) -> int:
        """Deployment bytes of all block weights (embeddings excluded)."""
        return self.num_layers * self.block_weight_bytes

    def moe_expert_rows(self, query_rows: int) -> int:
        """Rows processed per expert under uniform top-k routing.

        The cost model assumes a load-balanced router: ``query_rows``
        tokens each select ``moe_top_k`` experts, so every expert sees
        ``ceil(query_rows * top_k / num_experts)`` rows.
        """
        return -(-query_rows * self.moe_top_k // self.num_experts)

    def scaled_heads(self, num_heads: int, name: Optional[str] = None) -> "TransformerConfig":
        """Return a copy with a different head count, keeping ``P * H`` fixed.

        This mirrors the paper's scalability study, where the TinyLlama head
        count is increased from 8 to 64 "while keeping the other parameters
        constant": the total projection width stays ``embed_dim`` and the
        per-head dimension shrinks accordingly.  The query-to-KV head ratio
        is preserved, so an MHA model stays MHA and a GQA model keeps its
        grouping factor (the KV width ``P * H_kv`` is unchanged).
        """
        if num_heads <= 0:
            raise ConfigurationError("num_heads must be positive")
        if self.projection_dim % num_heads != 0:
            raise ConfigurationError(
                f"projection width {self.projection_dim} is not divisible by "
                f"{num_heads} heads"
            )
        ratio = self.heads_per_kv_group
        if num_heads % ratio != 0:
            raise ConfigurationError(
                f"{num_heads} heads cannot preserve the {ratio}:1 "
                "query-to-KV head ratio"
            )
        return replace(
            self,
            name=name or f"{self.name}-{num_heads}h",
            num_heads=num_heads,
            head_dim=self.projection_dim // num_heads,
            kv_heads=num_heads // ratio,
        )


@dataclass(frozen=True)
class BlockSlice:
    """The portion of one Transformer block assigned to a single chip.

    Attributes:
        num_heads: Attention heads owned by the chip.
        ffn_cols: Columns of the FFN intermediate dimension owned by the
            chip.  For mixture-of-experts models this is the per-expert
            intermediate width held locally (experts are never split).
        holds_norms: Whether this chip applies the post-reduction
            normalisations (only the reduction root does, per the paper).
        holds_residual: Whether this chip merges the residual (skip)
            connection into the reduction (only the reduction root does).
        kv_heads: Key/value heads held by the chip.  ``None`` (default)
            derives a conservative width from ``num_heads`` and the model's
            grouping factor; partitioners pass the exact coverage.
        num_experts: FFN experts owned by the chip.  ``None`` (default)
            means all of the model's experts (un-partitioned slice).
    """

    num_heads: int
    ffn_cols: int
    holds_norms: bool = True
    holds_residual: bool = True
    kv_heads: Optional[int] = None
    num_experts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_heads < 0 or self.ffn_cols < 0:
            raise ConfigurationError("block slice dimensions must be non-negative")
        if self.kv_heads is not None and self.kv_heads < 0:
            raise ConfigurationError("block slice kv_heads must be non-negative")
        if self.num_experts is not None and self.num_experts < 0:
            raise ConfigurationError("block slice num_experts must be non-negative")


@dataclass(frozen=True)
class BlockOperators:
    """Operator lists of one block slice, split by block stage."""

    attention: List[Operator] = field(default_factory=list)
    ffn: List[Operator] = field(default_factory=list)

    @property
    def all_operators(self) -> List[Operator]:
        """Attention then FFN operators, in execution order."""
        return list(self.attention) + list(self.ffn)


def full_block_slice(config: TransformerConfig) -> BlockSlice:
    """Return the slice describing an entire (un-partitioned) block."""
    return BlockSlice(
        num_heads=config.num_heads,
        ffn_cols=config.ffn_dim,
        kv_heads=config.kv_heads,
        num_experts=config.num_experts,
    )


def slice_kv_heads(config: TransformerConfig, slice_: BlockSlice) -> int:
    """Key/value heads a slice materialises.

    When the slice does not state its KV coverage explicitly, fall back to
    one KV head per query head, capped at the model total — exact for MHA
    and for full slices of any model; a conservative upper bound for
    partial GQA slices (partitioners always pass the exact coverage).
    """
    if slice_.kv_heads is not None:
        return slice_.kv_heads
    return min(slice_.num_heads, config.kv_heads)


def slice_num_experts(config: TransformerConfig, slice_: BlockSlice) -> int:
    """FFN experts a slice owns (all of them unless stated otherwise)."""
    if slice_.num_experts is not None:
        return slice_.num_experts
    return config.num_experts


def _attention_stage_ops(
    prefix: str,
    config: TransformerConfig,
    slice_: BlockSlice,
    *,
    query_rows: int,
    kv_rows: int,
    attended_positions: int,
) -> List[Operator]:
    """Operators of one attention sub-stage (self- or cross-attention).

    ``kv_rows`` is the number of *new* key/value rows projected in this
    pass.  For cross-attention it is ``0``: the encoder memory is projected
    once when the source sequence is encoded, so the decode pass reads the
    cached K/V without re-projecting (the cross K/V weights still count
    towards the slice's resident bytes).
    """
    heads = slice_.num_heads
    head_dim = config.head_dim
    embed = config.embed_dim
    proj = heads * head_dim
    kv_proj = slice_kv_heads(config, slice_) * head_dim
    weight_dtype = config.weight_dtype
    act_dtype = config.act_dtype

    ops: List[Operator] = [
        LinearOp(
            name=f"{prefix}.query_proj",
            rows=query_rows,
            in_features=embed,
            out_features=proj,
            weight_dtype=weight_dtype,
            act_dtype=act_dtype,
        )
    ]
    if kv_rows > 0:
        ops.append(
            LinearOp(
                name=f"{prefix}.key_proj",
                rows=kv_rows,
                in_features=embed,
                out_features=kv_proj,
                weight_dtype=weight_dtype,
                act_dtype=act_dtype,
            )
        )
        ops.append(
            LinearOp(
                name=f"{prefix}.value_proj",
                rows=kv_rows,
                in_features=embed,
                out_features=kv_proj,
                weight_dtype=weight_dtype,
                act_dtype=act_dtype,
            )
        )
        if attended_positions > kv_rows:
            # Autoregressive mode: append the new K/V rows to the cache.
            ops.append(
                ElementwiseOp(
                    name=f"{prefix}.kv_cache_append",
                    rows=2 * kv_rows,
                    cols=kv_proj,
                    kind=ElementwiseKind.COPY,
                    act_dtype=act_dtype,
                )
            )
    ops.append(
        AttentionMatmulOp(
            name=f"{prefix}.scores",
            rows=query_rows,
            inner=head_dim,
            cols=attended_positions,
            heads=heads,
            act_dtype=act_dtype,
        )
    )
    ops.append(
        SoftmaxOp(
            name=f"{prefix}.softmax",
            rows=query_rows,
            cols=attended_positions,
            heads=heads,
            act_dtype=act_dtype,
        )
    )
    ops.append(
        AttentionMatmulOp(
            name=f"{prefix}.context",
            rows=query_rows,
            inner=attended_positions,
            cols=head_dim,
            heads=heads,
            act_dtype=act_dtype,
        )
    )
    ops.append(
        LinearOp(
            name=f"{prefix}.output_proj",
            rows=query_rows,
            in_features=proj,
            out_features=embed,
            weight_dtype=weight_dtype,
            act_dtype=act_dtype,
        )
    )
    return ops


def _expert_ffn_ops(
    prefix: str,
    config: TransformerConfig,
    *,
    rows: int,
    ffn_cols: int,
) -> List[Operator]:
    """Operators of one (dense or per-expert) FFN with ``ffn_cols`` width."""
    embed = config.embed_dim
    weight_dtype = config.weight_dtype
    act_dtype = config.act_dtype
    ops: List[Operator] = [
        LinearOp(
            name=f"{prefix}.up_proj",
            rows=rows,
            in_features=embed,
            out_features=ffn_cols,
            weight_dtype=weight_dtype,
            act_dtype=act_dtype,
        )
    ]
    if config.ffn_kind is FfnKind.GATED:
        ops.append(
            LinearOp(
                name=f"{prefix}.gate_proj",
                rows=rows,
                in_features=embed,
                out_features=ffn_cols,
                weight_dtype=weight_dtype,
                act_dtype=act_dtype,
            )
        )
    ops.append(
        ActivationOp(
            name=f"{prefix}.activation",
            rows=rows,
            cols=ffn_cols,
            kind=config.activation,
            act_dtype=act_dtype,
        )
    )
    if config.ffn_kind is FfnKind.GATED:
        ops.append(
            ElementwiseOp(
                name=f"{prefix}.gate_mul",
                rows=rows,
                cols=ffn_cols,
                kind=ElementwiseKind.MUL,
                act_dtype=act_dtype,
            )
        )
    ops.append(
        LinearOp(
            name=f"{prefix}.down_proj",
            rows=rows,
            in_features=ffn_cols,
            out_features=embed,
            weight_dtype=weight_dtype,
            act_dtype=act_dtype,
        )
    )
    return ops


def build_block_operators(
    config: TransformerConfig,
    *,
    query_rows: int,
    kv_rows: int,
    attended_positions: int,
    slice_: Optional[BlockSlice] = None,
    cross_attended_positions: Optional[int] = None,
) -> BlockOperators:
    """Build the operator list one chip executes for one Transformer block.

    Args:
        config: The model configuration.
        query_rows: Number of query positions processed (``1`` in
            autoregressive mode, the sequence length otherwise).
        kv_rows: Number of *new* key/value positions projected in this pass
            (``1`` in autoregressive mode, the sequence length otherwise).
        attended_positions: Number of positions attended to by each query
            (the KV-cache length in autoregressive mode, the sequence length
            otherwise).
        slice_: The per-chip slice.  Defaults to the full block.
        cross_attended_positions: Encoder-memory length attended to by the
            cross-attention stage of encoder/decoder models.  Defaults to
            ``attended_positions``.  Ignored for decoder-only models.

    Returns:
        The operator lists for the attention stage and the FFN stage.  The
        two inter-chip synchronisations of the paper's scheme happen *after*
        each stage and are not represented here; they are communication
        steps, produced by :mod:`repro.core.collectives`.  Cross-attention
        rides inside the attention stage (its partial outputs join the same
        all-reduce), and mixture-of-experts FFNs ride inside the FFN stage:
        the stage broadcast already delivers the full activation vector to
        every chip, so each chip routes locally to the experts it owns and
        the stage all-reduce combines the expert outputs.
    """
    if query_rows <= 0 or kv_rows < 0 or attended_positions < 0:
        raise ConfigurationError(
            "query_rows must be positive and kv_rows/attended_positions "
            "non-negative"
        )
    slice_ = slice_ or full_block_slice(config)
    heads = slice_.num_heads
    embed = config.embed_dim
    act_dtype = config.act_dtype

    attention: List[Operator] = []
    if heads > 0:
        attention.extend(
            _attention_stage_ops(
                "attn",
                config,
                slice_,
                query_rows=query_rows,
                kv_rows=kv_rows,
                attended_positions=attended_positions,
            )
        )
        if config.cross_attention:
            cross = (
                cross_attended_positions
                if cross_attended_positions is not None
                else attended_positions
            )
            attention.extend(
                _attention_stage_ops(
                    "xattn",
                    config,
                    slice_,
                    query_rows=query_rows,
                    kv_rows=0,
                    attended_positions=cross,
                )
            )
    if slice_.holds_residual:
        attention.append(
            ElementwiseOp(
                name="attn.residual_add",
                rows=query_rows,
                cols=embed,
                kind=ElementwiseKind.ADD,
                act_dtype=act_dtype,
            )
        )
    if slice_.holds_norms:
        attention.append(
            NormOp(
                name="attn.norm",
                rows=query_rows,
                cols=embed,
                kind=config.norm_kind,
                act_dtype=act_dtype,
            )
        )

    ffn: List[Operator] = []
    ffn_cols = slice_.ffn_cols
    if config.is_moe:
        experts = slice_num_experts(config, slice_)
        if experts > 0 and ffn_cols > 0:
            # Each expert-holding chip scores the full (broadcast) activation
            # against its replicated router, then runs the experts it owns on
            # their load-balanced share of the tokens.
            ffn.append(
                LinearOp(
                    name="ffn.router",
                    rows=query_rows,
                    in_features=embed,
                    out_features=config.num_experts,
                    weight_dtype=config.weight_dtype,
                    act_dtype=act_dtype,
                )
            )
            expert_rows = config.moe_expert_rows(query_rows)
            for index in range(experts):
                ffn.extend(
                    _expert_ffn_ops(
                        f"ffn.expert{index}",
                        config,
                        rows=expert_rows,
                        ffn_cols=ffn_cols,
                    )
                )
    elif ffn_cols > 0:
        ffn.extend(_expert_ffn_ops("ffn", config, rows=query_rows, ffn_cols=ffn_cols))
    if slice_.holds_residual:
        ffn.append(
            ElementwiseOp(
                name="ffn.residual_add",
                rows=query_rows,
                cols=embed,
                kind=ElementwiseKind.ADD,
                act_dtype=act_dtype,
            )
        )
    if slice_.holds_norms:
        ffn.append(
            NormOp(
                name="ffn.norm",
                rows=query_rows,
                cols=embed,
                kind=config.norm_kind,
                act_dtype=act_dtype,
            )
        )
    return BlockOperators(attention=attention, ffn=ffn)


def slice_weight_bytes(config: TransformerConfig, slice_: BlockSlice) -> int:
    """Deployment bytes of one block's weight *slice* held by a chip.

    This is the quantity that determines on-chip residency: query/output
    projections are sliced along the query-head dimension, key/value
    projections along the KV-head dimension, and the FFN either along the
    intermediate dimension (dense: ``k·E·f`` for ``f`` owned columns) or
    along the expert dimension (MoE: whole experts, plus a replicated
    ``E x num_experts`` router on every expert-holding chip).  With
    cross-attention the second stage holds its own full projection set.
    """
    head_dim = config.head_dim
    embed = config.embed_dim
    proj = slice_.num_heads * head_dim
    kv_proj = slice_kv_heads(config, slice_) * head_dim
    attention = config.num_attention_stages * (
        2 * embed * proj + 2 * embed * kv_proj
    )
    if config.is_moe:
        experts = slice_num_experts(config, slice_)
        ffn = experts * config.num_ffn_matrices * embed * slice_.ffn_cols
        if experts > 0:
            ffn += config.router_params
    else:
        ffn = config.num_ffn_matrices * embed * slice_.ffn_cols
    return (attention + ffn) * config.weight_dtype.size_bytes
