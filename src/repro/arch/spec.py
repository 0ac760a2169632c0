"""Declarative architecture descriptions.

An :class:`ArchSpec` describes a Transformer model *as data*: a stack of
:class:`BlockGroupSpec` groups (each ``repeat``-ed some number of times)
over shared embedding parameters.  Groups choose an attention kind
(``mha`` / ``gqa`` / ``mqa``), an FFN kind (``dense`` / ``gated`` /
``moe`` / ``moe-gated``), normalisation and activation flavours, and may
override the model-level weight/activation dtypes.  Model-level knobs
cover the vocabulary, embedding tying, a sliding ``attention_window`` for
long-context decode, and a (possibly quantised) ``kv_cache_dtype``.

Both spec classes are frozen dataclasses on the :mod:`repro.spec`
machinery, so they share its contract: sparse canonical ``to_dict()`` /
``to_json()`` (only non-default fields, sorted keys, schema tag,
byte-deterministic), ``from_dict`` decoded from the field annotations by
:meth:`~repro.spec.base.SpecBase.from_dict`, and ``validate(path=...)``
with precise document paths.  :func:`repro.arch.factory.build_model`
lowers a validated spec into a plain
:class:`~repro.graph.transformer.TransformerConfig`,
which is why generated models flow through Session, DSE, serving, and
fleet with zero changes to those layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ArchitectureError, ReproError, SpecError
from ..spec.base import SpecBase, register, spec_error

__all__ = [
    "ATTENTION_KINDS",
    "FFN_KINDS",
    "ROLES",
    "ArchSpec",
    "BlockGroupSpec",
]

#: Attention flavours a block group may declare.
ATTENTION_KINDS = ("mha", "gqa", "mqa")

#: FFN flavours a block group may declare.  ``moe`` routes each token to
#: ``moe_top_k`` of ``num_experts`` standard (two-matrix) experts;
#: ``moe-gated`` uses gated (SwiGLU-style, three-matrix) experts.
FFN_KINDS = ("dense", "gated", "moe", "moe-gated")

#: Stack roles a block group may belong to.
ROLES = ("decoder", "encoder")


def _choice(path: str, field: str, value: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise spec_error(
            f"{path}.{field}",
            f"unknown {field} {value!r}; choices: " + ", ".join(choices),
        )


@register
@dataclass(frozen=True)
class BlockGroupSpec(SpecBase):
    """A run of identical Transformer blocks within an architecture.

    Attributes:
        role: Stack the group belongs to (``decoder`` or ``encoder``).
        repeat: Number of consecutive blocks this group contributes.
        num_heads: Query attention heads per block.
        ffn_dim: FFN intermediate width (per expert, for MoE groups).
        head_dim: Per-head projection width; defaults to
            ``embed_dim // num_heads`` of the enclosing architecture.
        attention: ``mha`` (KV head per query head), ``gqa`` (grouped KV
            heads, set ``kv_heads``), or ``mqa`` (a single shared KV head).
        kv_heads: KV head count for ``gqa`` groups.  Must divide
            ``num_heads``; ``kv_heads == num_heads`` is exactly MHA.
            Forbidden for ``mha``/``mqa`` (implied there).
        ffn: FFN flavour (see :data:`FFN_KINDS`).
        num_experts: Expert count for MoE groups (>= 2; forbidden otherwise).
        moe_top_k: Experts each token activates (MoE groups only).
        norm: Normalisation flavour (``layernorm`` or ``rmsnorm``).
        activation: FFN non-linearity (``gelu``, ``silu``, or ``relu``).
        weight_dtype: Optional per-group override of the model weight dtype.
        act_dtype: Optional per-group override of the activation dtype.
    """

    kind = "block_group"

    role: str = "decoder"
    repeat: int = 1
    num_heads: int = 8
    ffn_dim: int = 2048
    head_dim: Optional[int] = None
    attention: str = "mha"
    kv_heads: Optional[int] = None
    ffn: str = "dense"
    num_experts: Optional[int] = None
    moe_top_k: int = 2
    norm: str = "layernorm"
    activation: str = "gelu"
    weight_dtype: Optional[str] = None
    act_dtype: Optional[str] = None

    @property
    def is_moe(self) -> bool:
        """Whether the group's FFN is a mixture of experts."""
        return self.ffn in ("moe", "moe-gated")

    def resolved_kv_heads(self) -> int:
        """The KV head count implied by the attention kind."""
        if self.attention == "mqa":
            return 1
        if self.attention == "gqa":
            return self.kv_heads if self.kv_heads is not None else self.num_heads
        return self.num_heads

    def validate(self, path: str = "$") -> None:
        """Check the group's structural constraints with precise paths."""
        _choice(path, "role", self.role, ROLES)
        _choice(path, "attention", self.attention, ATTENTION_KINDS)
        _choice(path, "ffn", self.ffn, FFN_KINDS)
        if self.repeat <= 0:
            raise spec_error(f"{path}.repeat", "expected a positive integer")
        if self.num_heads <= 0:
            raise spec_error(f"{path}.num_heads", "expected a positive integer")
        if self.ffn_dim <= 0:
            raise spec_error(f"{path}.ffn_dim", "expected a positive integer")
        if self.head_dim is not None and self.head_dim <= 0:
            raise spec_error(f"{path}.head_dim", "expected a positive integer")
        if self.attention == "gqa":
            if self.kv_heads is None:
                raise spec_error(
                    f"{path}.kv_heads", "required for 'gqa' attention"
                )
            if self.kv_heads <= 0 or self.num_heads % self.kv_heads != 0:
                raise spec_error(
                    f"{path}.kv_heads",
                    f"{self.kv_heads} must be positive and divide "
                    f"num_heads {self.num_heads} evenly",
                )
        elif self.kv_heads is not None:
            raise spec_error(
                f"{path}.kv_heads",
                f"implied by {self.attention!r} attention; only 'gqa' "
                "groups set it explicitly",
            )
        if self.is_moe:
            if self.num_experts is None:
                raise spec_error(
                    f"{path}.num_experts", f"required for {self.ffn!r} FFNs"
                )
            if self.num_experts < 2:
                raise spec_error(
                    f"{path}.num_experts", "expected at least 2 experts"
                )
            if not 1 <= self.moe_top_k <= self.num_experts:
                raise spec_error(
                    f"{path}.moe_top_k",
                    f"{self.moe_top_k} must lie in [1, "
                    f"num_experts={self.num_experts}]",
                )
        elif self.num_experts is not None:
            raise spec_error(
                f"{path}.num_experts",
                f"only meaningful for MoE FFNs, not {self.ffn!r}",
            )
        from .factory import resolve_activation, resolve_dtype, resolve_norm

        try:
            resolve_norm(self.norm, path=f"{path}.norm")
            resolve_activation(self.activation, path=f"{path}.activation")
            for field_name in ("weight_dtype", "act_dtype"):
                value = getattr(self, field_name)
                if value is not None:
                    resolve_dtype(value, path=f"{path}.{field_name}")
        except ArchitectureError as error:
            # The resolvers' messages already lead with the precise path.
            raise SpecError(str(error)) from None


@register
@dataclass(frozen=True)
class ArchSpec(SpecBase):
    """A complete declarative model architecture.

    Attributes:
        name: Model name used in reports and registries.
        embed_dim: Embedding dimension shared by every block group.
        blocks: The block groups, in stack order.
        vocab_size: Vocabulary size (parameter counting only).
        tie_embeddings: Whether input/output embeddings share storage.
        weight_dtype: Default weight dtype name (per-group overridable).
        act_dtype: Default activation dtype name (per-group overridable).
        kv_cache_dtype: Optional quantised KV-cache dtype name.
        attention_window: Optional sliding-window span for long-context
            decode (caps attended positions and the KV-cache size).
    """

    kind = "arch"

    name: str = "custom"
    embed_dim: int = 512
    blocks: Tuple[BlockGroupSpec, ...] = (BlockGroupSpec(),)
    vocab_size: int = 32000
    tie_embeddings: bool = True
    weight_dtype: str = "int8"
    act_dtype: str = "int8"
    kv_cache_dtype: Optional[str] = None
    attention_window: Optional[int] = None

    def validate(self, path: str = "$") -> None:
        """Check the architecture, including that it lowers to a model."""
        if not self.name or not isinstance(self.name, str):
            raise spec_error(f"{path}.name", "expected a non-empty string")
        if self.embed_dim <= 0:
            raise spec_error(f"{path}.embed_dim", "expected a positive integer")
        if self.vocab_size <= 0:
            raise spec_error(f"{path}.vocab_size", "expected a positive integer")
        if self.attention_window is not None and self.attention_window <= 0:
            raise spec_error(
                f"{path}.attention_window", "expected a positive integer"
            )
        if not self.blocks:
            raise spec_error(f"{path}.blocks", "expected at least one block group")
        for index, group in enumerate(self.blocks):
            if not isinstance(group, BlockGroupSpec):
                raise spec_error(
                    f"{path}.blocks[{index}]", "expected a block_group spec"
                )
            group.validate(f"{path}.blocks[{index}]")
        from .factory import resolve_dtype

        try:
            resolve_dtype(self.weight_dtype, path=f"{path}.weight_dtype")
            resolve_dtype(self.act_dtype, path=f"{path}.act_dtype")
            if self.kv_cache_dtype is not None:
                resolve_dtype(
                    self.kv_cache_dtype, path=f"{path}.kv_cache_dtype"
                )
        except ArchitectureError as error:
            raise SpecError(str(error)) from None
        try:
            self.build()
        except ArchitectureError as error:
            raise spec_error(path, str(error)) from None
        except ReproError as error:
            raise spec_error(path, str(error)) from None

    def build(self):
        """Lower this architecture into a :class:`TransformerConfig`."""
        from .factory import build_model

        return build_model(self)
