"""Declarative architecture factory and model zoo.

``repro.arch`` turns model architectures into *data*: an
:class:`ArchSpec` (stacked :class:`BlockGroupSpec` groups choosing
MHA/GQA/MQA attention, dense/gated/MoE FFNs, norm/activation/dtype
flavours, long-context KV-cache variants) lowers through
:func:`build_model` into a plain
:class:`~repro.graph.transformer.TransformerConfig`, so every model flows
through ``Session.run/sweep/tune/serve/serve_fleet`` and the DSE
unchanged.  Every registered model, the paper's included, is one shipped
document (:mod:`repro.arch.zoo`).  See ``docs/MODELS.md``.

Importing this package registers the ``arch`` and ``block_group`` spec
kinds with :func:`repro.spec.spec_from_dict` (the spec layer also
imports it lazily on first sight of those kinds, so documents decode
without callers importing anything).
"""

from .factory import build_model, model_macs
from .spec import ATTENTION_KINDS, FFN_KINDS, ROLES, ArchSpec, BlockGroupSpec

__all__ = [
    "ATTENTION_KINDS",
    "FFN_KINDS",
    "ROLES",
    "ArchSpec",
    "BlockGroupSpec",
    "build_model",
    "model_macs",
]
