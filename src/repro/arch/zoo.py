"""The shipped model zoo: each model one ``ArchSpec`` document.

Every registered model — the paper's TinyLlama-42M, its 64-head and
gated variants, MobileBERT, and the six generated architectures — is a
canonical :class:`~repro.arch.spec.ArchSpec` JSON document in the
package-data directory ``shipped/`` next to this module, and is defined
nowhere else.  :mod:`repro.models.registry` registers each file under its
stem, with ``_`` turned into ``-`` (``gqa_moe_tiny.json`` is
``gqa-moe-tiny``).  A document is decoded once, on its first lookup;
:func:`build_shipped` lowers it with :func:`build_model` on every call,
so each lookup returns a fresh configuration.

The generated families stress every architecture dimension:

* ``gqa-1b`` — a TinyLlama-1.1B-shaped GQA decoder (32 query heads over
  4 KV heads); its ~1.1 GiB of int8 block weights force the streamed
  regime on every realistic chip count.
* ``mqa-270m`` — a mid-size multi-query decoder (single shared KV head).
* ``moe-8x`` — the paper's TinyLlama-42M widened into 8 experts with
  top-2 routing; expert placement becomes the FFN partition dimension.
* ``longctx-4k`` — TinyLlama-42M decoding at a 4096-token context
  through a 1024-position sliding window with an int8 KV-cache.
* ``gqa-moe-tiny`` — a small GQA + gated-MoE decoder combining both new
  partition dimensions; CI-sized on purpose.
* ``encdec-small`` — a MobileBERT-sized encoder/decoder pair whose
  decoder blocks carry a cross-attention stage.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from ..graph.transformer import TransformerConfig
from ..spec.specs import load_spec
from .factory import build_model
from .spec import ArchSpec

__all__ = ["SHIPPED_DIR", "build_shipped", "shipped_spec"]

#: The package-data directory holding one JSON document per model.
SHIPPED_DIR = Path(__file__).resolve().parent / "shipped"


@lru_cache(maxsize=None)
def shipped_spec(stem: str) -> ArchSpec:
    """The decoded document ``shipped/<stem>.json`` (decoded once)."""
    return load_spec(SHIPPED_DIR / f"{stem}.json")


def build_shipped(stem: str) -> TransformerConfig:
    """A fresh configuration lowered from one shipped document."""
    return build_model(shipped_spec(stem))
