"""Model registry.

The registry maps short names to configuration factories so that examples,
benchmarks, and command-line sweeps can select models by name.  Factories
(rather than pre-built configurations) are registered so that every lookup
returns a fresh, independent configuration object.

Every shipped model document (see :mod:`repro.arch.zoo`) is registered
under its file stem with ``_`` turned into ``-``, and ``tinyllama`` is an
alias of ``tinyllama-42m``.  The paper's workloads keep their factory
functions, each a lookup (or a variant of one) over the registry.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List

from ..arch.zoo import SHIPPED_DIR, build_shipped
from ..errors import ConfigurationError
from ..graph.transformer import TransformerConfig

_FACTORIES: Dict[str, Callable[[], TransformerConfig]] = {}


def register_model(name: str, factory: Callable[[], TransformerConfig]) -> None:
    """Register a model factory under ``name``.

    Raises:
        ConfigurationError: If the name is already registered.
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("model name must be non-empty")
    if key in _FACTORIES:
        raise ConfigurationError(f"model {name!r} is already registered")
    _FACTORIES[key] = factory


def get_model(name: str) -> TransformerConfig:
    """Build the configuration registered under ``name``.

    Raises:
        ConfigurationError: If no model with that name is registered.
    """
    key = name.strip().lower()
    if key not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise ConfigurationError(f"unknown model {name!r}; known models: {known}")
    return _FACTORIES[key]()


def list_models() -> List[str]:
    """Return the sorted names of all registered models."""
    return sorted(_FACTORIES)


def tinyllama_42m() -> TransformerConfig:
    """Return the TinyLlama-42M configuration used in the paper."""
    return get_model("tinyllama-42m")


def tinyllama_gated(ffn_dim: int = 1376) -> TransformerConfig:
    """Return a gated-FFN (SwiGLU) TinyLlama variant for ablations.

    The llama2.c "stories42M" checkpoint actually uses a gated FFN with an
    intermediate size of 1376, which lands at the same ~42 M parameters as
    the paper's two-matrix description.  The partitioning scheme applies
    unchanged (the third matrix is sliced along ``F`` like the others), so
    this variant is used to show that the results do not depend on the FFN
    flavour.
    """
    gated = get_model("tinyllama-42m-gated")
    return replace(gated, name=f"tinyllama-42m-gated-{ffn_dim}", ffn_dim=ffn_dim)


def tinyllama_scaled(num_heads: int = 64) -> TransformerConfig:
    """Return the scaled-up TinyLlama used for the 2-64 chip study.

    Only the head count changes; the total projection width, FFN size, and
    layer count stay identical to :func:`tinyllama_42m`, matching the paper's
    "we leave all other model parameters unchanged".
    """
    return tinyllama_42m().scaled_heads(num_heads, name=f"tinyllama-42m-{num_heads}h")


def mobilebert() -> TransformerConfig:
    """Return the MobileBERT encoder configuration used in the paper."""
    return get_model("mobilebert")


for _path in sorted(SHIPPED_DIR.glob("*.json")):
    register_model(_path.stem.replace("_", "-"), partial(build_shipped, _path.stem))
register_model("tinyllama", _FACTORIES["tinyllama-42m"])  # convenience alias
