"""Model zoo: the workloads evaluated in the paper, by registry name."""

from .registry import (
    get_model,
    list_models,
    mobilebert,
    register_model,
    tinyllama_42m,
    tinyllama_gated,
    tinyllama_scaled,
)

__all__ = [
    "get_model",
    "list_models",
    "mobilebert",
    "register_model",
    "tinyllama_42m",
    "tinyllama_gated",
    "tinyllama_scaled",
]
