"""Unified strategy-plugin evaluation API.

One front door for the paper's partitioning scheme and every baseline:

* :class:`PartitionStrategy` — the protocol a partitioning idea implements,
* :func:`register_strategy` — the registry that makes it available
  everywhere by name (``Session.run``, ``Session.compare``, the CLI),
* :class:`EvalResult` — the single result schema every strategy returns,
* :class:`Session` — runs, sweeps, and compares strategies with
  content-hash memoisation and optional process-pool fan-out,
* :class:`EvalCache` — the persistent cross-process layer behind the
  memoisation (``Session(cache_dir=...)``, shared by CLI invocations,
  sweep workers, serving cost models, and DSE searchers).

See ``docs/API.md`` for the full protocol description and the table of
removed legacy names and their replacements.
"""

from .cache import (
    CacheStats,
    EvalCache,
    default_cache_dir,
    open_default_cache,
    persistent_cache_disabled,
)
from .registry import (
    EnergyModelFactory,
    EvalOptions,
    PartitionStrategy,
    get_strategy,
    list_strategies,
    register_strategy,
    unregister_strategy,
)
from .result import EvalResult
from .strategies import BASELINE_STRATEGIES, PAPER_STRATEGY
from .study import StageOutcome, Study, StudyResult
from .session import (
    CacheInfo,
    Comparison,
    EvalSweep,
    Session,
    content_hash,
)

__all__ = [
    "BASELINE_STRATEGIES",
    "CacheInfo",
    "CacheStats",
    "Comparison",
    "EvalCache",
    "EnergyModelFactory",
    "EvalOptions",
    "EvalResult",
    "EvalSweep",
    "PAPER_STRATEGY",
    "PartitionStrategy",
    "Session",
    "StageOutcome",
    "Study",
    "StudyResult",
    "content_hash",
    "default_cache_dir",
    "get_strategy",
    "open_default_cache",
    "persistent_cache_disabled",
    "list_strategies",
    "register_strategy",
    "unregister_strategy",
]
