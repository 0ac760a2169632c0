"""Strategy protocol and registry.

A *partitioning strategy* is anything that can evaluate a workload on a
multi-chip platform and return the unified :class:`~repro.api.EvalResult`.
Strategies register themselves by name with :func:`register_strategy`, and
everything downstream — :class:`~repro.api.Session`, the CLI, the sweep
and comparison helpers — looks them up through :func:`get_strategy`, so a
new partitioning idea becomes available to every front end by writing one
class::

    from repro.api import EvalOptions, EvalResult, register_strategy

    @register_strategy
    class MyStrategy:
        name = "my_scheme"
        label = "My scheme (what the comparison table shows)"

        def evaluate(self, workload, platform, options):
            ...
            return EvalResult(...)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

from ..core.placement import PrefetchAccounting
from ..energy.model import EnergyModel
from ..errors import UnknownStrategyError
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform
from ..kernels.library import KernelLibrary
from ..registry import Registry, instantiate
from .result import EvalResult

#: Factory building an energy model for a platform (``EnergyModel`` itself
#: satisfies this signature).
EnergyModelFactory = Callable[[MultiChipPlatform], EnergyModel]


@dataclass(frozen=True)
class EvalOptions:
    """Cross-cutting evaluation knobs passed to every strategy.

    A strategy honours the options that make sense for it: the simulator-
    backed ``paper`` strategy uses all of them, while the analytical
    baselines (which bake in their own cost models) ignore
    ``record_events`` and may ignore a custom kernel library.

    Attributes:
        kernel_library: Optional custom kernel cost models.
        energy: Optional energy-model factory (defaults to the paper's
            analytical :class:`~repro.energy.model.EnergyModel`).
        prefetch_accounting: How double-buffered weight prefetches are
            charged to runtime (the paper's accounting is ``HIDDEN``).
        record_events: Keep per-step trace events for debugging.
    """

    kernel_library: Optional[KernelLibrary] = None
    energy: Optional[EnergyModelFactory] = None
    prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN
    record_events: bool = False

    def __getstate__(self) -> dict:
        # The content-hash memo (repro.api.session) is per-process state
        # and would bloat every process-pool payload.
        state = dict(self.__dict__)
        state.pop("_repro_canonical_memo", None)
        return state


@runtime_checkable
class PartitionStrategy(Protocol):
    """What the registry requires of a partitioning strategy.

    Attributes:
        name: Registry key (lowercase snake_case by convention).
        label: Human-readable approach name shown in comparison tables.
    """

    name: str
    label: str

    def evaluate(
        self,
        workload: Workload,
        platform: MultiChipPlatform,
        options: EvalOptions,
    ) -> EvalResult:
        """Evaluate ``workload`` on ``platform`` and return the unified result."""
        ...


_STRATEGIES: Registry[PartitionStrategy] = Registry(
    "partitioning strategy", UnknownStrategyError, "strategy name"
)


def register_strategy(strategy):
    """Class decorator (or direct call) registering a partitioning strategy.

    Accepts either a strategy *class* (instantiated with no arguments) or a
    ready-made instance.  The strategy is registered under its ``name``
    attribute plus any names in an optional ``aliases`` tuple.

    Returns the argument unchanged so it can be used as a decorator.

    Raises:
        ConfigurationError: If the name is missing or taken, the aliases
            are not a tuple of names, or the object does not implement
            :class:`PartitionStrategy`.
    """
    _STRATEGIES.add(instantiate(strategy, "strategy", PartitionStrategy))
    return strategy


#: Remove a strategy (and its aliases) from the registry.
unregister_strategy = _STRATEGIES.remove

#: Look up a registered strategy by name or alias; raises
#: :class:`~repro.errors.UnknownStrategyError`, listing the available
#: names, if no strategy is registered under it.
get_strategy = _STRATEGIES.get

#: Sorted canonical names of all registered strategies.
list_strategies = _STRATEGIES.names
