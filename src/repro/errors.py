"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A model, hardware, or partitioning configuration is invalid."""


class PartitioningError(ReproError):
    """A requested partitioning cannot be constructed.

    Raised, for example, when more chips are requested than attention heads
    are available to distribute, or when a partitioner is asked to place a
    workload it does not support.
    """


class SchedulingError(ReproError):
    """A per-chip schedule could not be built from a partition."""


class SimulationError(ReproError):
    """The block simulator reached an inconsistent state.

    Typical causes are deadlocks (a chip waits on a message that is never
    sent) or schedules that reference unknown chips or channels.
    """


class MemoryCapacityError(ReproError):
    """A tensor or working set does not fit in the targeted memory level."""


class AnalysisError(ReproError):
    """An analysis or experiment was asked to combine incompatible results."""


class SearchInterrupted(ReproError):
    """A tuning run stopped before exhausting its evaluation budget.

    Raised by the DSE orchestrator when an interrupt is requested (the
    ``REPRO_TUNE_INTERRUPT_AFTER`` test hook).  When the run carried a
    checkpoint path, the state written at the last checkpoint boundary
    survives on disk and ``repro tune --resume`` (or a Study-stage
    re-run) continues the search without re-paying evaluated points.
    """


class ArchitectureError(ConfigurationError):
    """A declarative architecture description cannot be lowered to a model.

    Raised by :mod:`repro.arch` when an :class:`~repro.arch.ArchSpec`
    violates a structural constraint (a KV-head count that does not
    divide the query heads, a top-k exceeding the expert count,
    heterogeneous block groups in one stack, ...).  Design-space
    searchers treat it as an *infeasible point* rather than a failed
    search, so architecture axes can be explored safely.
    """


class SpecError(ConfigurationError):
    """A declarative spec document (:mod:`repro.spec`) is invalid.

    The message always starts with the JSON path of the offending field
    (``stages[2].spec.workload.seq_len: ...``) so that a user editing a
    study file can find the problem without reading a traceback.
    """


class UnknownStrategyError(ConfigurationError):
    """A partitioning strategy name is not present in the registry.

    The message lists the registered names so that callers (and CLI users)
    can see what is available without importing the registry module.
    """


class UnknownPolicyError(ConfigurationError):
    """A scheduling policy name is not present in the serving registry.

    The message lists the registered names so that callers (and CLI users)
    can see what is available without importing the registry module.
    """


class UnknownRouterError(ConfigurationError):
    """A fleet routing-policy name is not present in the router registry.

    The message lists the registered names so that callers (and CLI users)
    can see what is available without importing the registry module.
    """


class UnknownSearcherError(ConfigurationError):
    """A search-algorithm name is not present in the DSE registry.

    The message lists the registered names so that callers (and CLI users)
    can see what is available without importing the registry module.
    """


class UnknownObjectiveError(ConfigurationError):
    """An objective name is not present in the DSE objective registry.

    The message lists the registered names so that callers (and CLI users)
    can see what is available without importing the registry module.
    """


class UnknownPlatformPresetError(ConfigurationError):
    """A hardware-preset name is not present in the platform registry.

    The message lists the registered names so that callers (and CLI users)
    can see what is available without importing the registry module.
    """


def detached(error: ReproError) -> ReproError:
    """``error`` (and the errors it chains) without their tracebacks.

    A batch call keeps each failed item's error as a value; a traceback
    would keep every frame it passed through alive, and with them the
    whole batch, until the cyclic garbage collector finds them.
    """
    chained = error
    while chained is not None:
        chained.__traceback__ = None
        chained = chained.__cause__ or chained.__context__
    return error


def value_or_raise(outcome):
    """``outcome``, or raise it when it is a :class:`ReproError`.

    The batch calls (:meth:`repro.api.Session.run_many`,
    :func:`repro.analysis.evaluate.evaluate_blocks`) return each failed
    item's error in its place; their one-item cases raise it with this.
    """
    if isinstance(outcome, ReproError):
        try:
            raise outcome
        finally:
            outcome = None  # the traceback keeps this frame: no cycle
    return outcome
