"""Execution of runnable specs on a :class:`~repro.api.Session`.

:func:`execute` is the one way to run a single spec: the CLI's evaluating
commands and the :class:`~repro.api.study.Study` pipeline runner both
call it.  It resolves a spec's registry names into live objects, honours
stage references (a serve stage running on a tuned platform, a tune stage
pinning its chip axis to a sweep's fastest count), and calls the
session's imperative method with them, so a spec and the equivalent
imperative call return the same object under the same memoisation keys.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Mapping, Optional, Tuple

from ..core.placement import PrefetchAccounting
from ..errors import AnalysisError, SpecError
from ..hw.platform import MultiChipPlatform
from .specs import (
    CompareSpec,
    EvalSpec,
    FleetSpec,
    RunnableSpec,
    ServingSpec,
    SpaceSpec,
    StudySpec,
    SweepSpec,
    TuneSpec,
)

if TYPE_CHECKING:  # annotations only: repro.api imports this module
    from ..api.session import Session

__all__ = ["execute"]


@contextmanager
def _session_platform_factory(session: Session, factory):
    """Temporarily make ``factory`` the session's chip-count resolver.

    Lets a sweep spec's platform preset ride the native ``Session.sweep``
    path — including its process-pool evaluation — whatever the session was
    constructed with.  Safe for the caches: results are keyed by the
    content hash of the concrete platform, never by the factory.
    """
    if session.platform is None and session.platform_factory is factory:
        yield
        return
    previous = (session.platform, session.platform_factory)
    session.platform = None
    session.platform_factory = factory
    try:
        yield
    finally:
        session.platform, session.platform_factory = previous


@contextmanager
def _session_prefetch(session: Session, prefetch: str):
    """Temporarily apply a spec's prefetch-accounting policy to a session.

    Results are content-hashed with the options in effect, so flipping
    the policy back afterwards cannot corrupt the session's caches.
    """
    policy = PrefetchAccounting(prefetch)
    if session.prefetch_accounting is policy:
        yield
        return
    previous = session.prefetch_accounting
    session.prefetch_accounting = policy
    try:
        yield
    finally:
        session.prefetch_accounting = previous


def _stage_result(
    stages: Optional[Mapping[str, Any]],
    reference: str,
    wanted_kind: str,
    field: str,
) -> Any:
    """Look up a referenced earlier stage's outcome."""
    outcome = (stages or {}).get(reference)
    if outcome is None:
        raise SpecError(
            f"{field}={reference!r} references an unknown (or not yet "
            "executed) stage; references must name an earlier stage of "
            "the same study"
        )
    if outcome.kind != wanted_kind:
        raise SpecError(
            f"{field}={reference!r} references a {outcome.kind} stage; "
            f"{field} needs a {wanted_kind} stage"
        )
    return outcome.result


def _resolve_platform(
    spec,
    stages: Optional[Mapping[str, Any]],
) -> Tuple[MultiChipPlatform, str]:
    """The (platform, strategy) a spec evaluates on.

    With ``platform_from`` set, both come from the referenced tune
    stage's best feasible candidate (its materialised design); otherwise
    the spec's own preset and strategy name are used.
    """
    strategy = getattr(spec, "strategy", "paper")
    if getattr(spec, "platform_from", None) is None:
        return spec.platform.build(), strategy
    tune_result = _stage_result(
        stages, spec.platform_from, "tune", "platform_from"
    )
    best = tune_result.best()  # best feasible by the run's first objective
    from ..dse.space import materialise

    design = materialise(dict(best.point))
    return design.platform, design.strategy


def execute(
    session: Session,
    spec: RunnableSpec,
    *,
    stages: Optional[Mapping[str, Any]] = None,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
):
    """Run one spec through ``session`` and return its native result.

    The one way to run a single spec.  It returns what the matching
    ``Session`` method returns for the resolved objects: an
    :class:`~repro.api.EvalResult` for an ``EvalSpec``; an ``EvalSweep``,
    ``Comparison``, ``ServingReport``, ``FleetReport`` or ``TuneResult``
    for the other kinds.

    ``stages`` maps earlier stage names to their outcomes (objects with
    ``kind`` and ``result`` attributes) when executing inside a study;
    standalone execution passes none, and any reference then fails with
    a precise error.

    ``checkpoint`` and ``resume`` are the checkpoint file paths of a
    tune spec (``repro tune --checkpoint/--resume`` and Study
    auto-resume); where checkpoints live is not part of a spec.  Passing
    either with a non-tune spec is an error.
    """
    if (checkpoint, resume) != (None, None) and not isinstance(spec, TuneSpec):
        raise AnalysisError(
            "checkpoint/resume apply to tune specs only, not "
            f"{type(spec).__name__}"
        )
    if isinstance(spec, EvalSpec):
        return _execute_eval(session, spec, stages)
    if isinstance(spec, SweepSpec):
        return _execute_sweep(session, spec)
    if isinstance(spec, CompareSpec):
        return _execute_compare(session, spec, stages)
    if isinstance(spec, ServingSpec):
        return _execute_serve(session, spec, stages)
    if isinstance(spec, FleetSpec):
        return _execute_fleet(session, spec, stages)
    if isinstance(spec, TuneSpec):
        return _execute_tune(
            session, spec, stages, checkpoint=checkpoint, resume=resume
        )
    if isinstance(spec, StudySpec):
        raise AnalysisError(
            "a study spec is a pipeline, not a single evaluation; run it "
            "with repro.api.Study (or `repro study run`)"
        )
    raise AnalysisError(
        f"cannot execute a {type(spec).__name__}; runnable specs are "
        "EvalSpec, SweepSpec, CompareSpec, ServingSpec, FleetSpec, and "
        "TuneSpec"
    )


def _execute_eval(session, spec: EvalSpec, stages):
    workload = spec.workload.build()
    platform, strategy = _resolve_platform(spec, stages)
    with _session_prefetch(session, spec.prefetch):
        return session.run(workload, strategy, platform=platform)


def _execute_sweep(session, spec: SweepSpec):
    from ..api.registry import get_strategy
    from ..hw.presets import get_platform_preset

    workload = spec.workload.build()
    canonical = get_strategy(spec.strategy).name
    preset = get_platform_preset(spec.platform.preset)
    with _session_prefetch(session, spec.prefetch), _session_platform_factory(
        session, preset.factory
    ):
        # The native sweep path honours `parallel` (process-pool evaluation)
        # for any preset, since the preset factory is the resolver now.
        return session.sweep(
            workload, spec.chips, strategy=canonical, parallel=spec.parallel
        )


def _execute_compare(session, spec: CompareSpec, stages):
    workload = spec.workload.build()
    platform, _ = _resolve_platform(spec, stages)
    with _session_prefetch(session, spec.prefetch):
        return session.compare(
            workload, platform=platform, strategies=spec.strategies
        )


def _execute_serve(session, spec: ServingSpec, stages):
    config = spec.model.build()
    trace = spec.trace.build()
    platform, strategy = _resolve_platform(spec, stages)
    return session.serve(
        config,
        trace,
        policy=spec.policy,
        strategy=strategy,
        platform=platform,
        seed=spec.seed,
        max_context=spec.max_context,
        slo_targets=spec.slo_targets,
    )


def _execute_fleet(session, spec: FleetSpec, stages):
    config = spec.model.build()
    trace = spec.trace.build()
    if spec.platform_from is not None:
        platform, strategy = _resolve_platform(spec, stages)
    else:
        platform, strategy = None, spec.strategy
    return session.serve_fleet(
        config,
        trace,
        platforms=spec.platforms,
        router=spec.router,
        policy=spec.policy,
        strategy=strategy,
        classes=spec.classes,
        autoscaler=spec.autoscaler,
        platform=platform,
        seed=spec.seed,
        max_context=spec.max_context,
        slo_targets=spec.slo_targets,
        record_threshold=spec.record_threshold,
        faults=spec.faults,
        retry=spec.retry,
    )


def _pin_chips(space_spec: Optional[SpaceSpec], chips: int):
    """The tune space with its ``chips`` axis pinned to one count."""
    from ..dse.space import ChoiceAxis, SearchSpace, default_space

    space = space_spec.build() if space_spec is not None else default_space()
    pinned = ChoiceAxis("chips", (chips,))
    axes = tuple(
        pinned if axis.name == "chips" else axis for axis in space.axes
    )
    if all(axis.name != "chips" for axis in space.axes):
        axes = axes + (pinned,)
    return SearchSpace(axes=axes)


def _execute_tune(
    session,
    spec: TuneSpec,
    stages,
    *,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
):
    workload = spec.workload.build()
    if spec.chips_from is not None:
        sweep = _stage_result(stages, spec.chips_from, "sweep", "chips_from")
        fastest = min(sweep.results, key=lambda result: result.block_cycles)
        space = _pin_chips(spec.space, fastest.num_chips)
    else:
        space = spec.space.build() if spec.space is not None else None
    with _session_prefetch(session, spec.prefetch):
        return session.tune(
            workload,
            space,
            searcher=spec.searcher,
            budget=spec.budget,
            seed=spec.seed,
            objectives=spec.objectives,
            constraints=spec.constraints,
            serving=spec.serving,
            parallel=spec.parallel,
            checkpoint=checkpoint,
            checkpoint_every=spec.checkpoint_every,
            resume=resume,
        )
