"""The unified evaluation session.

:class:`Session` is the library's front door: one object that evaluates
any registered partitioning strategy on any workload/platform combination,
memoises repeated evaluations by content hash (optionally persisting them
on disk for other processes — see :mod:`repro.api.cache`), and fans
sweeps out over a process pool when asked to::

    from repro.api import Session

    session = Session()                      # Siracusa + MIPI preset
    ours = session.run(workload, strategy="paper", chips=8)
    sweep = session.sweep(workload, chips=(1, 2, 4, 8))
    table = session.compare(workload, chips=8)

Every call returns the one result schema, :class:`~repro.api.EvalResult`
(collected into an :class:`EvalSweep` or a :class:`Comparison`), which the
figure harnesses, tables and exporters consume directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..analysis.evaluate import ProgramMemo
from ..core.placement import PrefetchAccounting
from ..errors import AnalysisError, ReproError, UnknownStrategyError
from ..graph.transformer import TransformerConfig
from ..graph.workload import Workload
from ..hw.chip import ChipModel
from ..hw.interconnect import ChipToChipLink
from ..hw.platform import MultiChipPlatform
from ..hw.presets import siracusa_platform
from ..kernels.library import KernelLibrary
from .cache import EvalCache, open_default_cache
from .registry import EnergyModelFactory, EvalOptions, get_strategy
from .result import EvalResult
from .strategies import BASELINE_STRATEGIES, PAPER_STRATEGY

__all__ = [
    "CacheInfo",
    "Comparison",
    "EvalSweep",
    "Session",
]


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
#: Frozen input types whose canonical form is memoised on the instance.
#: Workloads, platforms, and model configurations are hashed on every
#: ``Session.run`` — serving simulations and design-space searches hash
#: the same objects thousands of times, so recomputing the walk each
#: time leaves the profile entirely.  Chips and links are memoised too:
#: a design-space search builds a fresh platform per point around a few
#: shared chip and link objects (see :func:`repro.dse.space.materialise`).
_MEMOISED_CANONICAL_TYPES = (
    Workload,
    MultiChipPlatform,
    TransformerConfig,
    EvalOptions,
    ChipModel,
    ChipToChipLink,
)

_CANONICAL_MEMO_ATTR = "_repro_canonical_memo"


def _canonical(obj) -> str:
    """Deterministic textual form of an evaluation input for hashing.

    Walks dataclasses field by field (skipping derived ``init=False``
    fields), so two platforms or workloads with equal configuration hash
    equally regardless of object identity.  The canonical form of frozen
    workloads/platforms/configs is memoised on the instance, since those
    are immutable and hashed repeatedly.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return repr(obj)
    if isinstance(obj, Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if is_dataclass(obj) and not isinstance(obj, type):
        memoise = isinstance(obj, _MEMOISED_CANONICAL_TYPES)
        if memoise:
            cached = obj.__dict__.get(_CANONICAL_MEMO_ATTR)
            if cached is not None:
                return cached
        parts = ",".join(
            f"{field.name}={_canonical(getattr(obj, field.name))}"
            for field in fields(obj)
            if field.init
        )
        text = f"{type(obj).__qualname__}({parts})"
        if memoise:
            try:
                object.__setattr__(obj, _CANONICAL_MEMO_ATTR, text)
            except (AttributeError, TypeError):
                pass  # __slots__ or exotic subclass: skip the memo
        return text
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_canonical(item) for item in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((repr(key), _canonical(value)) for key, value in obj.items())
        return "{" + ",".join(f"{key}:{value}" for key, value in items) + "}"
    if callable(obj):
        module = getattr(obj, "__module__", "?")
        qualname = getattr(obj, "__qualname__", repr(obj))
        return f"<callable {module}.{qualname}>"
    return repr(obj)


def content_hash(*parts) -> str:
    """SHA-256 content hash of a tuple of evaluation inputs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(_canonical(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class CacheInfo(NamedTuple):
    """Memoisation statistics of one :class:`Session`.

    Attributes:
        hits: In-memory content-hash cache hits.
        misses: Evaluations that actually ran a strategy's engine
            (including points evaluated by ``sweep --parallel`` workers).
        size: Entries in the in-memory cache.
        disk_hits: Evaluations answered by the persistent on-disk cache
            (:mod:`repro.api.cache`) instead of running the engine.
        dropped_writes: Persistent-cache writes dropped after the
            bounded retry (store locked or unusable) — nonzero means
            results were recomputed later instead of read back.
    """

    hits: int
    misses: int
    size: int
    disk_hits: int = 0
    dropped_writes: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-serialisable form (the ``cache`` block of CLI documents).

        ``dropped_writes`` only appears once a persistent-store write
        has actually been dropped (a rare contention signal), keeping
        the cache block of healthy runs identical to earlier releases.
        """
        record = dict(self._asdict())
        if not record["dropped_writes"]:
            del record["dropped_writes"]
        return record


# ----------------------------------------------------------------------
# Aggregate results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalSweep:
    """Evaluations of one workload/strategy across several chip counts.

    Attributes:
        workload: The swept workload.
        strategy: Registry name of the evaluated strategy.
        results: One :class:`EvalResult` per chip count, in sweep order.
    """

    workload: Workload
    strategy: str
    results: Tuple[EvalResult, ...]

    def __post_init__(self) -> None:
        if not self.results:
            raise AnalysisError("a sweep needs at least one chip count")

    @cached_property
    def _by_chip_count(self) -> Dict[int, EvalResult]:
        return {result.num_chips: result for result in self.results}

    @property
    def chip_counts(self) -> List[int]:
        """Chip counts of the sweep, in order."""
        return [result.num_chips for result in self.results]

    @property
    def baseline(self) -> EvalResult:
        """The first (reference) result, normally the single-chip system."""
        return self.results[0]

    def result_for(self, num_chips: int) -> EvalResult:
        """The result of one particular chip count."""
        try:
            return self._by_chip_count[num_chips]
        except KeyError:
            raise AnalysisError(
                f"sweep has no entry for {num_chips} chips"
            ) from None

    def speedups(self) -> Dict[int, float]:
        """Chip count -> speedup relative to the sweep's first entry."""
        return {
            result.num_chips: result.speedup_over(self.baseline)
            for result in self.results
        }

    def cycles(self) -> Dict[int, float]:
        """Chip count -> per-block runtime in cycles."""
        return {result.num_chips: result.block_cycles for result in self.results}

    def energies_joules(self) -> Dict[int, float]:
        """Chip count -> per-block energy in joules."""
        return {
            result.num_chips: result.block_energy_joules
            for result in self.results
        }


@dataclass(frozen=True)
class Comparison:
    """Strategy ablation of one workload on one platform.

    Attributes:
        workload: The compared workload.
        num_chips: Chip count of the evaluated platform.
        results: One :class:`EvalResult` per strategy, in request order.
    """

    workload: Workload
    num_chips: int
    results: Tuple[EvalResult, ...]

    def __post_init__(self) -> None:
        if not self.results:
            raise AnalysisError("a comparison needs at least one strategy")

    @property
    def strategies(self) -> List[str]:
        """Registry names of the compared strategies, in order."""
        return [result.strategy for result in self.results]

    def result_for(self, strategy: str) -> EvalResult:
        """The result of one particular strategy, named or aliased."""
        try:
            name = get_strategy(strategy).name  # results carry canonical names
        except UnknownStrategyError:
            name = strategy
        for result in self.results:
            if result.strategy == name:
                return result
        raise AnalysisError(f"comparison has no entry for strategy {strategy!r}")

    def best(self) -> EvalResult:
        """The fastest strategy (minimum block cycles)."""
        return min(self.results, key=lambda result: result.block_cycles)

    def speedups_over(self, reference: str) -> Dict[str, float]:
        """Strategy name -> speedup over the named reference strategy."""
        base = self.result_for(reference)
        return {
            result.strategy: result.speedup_over(base) for result in self.results
        }

    def render(self) -> str:
        """Plain-text Table-I-style comparison of the measured columns."""
        from ..baselines.compare import render_comparison

        return render_comparison(list(self.results))


# ----------------------------------------------------------------------
# Process-pool fan-out
# ----------------------------------------------------------------------
def _strategy_is_persistable(impl) -> bool:
    """Whether a strategy's results may enter the cross-process store.

    The store's version salt covers this package's code only, so results
    of strategies registered from outside ``repro`` stay in memory — an
    edited user strategy must never be answered with its old results.
    """
    module = type(impl).__module__ or ""
    return module == "repro" or module.startswith("repro.")


#: Per-worker-process stores, keyed by cache directory, so a worker
#: evaluating several sweep points opens one sqlite connection, not one
#: per point.
_WORKER_STORES: Dict[str, EvalCache] = {}


def _worker_store(cache_dir: str) -> EvalCache:
    store = _WORKER_STORES.get(cache_dir)
    if store is None:
        store = _WORKER_STORES[cache_dir] = EvalCache(cache_dir)
    return store


def _evaluate_point(payload) -> Tuple[bool, EvalResult]:
    """Module-level worker so sweeps can fan out over a process pool.

    Workers share the parent's persistent cache: each one re-checks the
    on-disk store before simulating (another worker or process may have
    produced the point meanwhile) and writes its result back, so a
    repeated parallel sweep performs zero engine runs.  Returns
    ``(ran_engine, result)`` so the parent's cache statistics stay
    truthful under concurrent sweeps.
    """
    strategy_name, workload, platform, options, key, cache_dir = payload
    store = _worker_store(cache_dir) if cache_dir is not None else None
    if store is not None:
        cached = store.get(key)
        if cached is not None:
            return False, cached
    result = get_strategy(strategy_name).evaluate(workload, platform, options)
    if store is not None:
        store.put(key, result)
    return True, result


def _evaluate_chunk(payloads):
    """Evaluate a batch of points in one worker task.

    Chunking amortises the per-task submit/pickle round-trip over many
    points, which is what lets :meth:`Session.prefill` approach ideal
    speedup when individual evaluations are only milliseconds (the DSE
    orchestrator's regime).  Failures are per-point, not per-chunk: each
    entry of the returned list is ``(key, status, value)`` where status
    is ``"ok"`` (value is ``(ran_engine, result)``), ``"infeasible"``
    (a :class:`ReproError`; the serial path re-raises it cheaply and
    assigns it meaning), or ``"error"`` (value is the repr of an
    unexpected exception).  The chunk's store writes are flushed before
    it returns: a pool worker exits without running exit handlers.
    """
    out = []
    for payload in payloads:
        key = payload[4]
        try:
            out.append((key, "ok", _evaluate_point(payload)))
        except ReproError:
            out.append((key, "infeasible", None))
        except Exception as error:  # pragma: no cover - defensive
            out.append((key, "error", repr(error)))
    for store in _WORKER_STORES.values():
        store.flush()
    return out


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class Session:
    """Evaluates registered partitioning strategies with memoisation.

    Its methods take live objects (workloads, configs, traces, spaces);
    a declarative :mod:`repro.spec` document runs on a session through
    :func:`repro.spec.execute`, which resolves the spec and calls the
    matching method here.

    Args:
        platform: Optional default platform; ``chips=`` arguments derive
            platforms from it via
            :meth:`~repro.hw.platform.MultiChipPlatform.with_num_chips`.
        platform_factory: Builds a platform from a chip count when no
            default platform is set (defaults to the paper's Siracusa +
            MIPI preset).
        kernels: Optional custom kernel cost models.
        energy: Optional energy-model factory applied to each evaluated
            platform (defaults to the paper's analytical model).
        prefetch_accounting: Prefetch runtime-accounting policy.
        memoize: Keep a content-hash cache of evaluations (default on).
            ``memoize=False`` disables the persistent layer too.
        cache_dir: Directory of a persistent cross-process evaluation
            cache (:mod:`repro.api.cache`); results are stored on disk
            behind the in-memory memoisation and shared with every other
            process using the same directory.  Incompatible with
            ``memoize=False`` and with a custom ``energy`` factory
            (arbitrary callables cannot be content-hashed soundly across
            processes) — both raise instead of silently not persisting.
            Results of strategies registered outside the ``repro``
            package are never persisted (their code is not covered by
            the store's version salt).
        persistent: ``True`` opens the *default* persistent store
            (``REPRO_CACHE_DIR`` or ``~/.cache/repro``, unless
            ``REPRO_NO_CACHE`` is set); ``False`` forces it off.  The
            default ``None`` enables persistence only when ``cache_dir``
            is given, keeping plain library sessions in-memory-only.
    """

    def __init__(
        self,
        platform: Optional[MultiChipPlatform] = None,
        *,
        platform_factory=siracusa_platform,
        kernels: Optional[KernelLibrary] = None,
        energy: Optional[EnergyModelFactory] = None,
        prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN,
        memoize: bool = True,
        cache_dir: Optional[Union[str, Path]] = None,
        persistent: Optional[bool] = None,
    ) -> None:
        self.platform = platform
        self.platform_factory = platform_factory
        self.kernels = kernels
        self.energy = energy
        self.prefetch_accounting = prefetch_accounting
        self.memoize = memoize
        self._store: Optional[EvalCache] = None
        # Custom energy factories are arbitrary callables, which content-
        # hash by qualified name only — good enough within one process
        # (the factory is fixed per session) but unsound across processes
        # (two different lambdas share a qualname), so such sessions stay
        # off the shared on-disk store.  Custom kernel libraries are
        # frozen dataclasses and hash by value, so they are safe.
        if not memoize or energy is not None:
            if cache_dir is not None or persistent:
                requested = (
                    f"cache_dir={str(cache_dir)!r}"
                    if cache_dir is not None
                    else "persistent=True"
                )
                reason = (
                    "memoize=False disables all caching"
                    if not memoize
                    else "a custom energy factory cannot be content-hashed "
                    "soundly across processes"
                )
                raise AnalysisError(
                    f"{requested} cannot be honoured: {reason}"
                )
        elif persistent is not False:
            if cache_dir is not None:
                self._store = EvalCache(cache_dir)
            elif persistent:
                self._store = open_default_cache()
        self._cache: Dict[str, EvalResult] = {}
        # Block programs by structure, reused across design points that
        # differ only in pricing (clock, link); in memory, never persisted.
        self._programs = ProgramMemo()
        self._default_options: Optional[EvalOptions] = None
        self._default_options_config: Optional[tuple] = None
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def options(self, *, record_events: bool = False) -> EvalOptions:
        """The :class:`EvalOptions` this session passes to strategies.

        The common (``record_events=False``) instance is shared while
        the session's configuration is unchanged, so its memoised
        canonical form keeps repeated cache-key hashing cheap; mutating
        ``kernels``/``energy``/``prefetch_accounting`` on a live session
        invalidates it.
        """
        config = (self.kernels, self.energy, self.prefetch_accounting)
        if (
            not record_events
            and self._default_options is not None
            and self._default_options_config == config
        ):
            return self._default_options
        built = EvalOptions(
            kernel_library=self.kernels,
            energy=self.energy,
            prefetch_accounting=self.prefetch_accounting,
            record_events=record_events,
        )
        if not record_events:
            self._default_options = built
            self._default_options_config = config
        return built

    def resolve_platform(
        self,
        chips: Optional[int] = None,
        platform: Optional[MultiChipPlatform] = None,
    ) -> MultiChipPlatform:
        """Resolve the platform for one evaluation.

        Precedence: an explicit ``platform`` argument, then ``chips``
        applied to the session's default platform (or platform factory),
        then the session's default platform.
        """
        if platform is not None:
            return platform
        if chips is not None:
            if chips <= 0:
                raise AnalysisError(f"invalid chip count {chips}")
            if self.platform is not None:
                return self.platform.with_num_chips(chips)
            return self.platform_factory(chips)
        if self.platform is not None:
            return self.platform
        raise AnalysisError(
            "no platform to evaluate on: pass chips=/platform= or construct "
            "the Session with a default platform"
        )

    @property
    def persistent_cache(self) -> Optional[EvalCache]:
        """The on-disk evaluation store, when this session has one."""
        return self._store

    def cache_info(self) -> CacheInfo:
        """Memoisation statistics (hits, misses, entries, disk hits)."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self._cache),
            disk_hits=self._disk_hits,
            dropped_writes=(
                self._store.dropped_writes if self._store is not None else 0
            ),
        )

    def cache_clear(self) -> None:
        """Drop every in-memory memoised evaluation and reset the statistics.

        The persistent store (if any) is left untouched; clear it with
        ``session.persistent_cache.clear()`` or ``repro cache clear``.
        """
        self._cache.clear()
        self._programs.clear()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    def _cache_key(
        self,
        strategy: str,
        workload: Workload,
        platform: MultiChipPlatform,
        options: EvalOptions,
    ) -> str:
        canonical_name = get_strategy(strategy).name
        return content_hash(canonical_name, workload, platform, options)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        strategy: str = PAPER_STRATEGY,
        *,
        chips: Optional[int] = None,
        platform: Optional[MultiChipPlatform] = None,
        record_events: bool = False,
    ) -> EvalResult:
        """Evaluate one workload under one registered strategy.

        Results are memoised by content hash of (strategy, workload,
        platform, options): repeated calls with equal inputs return the
        cached :class:`EvalResult` object without re-simulating.  Below
        that, simulator-backed strategies reuse the scheduled block
        program of any earlier call with the same structure (see
        :class:`~repro.analysis.evaluate.ProgramMemo`), so points that
        differ only in clock or link are simulated but not rescheduled.
        """
        resolved = self.resolve_platform(chips, platform)
        options = self.options(record_events=record_events)
        impl = get_strategy(strategy)
        if not self.memoize:
            return impl.evaluate(workload, resolved, options)
        key = self._cache_key(strategy, workload, resolved, options)
        if key in self._cache:
            self._hits += 1
            return self._cache[key]
        store = self._store if _strategy_is_persistable(impl) else None
        if store is not None:
            cached = store.get(key)
            if cached is not None:
                self._disk_hits += 1
                self._cache[key] = cached
                return cached
        self._misses += 1
        with self._programs.active():
            result = impl.evaluate(workload, resolved, options)
        self._cache[key] = result
        if store is not None:
            store.put(key, result)
        return result

    def sweep(
        self,
        workload: Workload,
        chips: Sequence[int],
        *,
        strategy: str = PAPER_STRATEGY,
        parallel: Optional[int] = None,
    ) -> EvalSweep:
        """Evaluate ``workload`` across several chip counts.

        Args:
            workload: The workload to sweep.
            chips: Chip counts, in presentation order.
            strategy: Any registered strategy name.
            parallel: Optional process-pool width; uncached points are
                evaluated in worker processes when ``parallel > 1``.
                Sessions with custom kernel or energy models stay serial
                (the models may not survive pickling).
        """
        if not chips:
            raise AnalysisError("chip_counts must not be empty")
        # Validate the chip counts before resolving the strategy so a bad
        # count is reported even when paired with an unknown strategy name.
        for count in chips:
            if count <= 0:
                raise AnalysisError(f"invalid chip count {count}")
        impl = get_strategy(strategy)
        if (
            parallel is not None
            and parallel > 1
            and self.memoize
            and self.kernels is None
            and self.energy is None
        ):
            self._prefill_parallel(workload, chips, impl.name, parallel)
        results = tuple(
            self.run(workload, impl.name, chips=count) for count in chips
        )
        return EvalSweep(workload=workload, strategy=impl.name, results=results)

    def compare(
        self,
        workload: Workload,
        *,
        chips: Optional[int] = None,
        platform: Optional[MultiChipPlatform] = None,
        strategies: Sequence[str] = BASELINE_STRATEGIES,
    ) -> Comparison:
        """Evaluate several strategies on the same workload and platform.

        The default strategy list reproduces the seed's Table I ablation
        order: single chip, weight-replicated sequence parallelism,
        pipeline parallelism, then the paper's tensor-parallel scheme.
        """
        if not strategies:
            raise AnalysisError("compare needs at least one strategy")
        resolved = self.resolve_platform(chips, platform)
        results = tuple(
            self.run(workload, name, platform=resolved) for name in strategies
        )
        return Comparison(
            workload=workload,
            num_chips=resolved.num_chips,
            results=results,
        )

    def serve(
        self,
        config: TransformerConfig,
        trace,
        *,
        policy: str = "fifo",
        strategy: str = PAPER_STRATEGY,
        chips: Optional[int] = None,
        platform: Optional[MultiChipPlatform] = None,
        seed: int = 0,
        max_context: int = 1024,
        slo_targets: Optional[Sequence[float]] = None,
    ):
        """Simulate request-level serving of ``config`` under a traffic trace.

        Materialises the trace deterministically from ``seed``, serves it
        with the named scheduling policy on a one-replica fleet
        (:func:`~repro.fleet.simulator.serve_source`) whose phase costs
        are this session's memoised block evaluations, and returns the
        aggregated :class:`~repro.serving.metrics.ServingReport`.

        Args:
            config: The served :class:`~repro.graph.transformer.TransformerConfig`.
            trace: Any :class:`~repro.serving.traces.TrafficTrace`.
            policy: Registered scheduling policy name (or instance).
            strategy: Registered partitioning strategy producing the costs.
            chips: Chip count (resolved like :meth:`run`).
            platform: Explicit platform (overrides ``chips``).
            seed: Trace seed; equal seeds give byte-identical reports.
            max_context: Serving window.  The serve fails fast (before
                simulating) if any request of the materialised trace needs
                a longer context; a closed-loop follow-up that needs one is
                rejected when it arrives.
            slo_targets: TTFT targets of the SLO-attainment curve
                (defaults to the serving package's standard grid).
        """
        from ..fleet.simulator import serve_source
        from ..serving.costs import RequestCostModel
        from ..serving.metrics import (
            DEFAULT_SLO_TTFT_TARGETS_S,
            ServingMetrics,
            ServingReport,
        )

        costs = RequestCostModel(
            self,
            config,
            chips=chips,
            platform=platform,
            strategy=strategy,
            max_context=max_context,
        )
        source = trace.build(seed)
        if not source.initial:
            raise AnalysisError(
                "the trace produced no requests (arrival rate x duration "
                "too small?); nothing to serve"
            )
        for request in source.initial:
            # The deepest context a request reaches is its prompt plus all
            # but the last output token (the prefill emits the first).
            required = request.prompt_tokens + request.output_tokens - 1
            if required > max_context:
                raise AnalysisError(
                    f"request {request.request_id} needs context {required} "
                    f"> max_context {max_context}; shorten the trace's "
                    "lengths or raise max_context"
                )
        result = serve_source(costs, source, policy)
        metrics = ServingMetrics.from_result(
            result,
            slo_targets=(
                slo_targets if slo_targets is not None
                else DEFAULT_SLO_TTFT_TARGETS_S
            ),
        )
        return ServingReport(
            model=config.name,
            num_chips=costs.platform.num_chips,
            strategy=get_strategy(strategy).name,
            policy=result.policy,
            seed=seed,
            result=result,
            metrics=metrics,
        )

    def serve_fleet(
        self,
        config: TransformerConfig,
        trace,
        *,
        platforms: Optional[Sequence] = None,
        router: str = "round_robin",
        policy: str = "fifo",
        strategy: str = PAPER_STRATEGY,
        classes: Sequence = (),
        autoscaler=None,
        platform: Optional[MultiChipPlatform] = None,
        seed: int = 0,
        max_context: int = 1024,
        slo_targets: Optional[Sequence[float]] = None,
        record_threshold: Optional[int] = None,
        timeline_window_s: float = 60.0,
        faults=None,
        retry=None,
    ):
        """Simulate a fleet of heterogeneous platforms serving one trace.

        Every fleet platform is a replica of a registered hardware preset
        backed by this session's memoised block evaluations (replicas of
        the same preset and chip count share one
        :class:`~repro.serving.costs.RequestCostModel`); arrivals pass
        multi-tenant admission control, are dispatched by the named
        routing policy, and each replica schedules its own queue with the
        named per-replica scheduling policy.  Metrics aggregate in
        bounded memory, so day-long million-request traces are fine.

        Args:
            config: The served :class:`~repro.graph.transformer.TransformerConfig`.
            trace: Any open-loop :class:`~repro.serving.traces.TrafficTrace`
                (traces with a ``stream`` method are consumed lazily).
            platforms: Fleet entries — :class:`~repro.fleet.FleetPlatform`
                objects or ``preset[:chips][xN][@role]`` strings; defaults
                to a single replica of the default preset.
            router: Registered router name (see ``repro routers``) or a
                fresh :class:`~repro.fleet.RoutingPolicy` instance.
            policy: Per-replica scheduling policy name (or instance).
            strategy: Registered partitioning strategy producing costs.
            classes: Multi-tenant :class:`~repro.fleet.SLOClass` list; a
                request's ``priority`` field selects its class.
            autoscaler: Optional :class:`~repro.fleet.AutoscalerConfig`
                enabling reactive replica scaling.
            platform: Explicit platform every replica (and autoscaled
                replica) runs instead of its preset — how a study's
                ``platform_from`` reference lands here.  Replica counts
                and roles of the ``platforms`` entries still apply;
                replicas are reported with the preset name ``"tuned"``.
            seed: Trace seed; equal seeds give byte-identical reports.
            max_context: Serving window of every replica's cost model.
            slo_targets: TTFT targets of the fleet SLO-attainment curve.
            record_threshold: Completions beyond which latency
                percentiles switch to the streaming histogram (bounded
                memory); defaults to
                :data:`repro.fleet.DEFAULT_RECORD_THRESHOLD`.
            timeline_window_s: Aggregation window of the fleet timeline.
            faults: Optional :class:`~repro.fleet.FaultModel` injecting
                replica crashes, stragglers, and brownouts; ``None``
                runs the exact fault-free engine (byte-identical
                output).
            retry: Optional :class:`~repro.fleet.RetryPolicy` governing
                failover of requests stranded by a crash (bounded
                retries, deterministic backoff, timeouts, hedging).
        """
        from ..fleet import (
            DEFAULT_RECORD_THRESHOLD,
            AdmissionController,
            FleetPlatform,
            FleetReport,
            FleetSimulator,
            ReplicaTemplate,
            SLOClass,
            iter_requests,
        )
        from ..hw.presets import get_platform_preset
        from ..serving.costs import RequestCostModel
        from ..serving.metrics import DEFAULT_SLO_TTFT_TARGETS_S

        entries = []
        for entry in platforms if platforms is not None else (FleetPlatform(),):
            if isinstance(entry, str):
                entry = FleetPlatform.parse(entry)
            entries.append(entry)
        if not entries:
            raise AnalysisError("a fleet needs at least one platform entry")

        cost_models: Dict[Tuple[str, int], RequestCostModel] = {}

        def costs_for(preset_name: str, chips: Optional[int]):
            if platform is not None:
                # Every replica runs the explicit (e.g. tuned) platform.
                key = ("tuned", platform.num_chips)
                model = cost_models.get(key)
                if model is None:
                    model = RequestCostModel(
                        self,
                        config,
                        platform=platform,
                        strategy=strategy,
                        max_context=max_context,
                    )
                    cost_models[key] = model
                return "tuned", platform.num_chips, model
            preset = get_platform_preset(preset_name)
            count = chips if chips is not None else preset.default_chips
            key = (preset.name, count)
            model = cost_models.get(key)
            if model is None:
                model = RequestCostModel(
                    self,
                    config,
                    platform=preset.build(count),
                    strategy=strategy,
                    max_context=max_context,
                )
                cost_models[key] = model
            return preset.name, count, model

        templates = []
        for entry in entries:
            name, count, model = costs_for(entry.preset, entry.chips)
            template = ReplicaTemplate(
                preset=name, chips=count, role=entry.role, costs=model
            )
            templates.extend([template] * entry.replicas)

        scale_template = None
        if autoscaler is not None:
            name, count, model = costs_for(autoscaler.preset, autoscaler.chips)
            scale_template = ReplicaTemplate(
                preset=name, chips=count, role="any", costs=model
            )

        simulator = FleetSimulator(
            templates,
            router=router,
            policy=policy,
            # No tenants: every request takes the default class's priority 0.
            admission=AdmissionController(classes or (SLOClass(),)),
            autoscaler=autoscaler,
            scale_template=scale_template,
            slo_targets=(
                slo_targets
                if slo_targets is not None
                else DEFAULT_SLO_TTFT_TARGETS_S
            ),
            record_threshold=(
                record_threshold
                if record_threshold is not None
                else DEFAULT_RECORD_THRESHOLD
            ),
            timeline_window_s=timeline_window_s,
            faults=faults,
            retry=retry,
        )
        result = simulator.run(iter_requests(trace, seed))
        return FleetReport(
            model=config.name,
            strategy=get_strategy(strategy).name,
            router=result.router,
            policy=result.policy,
            seed=seed,
            result=result,
        )

    def tune(
        self,
        workload: Workload,
        space=None,
        *,
        searcher: str = "random",
        budget: int = 24,
        seed: int = 0,
        objectives: Sequence = ("latency", "energy"),
        constraints: Sequence = (),
        serving=None,
        parallel: Optional[int] = None,
        checkpoint=None,
        checkpoint_every: Optional[int] = None,
        resume=None,
    ):
        """Search a platform/partition design space for ``workload``.

        Drives a registered search algorithm over a
        :class:`~repro.dse.space.SearchSpace` (the standard platform
        space around the paper's deployment point by default), measuring
        every unique design through this session — so repeated points hit
        the memoisation cache — and returns the
        :class:`~repro.dse.engine.TuneResult` with the constraint-feasible
        Pareto front of the named objectives.

        Args:
            workload: The workload to tune the platform for.
            space: Optional :class:`~repro.dse.space.SearchSpace`
                (defaults to :func:`repro.dse.default_space`).
            searcher: Registered search-algorithm name
                (see ``repro searchers``).
            budget: Maximum evaluation calls the searcher may issue
                (repeat visits included; they cost nothing).
            seed: Search seed; equal seeds give identical results.
            objectives: Registered objective names (or instances), in
                presentation order (see ``repro.dse.list_objectives``).
            constraints: Bounds like ``"latency<=0.01"`` (or
                :class:`~repro.dse.pareto.Constraint` instances);
                constraint-only objectives are measured automatically.
            serving: Optional :class:`~repro.dse.engine.ServingScenario`
                for serving-level objectives (``slo``,
                ``energy_per_request``).
            parallel: Optional worker-process count for batch prefill
                (:meth:`prefill`); results are byte-identical for any
                worker count — only wall-clock and cache statistics
                change.
            checkpoint: Optional path where the run's resumable
                :class:`~repro.dse.orchestrator.SearchState` is written
                (atomically) every ``checkpoint_every`` unique
                evaluations and on completion.
            checkpoint_every: Checkpoint cadence in unique evaluations
                (default :data:`repro.dse.DEFAULT_CHECKPOINT_EVERY`
                when a checkpoint path is set).
            resume: Optional path of a previously written checkpoint to
                resume from; the finished run is byte-identical to an
                uninterrupted one, and checkpointed points are never
                re-paid.
        """
        from ..dse.engine import run_tune

        return run_tune(
            self,
            workload,
            space,
            searcher=searcher,
            budget=budget,
            seed=seed,
            objectives=objectives,
            constraints=constraints,
            serving=serving,
            parallel=parallel,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )

    def prefill(
        self,
        requests: Sequence[Tuple[Workload, str, MultiChipPlatform]],
        *,
        parallel: Optional[int] = None,
    ) -> None:
        """Warm the caches for a batch of evaluations using worker processes.

        Each request is a ``(workload, strategy, platform)`` triple; the
        uncached ones are evaluated in a process pool of up to
        ``parallel`` workers and merged into this session's caches, so
        the subsequent serial :meth:`run` calls are all cache hits.
        This is the fan-out behind ``repro sweep --parallel`` and the
        DSE orchestrator's parallel evaluation
        (:mod:`repro.dse.orchestrator`).

        Prefill is best-effort and never changes results — it only moves
        evaluations into workers ahead of time.  Points already warm in
        the in-memory *or* persistent cache never reach the pool; worker
        results are written back to the persistent store (when the
        session carries one), so a repeated parallel drive — even from a
        fresh process — performs zero engine runs.  Sessions without
        memoisation, or carrying custom kernel/energy models (which may
        not survive pickling), skip the pool silently; a failed pool or
        worker falls back to the serial path with a warning.
        """
        if parallel is None or parallel <= 1:
            return
        if not self.memoize or self.kernels is not None or self.energy is not None:
            return
        options = self.options()
        pending: List[Tuple[str, tuple]] = []
        seen = set()
        for workload, strategy, platform in requests:
            impl = get_strategy(strategy)
            store = self._store if _strategy_is_persistable(impl) else None
            cache_dir = str(store.directory) if store is not None else None
            key = self._cache_key(impl.name, workload, platform, options)
            if key in self._cache or key in seen:
                continue
            if store is not None:
                cached = store.get(key)
                if cached is not None:
                    self._disk_hits += 1
                    self._cache[key] = cached
                    continue
            seen.add(key)
            pending.append(
                (key, (impl.name, workload, platform, options, key, cache_dir))
            )
        if len(pending) < 2:
            return
        import warnings

        if self._store is not None:
            self._store.flush()  # workers read the store, not this buffer
        try:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(parallel, len(pending)))
        except Exception as error:
            # Pool creation failure (restricted environment, missing
            # semaphores, ...): prefill is best-effort, so fall back to
            # the serial path, which re-raises any genuine evaluation
            # error.
            warnings.warn(
                f"parallel prefill unavailable ({error}); "
                "evaluating serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        failures = 0
        first_error = None
        workers = min(parallel, len(pending))
        # Several points per task: the submit/pickle round-trip amortises
        # over the chunk, so millisecond-scale evaluations still win.
        # Four chunks per worker keeps the pool load-balanced when chunk
        # costs are uneven (mixed chip counts, infeasible points).
        chunk_size = max(1, -(-len(pending) // (workers * 4)))
        chunks = [
            [payload for _, payload in pending[start:start + chunk_size]]
            for start in range(0, len(pending), chunk_size)
        ]
        with pool:
            # The workers already wrote their results to the persistent
            # store; the parent only fills its in-memory layer.  A point
            # a worker answered from disk (written meanwhile by a
            # concurrent process) counts as a disk hit, not an engine
            # run.  A failed worker (spawn start method without the
            # strategy registered in the child, broken pool, ...) only
            # forfeits its own chunk: completed results are kept, and
            # the serial path re-evaluates the remainder, re-raising any
            # genuine evaluation error.  Infeasible designs
            # (partitioning, capacity, ...) are expected under
            # design-space search and fail identically — and cheaply —
            # on the serial path, which is what assigns them meaning, so
            # they are not warned about.
            futures = [pool.submit(_evaluate_chunk, chunk) for chunk in chunks]
            for chunk, future in zip(chunks, futures):
                try:
                    entries = future.result()
                except Exception as error:
                    failures += len(chunk)
                    if first_error is None:
                        first_error = error
                    continue
                for key, status, value in entries:
                    if status == "infeasible":
                        continue
                    if status != "ok":
                        failures += 1
                        if first_error is None:
                            first_error = value
                        continue
                    ran_engine, result = value
                    self._cache[key] = result
                    if ran_engine:
                        self._misses += 1
                    else:
                        self._disk_hits += 1
        if failures:
            warnings.warn(
                f"parallel prefill lost {failures} of "
                f"{len(pending)} point(s) ({first_error}); evaluating "
                "the remainder serially",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prefill_parallel(
        self,
        workload: Workload,
        chips: Sequence[int],
        strategy: str,
        parallel: int,
    ) -> None:
        """Prefill one strategy's chip-count sweep (see :meth:`prefill`)."""
        self.prefill(
            [
                (workload, strategy, self.resolve_platform(count))
                for count in chips
            ],
            parallel=parallel,
        )

