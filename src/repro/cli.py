"""Command-line interface.

``python -m repro <command>`` exposes the library's main entry points
without writing any Python:

* ``models``      — list the registered model configurations,
* ``strategies``  — list the registered partitioning strategies,
* ``policies``    — list the registered serving scheduler policies,
* ``routers``     — list the registered fleet routing policies,
* ``platforms``   — list the registered hardware platform presets,
* ``searchers``   — list the registered DSE search algorithms/objectives,
* ``evaluate``    — evaluate one Transformer block on a chip count,
* ``sweep``       — run a chip-count sweep with any registered strategy
  and print (or export) the Fig. 4/5-style tables,
* ``compare``     — strategy ablation (Table-I style) on one chip count,
* ``serve``       — request-level serving simulation (traffic trace,
  queueing policy, tail-latency/SLO analytics),
* ``fleet``       — fleet-level serving across heterogeneous platform
  replicas (routing, admission control, autoscaling),
* ``tune``        — design-space exploration (searchable platform space,
  multi-objective search, Pareto front),
* ``experiments`` — regenerate the paper's figures and tables (each one a
  shipped study, rendered as text),
* ``verify``      — numerically verify the partitioning scheme's exactness,
* ``cache``       — inspect or clear the persistent evaluation cache,
* ``study``       — run, validate, or scaffold declarative study specs,
* ``studies``     — list the shipped (and registered) example studies.

Each evaluating command declares its flags once, as rows of
``_COMMANDS``: a row names the :mod:`repro.spec` field its flag sets, so
the flags given on the command line build the command's spec document
and every other field keeps its spec type's default.  The spec runs with
:func:`repro.spec.execute` on a :class:`repro.api.Session` — the path
``repro study run`` takes — so any strategy added with
:func:`repro.api.register_strategy` (or scheduling policy added with
:func:`repro.serving.register_policy`, fleet router added with
:func:`repro.fleet.register_router`, search algorithm added with
:func:`repro.dse.register_searcher`, objective added with
:func:`repro.dse.register_objective`) is immediately usable from the
command line.  ``evaluate``, ``sweep``, ``compare``, ``serve``,
``fleet``, and ``tune`` all take ``--json`` to emit one shared
machine-readable format instead of the human tables; the Session-driven
JSON documents include the session's cache statistics so memoisation
reuse is observable.

The same six commands (plus ``experiments``, which prints the shipped
study it runs) take ``--emit-spec``, which prints the invocation as a
replayable :mod:`repro.spec` JSON document instead of running it;
``repro study run`` replays such a document — or a whole multi-stage
study file — bit for bit.  Invalid input of any kind (bad flags aside,
which argparse reports itself) exits with status 2 and a one-line
``error: ...`` on stderr rather than a traceback.

Every evaluating command also shares the persistent cross-process
evaluation cache (:mod:`repro.api.cache`): results land on disk under
``~/.cache/repro`` (override with ``--cache-dir`` or ``REPRO_CACHE_DIR``)
and are reused by later invocations, so re-running a sweep or serving
study in a new process is nearly free.  Disable with ``--no-cache`` or
``REPRO_NO_CACHE=1``; inspect with ``repro cache stats``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .analysis import figures
from .analysis.export import check_sweep_path, write_sweep
from .analysis.tables import energy_runtime_table, format_table, runtime_breakdown_table
from .api.registry import get_strategy, list_strategies
from .api.result import EvalResult
from .api.session import CacheInfo, EvalSweep, Session
from .core.placement import PrefetchAccounting
from .dse import parse_constraint
from .dse.space import FloatAxis, default_space
from .errors import AnalysisError, ConfigurationError, ReproError
from .graph.transformer import InferenceMode
from .hw.presets import get_platform_preset
from .models.registry import get_model, list_models
from .spec import (
    AxisSpec,
    CompareSpec,
    EvalSpec,
    FleetSpec,
    PlatformSpec,
    RunnableSpec,
    ServingSpec,
    SpaceSpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    execute,
    get_study,
    list_studies,
)
from .units import format_bytes, format_energy, format_time


def _lazy(name: str) -> Any:
    """``repro.<name>``, importing its module on first use.

    The fleet types live in :mod:`repro.fleet`, which ``import repro``
    leaves unloaded, so the rows below name them instead of importing.
    """
    module, *attributes = name.split(".")
    return functools.reduce(
        getattr, attributes, importlib.import_module(f".{module}", __package__)
    )


class _Flag(NamedTuple):
    """One flag of an evaluating command, declared once.

    ``field`` is the dotted path of the spec field the flag sets, or
    ``None`` for a flag that is no spec field.  A flag left off the
    command line sets nothing, so its field keeps the spec type's
    default; only a ``default`` in ``form`` (the argparse keywords) is a
    default of the command's own.  ``parse`` builds the first field of
    the path (``space`` for ``space.chips``) from the value of the flag
    that sets that field whole, if given, then the values given under it
    as keywords.  ``needs`` names the flags one of which must come with
    this one, and may say why.  ``%(default)s`` in ``help`` quotes the
    command's own default, else ``repro.<default_from>``, else the
    field's default; it is looked up only when help is printed.
    """

    flag: str
    field: Optional[str]
    help: str
    form: Dict[str, Any]
    parse: Optional[Callable[..., Any]] = None
    needs: str = ""
    default_from: str = ""

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def default(self, spec: type) -> Any:
        """The value this flag's help quotes as its default."""
        if "default" in self.form:
            return self.form["default"]
        if self.default_from:
            return _lazy(self.default_from)
        return functools.reduce(getattr, self.field.split("."), spec)


def _flag(
    flag: str,
    field: Optional[str],
    help: str,
    parse: Optional[Callable[..., Any]] = None,
    needs: str = "",
    default_from: str = "",
    **form: Any,
) -> _Flag:
    return _Flag(flag, field, help, form, parse, needs, default_from)


def _positive_int_flag(value: Optional[str], flag: str) -> Optional[int]:
    """Parse an integer CLI flag that must be >= 1.

    Raised as a :class:`ConfigurationError` so every malformed value
    exits with the CLI's uniform one-line ``error: ...`` contract
    instead of an argparse usage dump.
    """
    if value is None:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigurationError(
            f"{flag} must be an integer, got {value!r}"
        ) from None
    if parsed < 1:
        raise ConfigurationError(f"{flag} must be >= 1, got {parsed}")
    return parsed


def _trace(path: Optional[str] = None, **generator: Any) -> TraceSpec:
    """``--replay``'s recording verbatim, else the trace the generator flags set."""
    if path is None:
        return TraceSpec(**generator)
    return TraceSpec(source="replay", path=path)


#: The value of a bare ``--autoscale``, which keeps the default preset.
_BARE = object()


def _autoscaler(text: Any, **knobs: Any):
    """``--autoscale [PRESET[:CHIPS]]`` with the knobs of its other flags."""
    config = _lazy("fleet.AutoscalerConfig")
    return config(**knobs) if text is _BARE else config.parse(text, **knobs)


def _constraints(exprs: List[str]) -> List[str]:
    for expr in exprs:
        parse_constraint(expr)  # a bad bound fails before any spec is printed
    return exprs


def _space(**values: List[Any]) -> SpaceSpec:
    """Tune's search space: every axis of the default space, at its flag's values."""
    axes = []
    for axis in default_space().axes:
        chosen = tuple(values[axis.name])
        if isinstance(axis, FloatAxis):
            axes.append(
                AxisSpec(
                    axis="float",
                    name=axis.name,
                    low=min(chosen),
                    high=max(chosen),
                    levels=chosen,
                )
            )
        else:
            axes.append(AxisSpec(name=axis.name, choices=chosen))
    space = SpaceSpec(axes=tuple(axes))
    space.validate("$.space")  # a value that can never run fails here
    return space


def _axis(flag: str, name: str, help: str, **form: Any) -> _Flag:
    """A flag of one tune axis; its default values are the default space's."""
    return _flag(
        flag,
        f"space.{name}",
        f"{help} (default: %(default)s)",
        parse=_space,
        nargs="+",
        default=list(default_space().axis(name).values()),
        **form,
    )


_MODEL = _flag("--model", "model.name", "registered model name (see `repro models`)")

#: The workload flags of ``evaluate``, ``sweep``, ``compare`` and ``tune``.
_WORKLOAD = (
    _MODEL._replace(field="workload.model.name"),
    _flag(
        "--mode",
        "workload.mode",
        "inference mode (default: %(default)s)",
        choices=[mode.value for mode in InferenceMode],
    ),
    _flag(
        "--seq-len",
        "workload.seq_len",
        "sequence/context length (default: the paper's value per mode)",
        type=int,
    ),
    _flag(
        "--prefetch",
        "prefetch",
        "prefetch runtime accounting policy (default: %(default)s)",
        choices=[policy.value for policy in PrefetchAccounting],
    ),
)
_STRATEGY = _flag(
    "--strategy",
    "strategy",
    "registered partitioning strategy (default: %(default)s; "
    "see `repro strategies`)",
    metavar="NAME",
)
#: ``evaluate``, ``compare`` and ``serve`` pin the chip count their
#: platform runs by default in the document they run.
_CHIPS = _flag(
    "--chips",
    "platform.chips",
    "number of chips (default: %(default)s)",
    type=int,
    default=get_platform_preset(PlatformSpec.preset).default_chips,
)

#: The trace flags that ``serve`` and ``fleet`` share.
_RATES = (
    _flag(
        "--arrival-rate",
        "trace.rate_rps",
        "mean arrival rate in requests/s (default: %(default)s)",
        type=float,
        metavar="RPS",
    ),
    _flag(
        "--burst-rate",
        "trace.burst_rate_rps",
        "burst-state arrival rate for --trace bursty (default: 4x base)",
        type=float,
        metavar="RPS",
    ),
    _flag(
        "--duration",
        "trace.duration_s",
        "arrival horizon in seconds (default: %(default)s)",
        type=float,
        metavar="S",
    ),
)
_LENGTHS = (
    _flag(
        "--prompt-mean",
        "trace.prompt_mean",
        "mean prompt length in tokens (default: %(default)s)",
        type=float,
    ),
    _flag(
        "--output-mean",
        "trace.output_mean",
        "mean reply length in tokens (default: %(default)s)",
        type=float,
    ),
    _flag(
        "--prompt-max",
        "trace.prompt_max",
        "largest sampled prompt length (default: %(default)s)",
        type=int,
    ),
    _flag(
        "--output-max",
        "trace.output_max",
        "largest sampled reply length (default: %(default)s)",
        type=int,
    ),
    _flag(
        "--priority-levels",
        "trace.priority_levels",
        "uniform priority classes assigned by the trace (default: %(default)s)",
        type=int,
    ),
)
_SEED_AND_REPLAY = (
    _flag(
        "--seed",
        "seed",
        "trace seed; equal seeds give byte-identical output "
        "(default: %(default)s; meaningless with --replay)",
        type=int,
        metavar="N",
    ),
    _flag(
        "--replay",
        "trace",
        "replay a recorded JSON trace verbatim instead of generating "
        "one (the generator flags and --seed do not apply)",
        parse=_trace,
        metavar="PATH",
    ),
)
_SLO_TTFT = _flag(
    "--slo-ttft",
    "slo_targets",
    "TTFT targets of the SLO-attainment curve (default: standard grid)",
    type=float,
    nargs="+",
    metavar="S",
)

#: Evaluating command -> (its spec type, its flags in ``--help`` order).
_COMMANDS: Dict[str, Tuple[type, Tuple[_Flag, ...]]] = {
    "evaluate": (EvalSpec, (*_WORKLOAD, _STRATEGY, _CHIPS)),
    "sweep": (
        SweepSpec,
        (
            *_WORKLOAD,
            _STRATEGY,
            _flag(
                "--chips",
                "chips",
                "chip counts to sweep (default: %(default)s)",
                type=int,
                nargs="+",
            ),
            _flag(
                "--parallel",
                "parallel",
                "evaluate sweep points in N worker processes",
                type=int,
                metavar="N",
            ),
            _flag("--output", None, "optional export path (.csv or .json)"),
        ),
    ),
    "compare": (
        CompareSpec,
        (
            *_WORKLOAD,
            _CHIPS,
            _flag(
                "--strategies",
                "strategies",
                "registered strategies to compare, in order "
                "(default: the Table I ablation)",
                nargs="+",
                metavar="NAME",
            ),
        ),
    ),
    "serve": (
        ServingSpec,
        (
            _MODEL,
            _CHIPS,
            _STRATEGY,
            _flag(
                "--policy",
                "policy",
                "registered scheduling policy (default: %(default)s; "
                "see `repro policies`)",
                metavar="NAME",
            ),
            _flag(
                "--trace",
                "trace.source",
                "synthetic traffic generator (default: %(default)s)",
                choices=["poisson", "bursty", "closed"],
            ),
            *_RATES,
            _flag(
                "--clients",
                "trace.clients",
                "client population for --trace closed (default: %(default)s)",
                type=int,
            ),
            _flag(
                "--requests-per-client",
                "trace.requests_per_client",
                "requests each closed-loop client submits (default: %(default)s)",
                type=int,
            ),
            _flag(
                "--think-time",
                "trace.mean_think_s",
                "mean closed-loop think time in seconds (default: %(default)s)",
                type=float,
                metavar="S",
            ),
            *_LENGTHS,
            *_SEED_AND_REPLAY,
            _flag(
                "--save-trace",
                None,
                "write the materialised trace as replayable JSON",
                metavar="PATH",
            ),
            _SLO_TTFT,
        ),
    ),
    "fleet": (
        FleetSpec,
        (
            _MODEL,
            _flag(
                "--platform",
                "platforms",
                "one platform entry: preset name, optional chip count, "
                "replica count, and role (any/prefill/decode), e.g. "
                "siracusa-mipi:8x2@prefill; repeatable (default: %(default)s)",
                parse=lambda entries: tuple(
                    map(_lazy("fleet.FleetPlatform.parse"), entries)
                ),
                default_from="fleet.FleetPlatform.preset",
                action="append",
                metavar="PRESET[:CHIPS][xN][@ROLE]",
            ),
            _flag(
                "--router",
                "router",
                "registered routing policy (default: %(default)s; "
                "see `repro routers`)",
                metavar="NAME",
            ),
            _flag(
                "--policy",
                "policy",
                "per-replica scheduling policy (default: %(default)s; "
                "see `repro policies`)",
                metavar="NAME",
            ),
            _STRATEGY,
            _flag(
                "--trace",
                "trace.source",
                "open-loop traffic generator (default: %(default)s; diurnal "
                "adds a day-long sinusoidal rate with optional spikes)",
                choices=["poisson", "bursty", "diurnal"],
            ),
            *_RATES,
            _flag(
                "--amplitude",
                "trace.amplitude",
                "diurnal rate-swing amplitude in [0, 1] (default: %(default)s)",
                type=float,
            ),
            _flag(
                "--period",
                "trace.period_s",
                "diurnal period in seconds (default: %(default)s, one day)",
                type=float,
                metavar="S",
            ),
            _flag(
                "--phase",
                "trace.phase_s",
                "diurnal phase shift in seconds (default: %(default)s)",
                type=float,
                metavar="S",
            ),
            _flag(
                "--spike-start",
                "trace.spike_starts_s",
                "start one diurnal spike burst at this time (repeatable)",
                type=float,
                action="append",
                metavar="S",
            ),
            _flag(
                "--spike-duration",
                "trace.spike_duration_s",
                "duration of each spike burst in seconds (default: %(default)s)",
                type=float,
                metavar="S",
            ),
            _flag(
                "--spike-rate",
                "trace.spike_rate_rps",
                "extra arrival rate inside a spike (default: 2x base rate)",
                type=float,
                metavar="RPS",
            ),
            *_LENGTHS,
            _flag(
                "--class",
                "classes",
                "one multi-tenant SLO class: name, optional sustained "
                "admission rate in req/s, token-bucket burst, TTFT target in "
                "seconds, and per-class request timeout (overrides --retry's "
                "timeout), e.g. interactive:2:4:0.5; repeatable — a request's "
                "priority field indexes the class list in the given order",
                parse=lambda texts: tuple(
                    _lazy("fleet.SLOClass").parse(text, priority=index)
                    for index, text in enumerate(texts)
                ),
                action="append",
                metavar="NAME[:RATE[:BURST[:SLO[:TIMEOUT]]]]",
            ),
            _flag(
                "--autoscale",
                "autoscaler",
                "enable the reactive autoscaler; added replicas use this "
                "platform preset (default preset: %(default)s)",
                parse=_autoscaler,
                default_from="fleet.AutoscalerConfig.preset",
                nargs="?",
                const=_BARE,
                metavar="PRESET[:CHIPS]",
            ),
            _flag(
                "--autoscale-max",
                "autoscaler.max_extra",
                "most replicas the autoscaler may add (default: %(default)s)",
                needs="--autoscale",
                default_from="fleet.AutoscalerConfig.max_extra",
                type=int,
                metavar="N",
            ),
            _flag(
                "--autoscale-interval",
                "autoscaler.check_interval_s",
                "seconds between autoscaler checks (default: %(default)s)",
                needs="--autoscale",
                default_from="fleet.AutoscalerConfig.check_interval_s",
                type=float,
                metavar="S",
            ),
            _flag(
                "--autoscale-slo",
                "autoscaler.ttft_slo_s",
                "TTFT target the autoscaler defends (scale up when windowed "
                "attainment drops below 95%%)",
                needs="--autoscale",
                type=float,
                metavar="S",
            ),
            _flag(
                "--faults",
                "faults",
                "inject one fault: crash:REPLICA@START[+DURATION], "
                "slow:REPLICA@START+DURATIONxFACTOR, "
                "brownout@START+DURATIONxFACTOR, or "
                "random:MTBF[:MTTR[:HORIZON]] for a seeded random crash "
                "layer; repeatable",
                parse=lambda events=(), **fields: _lazy("fleet.FaultModel").parse(
                    events, **fields
                ),
                action="append",
                metavar="EVENT",
            ),
            _flag(
                "--fault-seed",
                "faults.seed",
                "seed of the random crash layer (default: %(default)s)",
                needs="--faults or --shed-below",
                default_from="fleet.FaultModel.seed",
                type=int,
                metavar="N",
            ),
            _flag(
                "--retry",
                "retry",
                "fail-over policy under faults: request timeout in seconds, "
                "retry budget after a crash, first-retry backoff in seconds, "
                "and hedge delay after which a second copy is dispatched, "
                "e.g. 30:3:0.5:2 (empty positions keep defaults)",
                parse=lambda text: _lazy("fleet.RetryPolicy").parse(text),
                metavar="[TIMEOUT][:RETRIES[:BACKOFF[:HEDGE]]]",
            ),
            _flag(
                "--shed-below",
                "faults.shed_below",
                "healthy-capacity fraction below which admission sheds "
                "low-priority classes (graceful degradation; default: off)",
                type=float,
                metavar="FRACTION",
            ),
            _flag(
                "--shed-keep",
                "faults.shed_keep",
                "highest-priority SLO classes still admitted while degraded "
                "(default: %(default)s)",
                needs="--faults or --shed-below",
                default_from="fleet.FaultModel.shed_keep",
                type=int,
                metavar="N",
            ),
            *_SEED_AND_REPLAY,
            _flag(
                "--max-context",
                "max_context",
                "serving context window of every replica (default: %(default)s)",
                type=int,
                metavar="TOKENS",
            ),
            _SLO_TTFT,
            _flag(
                "--record-threshold",
                "record_threshold",
                "switch from exact to streaming (histogram) latency "
                "percentiles above this many requests (default: %(default)s)",
                default_from="fleet.DEFAULT_RECORD_THRESHOLD",
                type=int,
                metavar="N",
            ),
        ),
    ),
    "tune": (
        TuneSpec,
        (
            *_WORKLOAD,
            _flag(
                "--searcher",
                "searcher",
                "registered search algorithm (default: %(default)s; "
                "see `repro searchers`)",
                metavar="NAME",
            ),
            _flag(
                "--budget",
                "budget",
                "evaluation budget of the searcher (default: %(default)s)",
                type=int,
            ),
            _flag(
                "--seed",
                "seed",
                "search seed; equal seeds give byte-identical output "
                "(default: %(default)s)",
                type=int,
            ),
            _flag(
                "--objectives",
                "objectives",
                "objectives of the Pareto front, in order "
                "(default: %(default)s; see `repro searchers`)",
                nargs="+",
                default=["latency", "energy", "hw_cost"],
                metavar="NAME",
            ),
            _flag(
                "--constraint",
                "constraints",
                "feasibility bound like 'latency<=0.01' or 'slo>=0.95' "
                "(repeatable)",
                parse=_constraints,
                action="append",
                metavar="EXPR",
            ),
            _axis("--chips", "chips", "chip-count choices of the space", type=int),
            _axis(
                "--link-gbps",
                "link_gbps",
                "C2C bandwidth levels in GB/s",
                type=float,
                metavar="GBPS",
            ),
            _axis(
                "--l2-kib", "l2_kib", "L2 capacity choices in KiB",
                type=int, metavar="KIB",
            ),
            _axis(
                "--freq-mhz",
                "freq_mhz",
                "cluster frequency levels in MHz",
                type=float,
                metavar="MHZ",
            ),
            _axis(
                "--strategies", "strategy", "strategy choices of the space",
                metavar="NAME",
            ),
            _flag(
                "--parallel",
                "parallel",
                "evaluate candidate batches in N worker processes; output is "
                "byte-identical to --parallel 1 (default: serial)",
                parse=lambda text: _positive_int_flag(text, "--parallel"),
                metavar="N",
            ),
            _flag(
                "--checkpoint",
                None,
                "write a resumable search checkpoint here every "
                "--checkpoint-every unique evaluations and on completion",
                metavar="PATH",
            ),
            _flag(
                "--checkpoint-every",
                "checkpoint_every",
                "checkpoint cadence in unique evaluations "
                "(default: %(default)s; needs --checkpoint)",
                parse=lambda text: _positive_int_flag(text, "--checkpoint-every"),
                needs="--checkpoint to set where checkpoints are written",
                default_from="dse.DEFAULT_CHECKPOINT_EVERY",
                metavar="N",
            ),
            _flag(
                "--resume",
                None,
                "resume from a checkpoint written by an earlier interrupted "
                "run; the finished search is byte-identical to an "
                "uninterrupted one",
                metavar="PATH",
            ),
        ),
    ),
}


def _quoted(value: Any) -> str:
    """A default as ``--help`` quotes it: numbers in ``%g``, lists spaced."""
    if isinstance(value, (list, tuple)):
        return " ".join(map(_quoted, value))
    return value if isinstance(value, str) else f"{value:g}"


class _HelpFormatter(argparse.HelpFormatter):
    """Quotes each row's default, looked up only when help is printed."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        default = getattr(action, "quoted_default", None)
        if default is None:
            return action.help
        return action.help.replace("%(default)s", _quoted(default()))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI.

    Each subcommand's parser sets ``args.handler``, the function that
    turns its parsed arguments into the lines printed on stdout, and
    takes the flags its ``_COMMANDS`` rows declare.
    """
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed Transformer inference on low-power MCUs "
            "(DATE 2025 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    _add_cache_arguments(parser, suppress=False)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, **kwargs) -> argparse.ArgumentParser:
        subparser = subparsers.add_parser(
            name, help=summary, formatter_class=_HelpFormatter, **kwargs
        )
        subparser.set_defaults(handler=handler)
        spec, rows = _COMMANDS.get(name, (None, ()))
        for row in rows:
            action = subparser.add_argument(row.flag, help=row.help, **row.form)
            if "%(default)s" in row.help:
                action.quoted_default = functools.partial(row.default, spec)
        return subparser

    models_parser = command(
        "models", _command_models, "list registered model configurations"
    )
    models_parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="show a detailed per-model summary instead of the table",
    )
    models_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )

    command(
        "strategies", _command_strategies, "list registered partitioning strategies"
    )
    command("policies", _command_policies, "list registered serving scheduler policies")
    command("routers", _command_routers, "list registered fleet routing policies")
    command(
        "platforms", _command_platforms, "list registered hardware platform presets"
    )
    command(
        "searchers",
        _command_searchers,
        "list registered design-space searchers and objectives",
    )
    evaluating = [
        command(
            "evaluate",
            _command_evaluate,
            "evaluate one Transformer block on a chip count",
        ),
        command(
            "sweep",
            _command_sweep,
            "run a chip-count sweep and print the figure tables",
        ),
        command(
            "compare",
            _command_compare,
            "strategy ablation on one chip count (Table I style)",
        ),
        command(
            "serve",
            _command_serve,
            "request-level serving simulation (queueing + tail latency)",
        ),
        command(
            "fleet",
            _command_fleet,
            "fleet-level serving across heterogeneous platform replicas",
            description=(
                "Simulate a fleet of serving platforms behind a routing "
                "policy: heterogeneous replica pools (repeat --platform), "
                "multi-tenant admission control (repeat --class), and an "
                "optional reactive autoscaler (--autoscale)."
            ),
        ),
        command(
            "tune",
            _command_tune,
            "design-space exploration (multi-objective platform search)",
        ),
    ]

    command("studies", _command_studies, "list the registered example studies")

    study = command(
        "study",
        _command_study,
        "run, validate, or scaffold declarative study specs",
        description=(
            "run: execute a study spec (a JSON file or a registered study "
            "name; single-command specs emitted by --emit-spec are wrapped "
            "into a one-stage study) and print a summary. "
            "validate: check one or more spec files without running them. "
            "init: print (or write) a starter study template."
        ),
    )
    study.add_argument(
        "action",
        choices=["run", "validate", "init"],
        help="what to do with the spec(s)",
    )
    study.add_argument(
        "target",
        nargs="*",
        help=(
            "spec file path(s); `run` also accepts a registered study name "
            "(see `repro studies`)"
        ),
    )
    study.add_argument(
        "--output-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="write per-stage artifacts plus the study.json manifest to DIR",
    )
    study.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="PATH",
        help="for `init`: write the template here instead of stdout",
    )
    study.add_argument(
        "--parallel",
        default=None,
        metavar="N",
        help=(
            "for `run`: evaluate tune stages with N worker processes; "
            "artifacts are byte-identical to a serial run"
        ),
    )

    experiments = command(
        "experiments", _command_experiments, "regenerate the paper's figures and tables"
    )
    experiments.add_argument(
        "--only",
        choices=[
            "fig4", "fig5", "fig6", "table1", "headline", "serving", "dse",
            "all",
        ],
        default="all",
        help=(
            "which experiment to run (default: all — the paper's figures; "
            "'serving' runs the capacity-vs-SLO study, 'dse' the "
            "budget-vs-Pareto-front study)"
        ),
    )

    verify = command(
        "verify",
        _command_verify,
        "numerically verify the partitioning scheme's exactness",
    )
    verify.add_argument("--model", default="tinyllama-42m")
    verify.add_argument("--chips", type=int, default=8)
    verify.add_argument("--rows", type=int, default=4)

    cache = command(
        "cache", _command_cache, "inspect or clear the persistent evaluation cache"
    )
    cache.add_argument(
        "action",
        choices=["stats", "clear", "path"],
        help=(
            "stats: entry count/size/versions; clear: drop every stored "
            "evaluation; path: print the store location"
        ),
    )

    for subparser in (*evaluating, study):
        subparser.add_argument(
            "--json",
            action="store_true",
            help="emit a machine-readable JSON document instead of the tables",
        )

    # The cache flags are accepted both before the subcommand (the global
    # position) and after it, where most users type them.
    for subparser in (*evaluating, experiments, cache, study):
        _add_cache_arguments(subparser, suppress=True)

    # Every spec-expressible command can print its invocation as a
    # replayable spec document instead of running it.
    for subparser in (*evaluating, experiments):
        subparser.add_argument(
            "--emit-spec",
            action="store_true",
            help=(
                "print this invocation as a replayable repro.spec JSON "
                "document (see `repro study run`) instead of executing it"
            ),
        )

    return parser


def _add_cache_arguments(
    parser: argparse.ArgumentParser, *, suppress: bool
) -> None:
    """Add the persistent-cache flags to a (sub)parser.

    The root parser owns the defaults; subparsers use ``SUPPRESS`` so a
    flag given after the subcommand overrides the root default without a
    conflicting second default.
    """
    parser.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="do not read or write the persistent evaluation cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=argparse.SUPPRESS if suppress else None,
        metavar="DIR",
        help=(
            "persistent evaluation cache directory (default: "
            "$REPRO_CACHE_DIR or ~/.cache/repro)"
        ),
    )


def _session_from_args(args: argparse.Namespace) -> Session:
    """A session honouring the persistent-cache flags.

    CLI sessions persist evaluations on disk by default, so a repeated
    invocation in a fresh process reuses every warm result instead of
    re-simulating it.  (A spec's ``prefetch`` reaches the session through
    :func:`repro.spec.execute`.)
    """
    if getattr(args, "no_cache", False):
        return Session(persistent=False)
    return Session(cache_dir=getattr(args, "cache_dir", None), persistent=True)


def _spec_from_flags(args: argparse.Namespace) -> RunnableSpec:
    """The spec of an evaluating command: each given flag sets its field.

    A field that no given flag sets keeps its spec type's default.  The
    spec types are built directly, in field order, so a value they reject
    fails with their own message rather than a document path.
    """
    spec, rows = _COMMANDS[args.command]
    given = [(row, getattr(args, row.dest)) for row in rows]
    given = [(row, value) for row, value in given if value is not None]
    flags = {row.flag for row, _ in given}
    for row, _ in given:
        if row.needs and flags.isdisjoint(row.needs.split()):
            raise ConfigurationError(f"{row.flag} needs {row.needs}")
    if {"--replay", "--seed"} <= flags:
        raise AnalysisError(
            "--seed has no effect with --replay (the trace is replayed "
            "verbatim); drop one of the two flags"
        )
    parsers = {row.field.split(".")[0]: row.parse for row in rows if row.parse}
    return _with_fields(
        spec(), {row.field: value for row, value in given if row.field}, parsers
    )


def _with_fields(
    default: Any, values: Dict[str, Any], parsers: Dict[str, Callable[..., Any]]
) -> Any:
    """``default`` with each dotted field of ``values`` set.

    A field with a parser is its parser's value: given the field's own
    value, if set, then the values under it as keywords.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for path, value in values.items():
        name, _, rest = path.partition(".")
        groups.setdefault(name, {})[rest] = value
    changes = {}
    for field in fields(default):
        if field.name not in groups:
            continue
        under = groups[field.name]
        own = [under.pop("")] if "" in under else []
        if field.name in parsers:
            changes[field.name] = parsers[field.name](*own, **under)
        elif under:
            changes[field.name] = _with_fields(
                getattr(default, field.name), under, {}
            )
        else:
            changes[field.name] = own[0]
    return replace(default, **changes)


def _model_summary(name: str, config) -> dict:
    """Machine-readable architecture summary of one registered model."""
    return {
        "name": name,
        "model": config.name,
        "embed_dim": config.embed_dim,
        "ffn_dim": config.ffn_dim,
        "num_heads": config.num_heads,
        "kv_heads": config.kv_heads,
        "head_dim": config.head_dim,
        "num_layers": config.num_layers,
        "ffn_kind": config.ffn_kind.value,
        "norm_kind": config.norm_kind.value,
        "activation": config.activation.value,
        "num_experts": config.num_experts,
        "moe_top_k": config.moe_top_k,
        "attention_window": config.attention_window,
        "kv_cache_dtype": config.kv_dtype.name,
        "cross_attention": config.cross_attention,
        "weight_dtype": config.weight_dtype.name,
        "act_dtype": config.act_dtype.name,
        "total_params": config.total_params,
        "block_weight_bytes": config.block_weight_bytes,
    }


def _attention_label(config) -> str:
    if config.kv_heads == 1 and config.num_heads > 1:
        return f"mqa {config.num_heads}h/1kv"
    if config.kv_heads != config.num_heads:
        return f"gqa {config.num_heads}h/{config.kv_heads}kv"
    return f"mha {config.num_heads}h"


def _command_models(args: argparse.Namespace) -> List[str]:
    names = list(args.names) if args.names else list_models()
    if args.json:
        payload = [_model_summary(name, get_model(name)) for name in names]
        return [json.dumps(payload, indent=2, sort_keys=True)]
    if args.names:
        lines = []
        for name in names:
            summary = _model_summary(name, get_model(name))
            lines.append(f"{name}:")
            for key in sorted(summary):
                if key == "name":
                    continue
                lines.append(f"  {key:<20}: {summary[key]}")
        return lines
    lines = []
    for name in names:
        config = get_model(name)
        extras = [_attention_label(config)]
        if config.is_moe:
            extras.append(f"moe {config.num_experts}e/top{config.moe_top_k}")
        if config.attention_window is not None:
            extras.append(f"window {config.attention_window}")
        if config.cross_attention:
            extras.append("xattn")
        lines.append(
            f"{name:<24} E={config.embed_dim} F={config.ffn_dim} "
            f"H={config.num_heads} L={config.num_layers} "
            f"params={config.total_params / 1e6:.1f}M "
            f"block={format_bytes(config.block_weight_bytes)} "
            f"[{' '.join(extras)}]"
        )
    return lines


def _labels(names: Callable[[], List[str]], get: Callable[[str], object]) -> List[str]:
    """One ``name  label`` line per registered name of a plugin registry."""
    return [f"{name:<20} {get(name).label}" for name in names()]


def _command_strategies(args: argparse.Namespace) -> List[str]:
    return _labels(list_strategies, get_strategy)


def _command_policies(args: argparse.Namespace) -> List[str]:
    from .serving import get_policy, list_policies

    return _labels(list_policies, get_policy)


def _command_routers(args: argparse.Namespace) -> List[str]:
    from .fleet import get_router, list_routers

    return _labels(list_routers, get_router)


def _command_platforms(args: argparse.Namespace) -> List[str]:
    from .hw.presets import list_platform_presets

    lines = []
    for name in list_platform_presets():
        preset = get_platform_preset(name)
        platform = preset.build(1)
        chip = platform.chip
        lines.append(f"{name:<20} {preset.description}")
        lines.append(
            f"{'':<20} cores={chip.cluster.num_cores} "
            f"@ {chip.cluster.frequency_hz / 1e6:.0f} MHz, "
            f"L1={format_bytes(chip.l1.size_bytes)}, "
            f"L2={format_bytes(chip.l2.size_bytes)}, "
            f"link={platform.link.bandwidth_bytes_per_s / 1e9:g} GB/s "
            f"@ {platform.link.energy_pj_per_byte:g} pJ/B, "
            f"groups of {platform.group_size}"
        )
    return lines


def _command_searchers(args: argparse.Namespace) -> List[str]:
    from .dse import get_objective, get_searcher, list_objectives, list_searchers

    lines = _labels(list_searchers, get_searcher)
    lines.append("")
    lines.append("objectives:")
    for name in list_objectives():
        objective = get_objective(name)
        lines.append(f"{name:<20} [{objective.sense.value}] {objective.label}")
    return lines


def _run_spec(
    args: argparse.Namespace,
    spec,
    to_json: Callable[[object, CacheInfo], str],
    to_text: Callable[[object], List[str]],
    **overrides,
) -> List[str]:
    """The one path of the six evaluating commands.

    ``--emit-spec`` prints ``spec``; otherwise :func:`repro.spec.execute`
    runs it (with tune's checkpoint paths as ``overrides``) on the session
    the cache flags describe, and the result is rendered by ``to_json``
    (given the session's cache statistics) under ``--json``, else by
    ``to_text``.
    """
    if args.emit_spec:
        return [spec.to_json().rstrip("\n")]
    session = _session_from_args(args)
    result = execute(session, spec, **overrides)
    if args.json:
        return [to_json(result, session.cache_info())]
    return to_text(result)


def _evaluate_text(result: EvalResult) -> List[str]:
    lines = [
        result.summary()
        + (
            f", on-chip={result.runs_from_on_chip_memory}"
            if result.runs_from_on_chip_memory is not None
            else ""
        ),
        f"  strategy   : {result.strategy} ({result.approach})",
        f"  runtime    : {result.block_cycles:,.0f} cycles "
        f"({format_time(result.block_runtime_seconds)}) per block",
        f"  energy     : {format_energy(result.block_energy_joules)} per block",
        f"  L3 traffic : {format_bytes(result.l3_bytes_per_block)} per block",
    ]
    if result.c2c_bytes_per_block is not None:
        lines.append(
            f"  C2C traffic: {format_bytes(result.c2c_bytes_per_block)} per block"
        )
    breakdown = result.runtime_breakdown()
    if breakdown is not None:
        lines.append(
            "  breakdown  : "
            + ", ".join(
                f"{category.value}={value:,.0f}"
                for category, value in breakdown.items()
            )
        )
    if result.notes:
        lines.append(f"  notes      : {result.notes}")
    return lines


def _command_evaluate(args: argparse.Namespace) -> List[str]:
    return _run_spec(
        args,
        _spec_from_flags(args),
        lambda result, cache: result.to_json(),
        _evaluate_text,
    )


def _strategy_sweep_table(sweep: EvalSweep) -> str:
    """Generic cycles/speedup/energy table for any strategy's sweep."""
    rows = []
    for result in sweep.results:
        rows.append(
            [
                str(result.num_chips),
                f"{result.block_cycles:,.0f}",
                f"{result.speedup_over(sweep.baseline):.2f}x",
                format_energy(result.block_energy_joules),
                format_bytes(result.l3_bytes_per_block),
            ]
        )
    return format_table(
        ["Chips", "Cycles/block", "Speedup", "Energy/block", "L3/block"], rows
    )


def _command_sweep(args: argparse.Namespace) -> List[str]:
    spec = _spec_from_flags(args)
    if not args.emit_spec:
        # Pure argument validation: fail before the (possibly long) sweep.
        if args.json and args.output and not args.output.lower().endswith(".json"):
            raise AnalysisError(
                f"--json writes a JSON document; use a .json path "
                f"(got {args.output!r}) or drop --json for the CSV exporter"
            )
        if args.output:
            check_sweep_path(args.output)

    def to_json(sweep: EvalSweep, cache: CacheInfo) -> str:
        text = sweep.to_json(cache=cache)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_text(sweep: EvalSweep) -> List[str]:
        lines = [
            f"Chip-count sweep for {sweep.workload.name} "
            f"(strategy: {sweep.strategy})"
        ]
        if all(result.report is not None for result in sweep.results):
            lines += [
                runtime_breakdown_table(sweep),
                "",
                energy_runtime_table(sweep),
            ]
        else:
            lines.append(_strategy_sweep_table(sweep))
        if args.output:
            write_sweep(sweep, args.output)
            lines.append(f"wrote {args.output}")
        return lines

    return _run_spec(args, spec, to_json, to_text)


def _compare_text(comparison) -> List[str]:
    best = comparison.best()
    return [
        (
            f"Strategy comparison on {comparison.num_chips} chips, "
            f"workload {comparison.workload.name}"
        ),
        comparison.render(),
        (
            f"fastest: {best.strategy} "
            f"({best.block_cycles:,.0f} cycles/block)"
        ),
    ]


def _command_compare(args: argparse.Namespace) -> List[str]:
    return _run_spec(
        args,
        _spec_from_flags(args),
        lambda comparison, cache: comparison.to_json(),
        _compare_text,
    )


def _command_serve(args: argparse.Namespace) -> List[str]:
    from .serving import save_trace

    def saved(report) -> List[str]:
        """Write ``--save-trace`` if given; the line the text report adds."""
        if args.save_trace is None:
            return []
        save_trace(
            [record.request for record in report.result.records],
            args.save_trace,
        )
        return [f"wrote trace {args.save_trace}"]

    def to_json(report, cache: CacheInfo) -> str:
        saved(report)
        return report.to_json(cache=cache)

    return _run_spec(
        args,
        _spec_from_flags(args),
        to_json,
        lambda report: [report.render()] + saved(report),
    )


def _command_fleet(args: argparse.Namespace) -> List[str]:
    return _run_spec(
        args,
        _spec_from_flags(args),
        lambda report, cache: report.to_json(cache=cache),
        lambda report: [report.render()],
    )


def _checkpoint_path_flag(value: Optional[str], flag: str) -> Optional[str]:
    """Validate a checkpoint path flag (non-blank, not a directory)."""
    if value is None:
        return None
    if not value.strip():
        raise ConfigurationError(f"{flag} needs a file path, got {value!r}")
    if Path(value).is_dir():
        raise ConfigurationError(
            f"{flag} must name a checkpoint file, and {value!r} is a "
            "directory"
        )
    return value


def _command_tune(args: argparse.Namespace) -> List[str]:
    spec = _spec_from_flags(args)
    # Where checkpoints are written and read is no spec field.
    return _run_spec(
        args,
        spec,
        lambda result, cache: result.to_json(cache=cache),
        lambda result: [result.render()],
        checkpoint=_checkpoint_path_flag(args.checkpoint, "--checkpoint"),
        resume=_checkpoint_path_flag(args.resume, "--resume"),
    )


#: ``experiments --only`` value -> (the shipped study it runs, its renderer).
_EXPERIMENTS = {
    "dse": ("dse-budget", figures.render_dse),
    "fig4": ("fig4", figures.render_fig4),
    "fig5": ("fig5", figures.render_fig5),
    "fig6": ("fig6", figures.render_fig6),
    "headline": ("headline", figures.render_headline),
    "serving": ("serving-capacity", figures.render_serving),
    "table1": ("table1", figures.render_table1),
}

#: The sections of ``experiments --only all``, in order.
_ALL_EXPERIMENTS = (
    ("fig4", "Figure 4 — runtime breakdown and speedup"),
    ("fig5", "Figure 5 — energy vs. runtime"),
    ("fig6", "Figure 6 — scalability study (scaled-up TinyLlama)"),
    ("table1", "Table I — partitioning-approach comparison"),
    ("headline", "Headline numbers — paper vs. measured"),
)


def _render_experiment(only: str, session: Session) -> str:
    """Run ``only``'s shipped study through ``session`` and render it."""
    from .api.study import Study

    name, render = _EXPERIMENTS[only]
    return render(Study(get_study(name), session=session).run())


def _command_experiments(args: argparse.Namespace) -> List[str]:
    if args.only == "all":
        if args.emit_spec:
            raise AnalysisError(
                "--emit-spec needs a single experiment; pass --only with "
                "one of: " + ", ".join(_EXPERIMENTS)
            )
        session = _session_from_args(args)
        lines = ["=" * 72]
        for only, title in _ALL_EXPERIMENTS:
            body = _render_experiment(only, session)
            lines += [title, "-" * len(title), body, ""]
        return ["\n".join(lines)]
    if args.emit_spec:
        name, _ = _EXPERIMENTS[args.only]
        return [get_study(name).to_json().rstrip("\n")]
    return [_render_experiment(args.only, _session_from_args(args))]


def _command_cache(args: argparse.Namespace) -> List[str]:
    from .api.cache import EvalCache, default_cache_dir, persistent_cache_disabled

    directory = getattr(args, "cache_dir", None) or default_cache_dir()
    store = EvalCache(directory)
    if args.action == "path":
        return [str(store.path)]
    if args.action == "clear":
        removed = store.clear()
        return [f"removed {removed} cached evaluation(s) from {store.path}"]
    stats = store.stats()
    lines = [
        f"path           : {stats.path}",
        f"entries        : {stats.entries}",
        f"size           : {format_bytes(stats.size_bytes)}",
        f"schema version : {stats.schema_version}",
        f"code version   : {stats.code_version}",
    ]
    if persistent_cache_disabled():
        lines.append("note           : REPRO_NO_CACHE is set; the default "
                     "store is disabled for evaluating commands")
    return lines


#: The `repro study init` starter template, emitted verbatim.
_STUDY_TEMPLATE = {
    "schema": 1,
    "kind": "study",
    "name": "my-study",
    "description": "Evaluate one block, then sweep chip counts.",
    "stages": [
        {
            "kind": "stage",
            "name": "evaluate-8",
            "spec": {
                "kind": "evaluate",
                "workload": {
                    "kind": "workload",
                    "model": {"kind": "model", "name": "tinyllama-42m"},
                    "mode": "autoregressive",
                    "seq_len": 128,
                },
                "strategy": "paper",
                "platform": {"kind": "platform", "chips": 8},
            },
        },
        {
            "kind": "stage",
            "name": "sweep",
            "spec": {"kind": "sweep", "chips": [1, 2, 4, 8]},
        },
    ],
}


def _load_study_target(target: str):
    """Resolve a `study run` target: spec file path or registered name.

    Single-command specs (as emitted by ``--emit-spec``) are wrapped into
    a one-stage study so any captured invocation replays directly.
    """
    from .spec import RUNNABLE_KINDS, StageSpec, StudySpec, load_spec

    if not Path(target).exists():
        if target in list_studies():
            return get_study(target)
        if not target.endswith(".json") and "/" not in target:
            # Clearly meant as a registry name, not a path: say what the
            # registry actually holds instead of "no such file".
            raise AnalysisError(
                f"no registered study (and no spec file) named {target!r}; "
                "registered studies: " + ", ".join(list_studies())
            )
    spec = load_spec(target)
    if isinstance(spec, StudySpec):
        return spec
    if type(spec) in RUNNABLE_KINDS.values():
        return StudySpec(
            name="adhoc",
            description=f"single {spec.kind} spec from {target}",
            stages=(StageSpec(name=spec.kind, spec=spec),),
        )
    raise AnalysisError(
        f"{target} holds a {spec.kind!r} spec, which is not runnable on "
        "its own; `repro study run` takes a study or a single evaluating "
        "command's spec"
    )


def _command_study(args: argparse.Namespace) -> List[str]:
    from .api.study import Study
    from .spec import load_spec

    if args.action == "init":
        text = json.dumps(_STUDY_TEMPLATE, indent=2, sort_keys=True) + "\n"
        if args.output is not None:
            Path(args.output).write_text(text, encoding="utf-8")
            return [f"wrote template {args.output}"]
        return [text.rstrip("\n")]

    if args.action == "validate":
        if not args.target:
            raise AnalysisError("study validate needs at least one spec file")
        lines = []
        for target in args.target:
            spec = load_spec(target)
            validate = getattr(spec, "validate", None)
            if validate is None:
                raise AnalysisError(
                    f"{target}: a {spec.kind!r} spec has no validator"
                )
            validate(path=target)
            detail = (
                f"{len(spec.stages)} stage(s)"
                if hasattr(spec, "stages")
                else spec.kind
            )
            lines.append(f"ok: {target} ({detail})")
        return lines

    # action == "run"
    if len(args.target) != 1:
        raise AnalysisError(
            "study run takes exactly one spec file or registered study name"
        )
    study_spec = _load_study_target(args.target[0])
    parallel = _positive_int_flag(args.parallel, "--parallel")
    runner = Study(study_spec, session=_session_from_args(args))
    result = runner.run(args.output_dir, parallel=parallel)
    if args.json:
        return [json.dumps(result.to_document(), indent=2, sort_keys=True)]
    lines = [result.render()]
    if args.output_dir is not None:
        lines.append(f"wrote {len(result.stages) + 1} file(s) to {args.output_dir}")
    return lines


def _command_studies(args: argparse.Namespace) -> List[str]:
    lines = []
    for name in list_studies():
        spec = get_study(name)
        lines.append(f"{name:<20} {len(spec.stages):>3} stage(s)  "
                     f"{spec.description}")
    return lines


def _command_verify(args: argparse.Namespace) -> List[str]:
    # Imported lazily: besides the surrogate searcher (`tune --searcher
    # surrogate`, `experiments --only dse`), the numerical check is the one
    # CLI path that needs numpy, and every other path must work without it.
    from .numerics.verify import verify_partition_equivalence

    config = get_model(args.model)
    report = verify_partition_equivalence(config, args.chips, rows=args.rows)
    status = "EXACT" if report.is_equivalent() else "MISMATCH"
    return [
        f"model={args.model} chips={args.chips} rows={args.rows}",
        f"  max |error|           : {report.max_abs_error:.3e}",
        f"  mean |error|          : {report.mean_abs_error:.3e}",
        f"  weights scattered once: {report.weights_scattered_exactly_once}",
        f"  verdict               : {status}",
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro`` command-line interface.

    Invalid input of any kind — unknown registry names, malformed spec
    documents, unreadable files, bad value combinations — exits with
    status 2 and a single ``error: ...`` line on stderr, matching the
    exit status argparse itself uses for unparseable flags.  Tracebacks
    are reserved for genuine bugs.
    """
    args = build_parser().parse_args(argv)
    try:
        lines = args.handler(args)
    except ReproError as error:
        message = " ".join(str(error).split())  # one line, however raised
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        print("\n".join(lines))
    except BrokenPipeError:
        # The consumer (e.g. `repro studies | head`) closed the pipe;
        # redirect stdout to devnull so the interpreter's final flush
        # cannot raise again, and exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
