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

Each evaluating command builds a :mod:`repro.spec` document from its
flags and runs it with :func:`repro.spec.execute` on a
:class:`repro.api.Session` — the path ``repro study run`` takes — so any
strategy added with :func:`repro.api.register_strategy` (or scheduling
policy added with :func:`repro.serving.register_policy`, fleet router
added with :func:`repro.fleet.register_router`, search algorithm
added with :func:`repro.dse.register_searcher`, objective added with
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
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from .analysis import figures
from .analysis.export import (
    check_sweep_path,
    comparison_to_json,
    eval_result_to_dict,
    eval_sweep_to_json,
    fleet_report_to_json,
    tune_result_to_json,
    write_sweep,
)
from .analysis.tables import energy_runtime_table, format_table, runtime_breakdown_table
from .api.registry import get_strategy, list_strategies
from .api.result import EvalResult
from .api.session import CacheInfo, EvalSweep, Session
from .api.strategies import BASELINE_STRATEGIES, PAPER_STRATEGY
from .core.placement import PrefetchAccounting
from .errors import AnalysisError, ConfigurationError, ReproError
from .graph.transformer import InferenceMode
from .models.registry import get_model, list_models
from .spec import (
    CompareSpec,
    EvalSpec,
    FleetSpec,
    ModelSpec,
    PlatformSpec,
    ServingSpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    WorkloadSpec,
    execute,
    get_study,
    list_studies,
)
from .units import format_bytes, format_energy, format_time


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI.

    Each subcommand's parser sets ``args.handler``, the function that
    turns its parsed arguments into the lines printed on stdout.
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
        subparser = subparsers.add_parser(name, help=summary, **kwargs)
        subparser.set_defaults(handler=handler)
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

    evaluate = command(
        "evaluate", _command_evaluate, "evaluate one Transformer block on a chip count"
    )
    _add_workload_arguments(evaluate)
    _add_strategy_argument(evaluate)
    evaluate.add_argument(
        "--chips", type=int, default=8, help="number of chips (default: 8)"
    )
    _add_json_argument(evaluate)

    sweep = command(
        "sweep", _command_sweep, "run a chip-count sweep and print the figure tables"
    )
    _add_workload_arguments(sweep)
    _add_strategy_argument(sweep)
    sweep.add_argument(
        "--chips",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="chip counts to sweep (default: 1 2 4 8)",
    )
    sweep.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="evaluate sweep points in N worker processes",
    )
    sweep.add_argument(
        "--output",
        type=str,
        default=None,
        help="optional export path (.csv or .json)",
    )
    _add_json_argument(sweep)

    compare = command(
        "compare",
        _command_compare,
        "strategy ablation on one chip count (Table I style)",
    )
    _add_workload_arguments(compare)
    compare.add_argument(
        "--chips", type=int, default=8, help="number of chips (default: 8)"
    )
    compare.add_argument(
        "--strategies",
        nargs="+",
        default=list(BASELINE_STRATEGIES),
        metavar="NAME",
        help=(
            "registered strategies to compare, in order "
            "(default: the Table I ablation)"
        ),
    )
    _add_json_argument(compare)

    serve = command(
        "serve",
        _command_serve,
        "request-level serving simulation (queueing + tail latency)",
    )
    _add_shared_flags(serve, "--model")
    serve.add_argument(
        "--chips", type=int, default=8, help="number of chips (default: 8)"
    )
    _add_strategy_argument(serve)
    serve.add_argument(
        "--policy",
        default="fifo",
        metavar="NAME",
        help="registered scheduling policy (default: fifo; see `repro policies`)",
    )
    serve.add_argument(
        "--trace",
        choices=["poisson", "bursty", "closed"],
        default="poisson",
        help="synthetic traffic generator (default: poisson)",
    )
    _add_shared_flags(serve, "--arrival-rate", "--burst-rate", "--duration")
    serve.add_argument(
        "--clients",
        type=int,
        default=8,
        help="client population for --trace closed (default: 8)",
    )
    serve.add_argument(
        "--requests-per-client",
        type=int,
        default=16,
        help="requests each closed-loop client submits (default: 16)",
    )
    serve.add_argument(
        "--think-time",
        type=float,
        default=1.0,
        metavar="S",
        help="mean closed-loop think time in seconds (default: 1)",
    )
    _add_shared_flags(
        serve,
        "--prompt-mean",
        "--output-mean",
        "--prompt-max",
        "--output-max",
        "--priority-levels",
        "--seed",
        "--replay",
    )
    serve.add_argument(
        "--save-trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write the materialised trace as replayable JSON",
    )
    _add_shared_flags(serve, "--slo-ttft")
    _add_json_argument(serve)

    fleet = command(
        "fleet",
        _command_fleet,
        "fleet-level serving across heterogeneous platform replicas",
        description=(
            "Simulate a fleet of serving platforms behind a routing policy: "
            "heterogeneous replica pools (repeat --platform), multi-tenant "
            "admission control (repeat --class), and an optional reactive "
            "autoscaler (--autoscale)."
        ),
    )
    _add_shared_flags(fleet, "--model")
    fleet.add_argument(
        "--platform",
        action="append",
        default=None,
        metavar="PRESET[:CHIPS][xN][@ROLE]",
        help=(
            "one platform entry: preset name, optional chip count, replica "
            "count, and role (any/prefill/decode), e.g. "
            "siracusa-mipi:8x2@prefill; repeatable (default: siracusa-mipi)"
        ),
    )
    fleet.add_argument(
        "--router",
        default="round_robin",
        metavar="NAME",
        help=(
            "registered routing policy (default: round_robin; "
            "see `repro routers`)"
        ),
    )
    fleet.add_argument(
        "--policy",
        default="fifo",
        metavar="NAME",
        help=(
            "per-replica scheduling policy (default: fifo; "
            "see `repro policies`)"
        ),
    )
    _add_strategy_argument(fleet)
    fleet.add_argument(
        "--trace",
        choices=["poisson", "bursty", "diurnal"],
        default="poisson",
        help=(
            "open-loop traffic generator (default: poisson; diurnal adds a "
            "day-long sinusoidal rate with optional spikes)"
        ),
    )
    _add_shared_flags(fleet, "--arrival-rate", "--burst-rate", "--duration")
    fleet.add_argument(
        "--amplitude",
        type=float,
        default=0.6,
        help="diurnal rate-swing amplitude in [0, 1] (default: 0.6)",
    )
    fleet.add_argument(
        "--period",
        type=float,
        default=86_400.0,
        metavar="S",
        help="diurnal period in seconds (default: 86400, one day)",
    )
    fleet.add_argument(
        "--phase",
        type=float,
        default=0.0,
        metavar="S",
        help="diurnal phase shift in seconds (default: 0)",
    )
    fleet.add_argument(
        "--spike-start",
        type=float,
        action="append",
        default=[],
        metavar="S",
        help="start one diurnal spike burst at this time (repeatable)",
    )
    fleet.add_argument(
        "--spike-duration",
        type=float,
        default=600.0,
        metavar="S",
        help="duration of each spike burst in seconds (default: 600)",
    )
    fleet.add_argument(
        "--spike-rate",
        type=float,
        default=None,
        metavar="RPS",
        help="extra arrival rate inside a spike (default: 2x base rate)",
    )
    _add_shared_flags(
        fleet,
        "--prompt-mean",
        "--output-mean",
        "--prompt-max",
        "--output-max",
        "--priority-levels",
    )
    fleet.add_argument(
        "--class",
        dest="slo_class",
        action="append",
        default=[],
        metavar="NAME[:RATE[:BURST[:SLO[:TIMEOUT]]]]",
        help=(
            "one multi-tenant SLO class: name, optional sustained admission "
            "rate in req/s, token-bucket burst, TTFT target in seconds, and "
            "per-class request timeout (overrides --retry's timeout), "
            "e.g. interactive:2:4:0.5; repeatable — a request's priority "
            "field indexes the class list in the given order"
        ),
    )
    fleet.add_argument(
        "--autoscale",
        nargs="?",
        const="siracusa-mipi",
        default=None,
        metavar="PRESET[:CHIPS]",
        help=(
            "enable the reactive autoscaler; added replicas use this "
            "platform preset (default preset: siracusa-mipi)"
        ),
    )
    fleet.add_argument(
        "--autoscale-max",
        type=int,
        default=4,
        metavar="N",
        help="most replicas the autoscaler may add (default: 4)",
    )
    fleet.add_argument(
        "--autoscale-interval",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds between autoscaler checks (default: 60)",
    )
    fleet.add_argument(
        "--autoscale-slo",
        type=float,
        default=None,
        metavar="S",
        help=(
            "TTFT target the autoscaler defends (scale up when windowed "
            "attainment drops below 95%%)"
        ),
    )
    fleet.add_argument(
        "--faults",
        action="append",
        default=[],
        metavar="EVENT",
        help=(
            "inject one fault: crash:REPLICA@START[+DURATION], "
            "slow:REPLICA@START+DURATIONxFACTOR, "
            "brownout@START+DURATIONxFACTOR, or random:MTBF[:MTTR[:HORIZON]] "
            "for a seeded random crash layer; repeatable"
        ),
    )
    fleet.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the random crash layer (default: 0)",
    )
    fleet.add_argument(
        "--retry",
        type=str,
        default=None,
        metavar="[TIMEOUT][:RETRIES[:BACKOFF[:HEDGE]]]",
        help=(
            "fail-over policy under faults: request timeout in seconds, "
            "retry budget after a crash, first-retry backoff in seconds, "
            "and hedge delay after which a second copy is dispatched, "
            "e.g. 30:3:0.5:2 (empty positions keep defaults)"
        ),
    )
    fleet.add_argument(
        "--shed-below",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "healthy-capacity fraction below which admission sheds "
            "low-priority classes (graceful degradation; default: off)"
        ),
    )
    fleet.add_argument(
        "--shed-keep",
        type=int,
        default=1,
        metavar="N",
        help=(
            "highest-priority SLO classes still admitted while degraded "
            "(default: 1)"
        ),
    )
    _add_shared_flags(fleet, "--seed", "--replay")
    fleet.add_argument(
        "--max-context",
        type=int,
        default=1024,
        metavar="TOKENS",
        help="serving context window of every replica (default: 1024)",
    )
    _add_shared_flags(fleet, "--slo-ttft")
    fleet.add_argument(
        "--record-threshold",
        type=int,
        default=None,
        metavar="N",
        help=(
            "switch from exact to streaming (histogram) latency percentiles "
            "above this many requests (default: 100000)"
        ),
    )
    _add_json_argument(fleet)

    tune = command(
        "tune",
        _command_tune,
        "design-space exploration (multi-objective platform search)",
    )
    _add_workload_arguments(tune)
    tune.add_argument(
        "--searcher",
        default="random",
        metavar="NAME",
        help=(
            "registered search algorithm (default: random; "
            "see `repro searchers`)"
        ),
    )
    tune.add_argument(
        "--budget",
        type=int,
        default=24,
        help="evaluation budget of the searcher (default: 24)",
    )
    tune.add_argument(
        "--seed",
        type=int,
        default=0,
        help="search seed; equal seeds give byte-identical output (default: 0)",
    )
    tune.add_argument(
        "--objectives",
        nargs="+",
        default=["latency", "energy", "hw_cost"],
        metavar="NAME",
        help=(
            "objectives of the Pareto front, in order "
            "(default: latency energy hw_cost; see `repro searchers`)"
        ),
    )
    tune.add_argument(
        "--constraint",
        action="append",
        default=[],
        metavar="EXPR",
        help="feasibility bound like 'latency<=0.01' or 'slo>=0.95' (repeatable)",
    )
    tune.add_argument(
        "--chips",
        type=int,
        nargs="+",
        default=None,
        help="chip-count choices of the space (default: 1 2 4 8)",
    )
    tune.add_argument(
        "--link-gbps",
        type=float,
        nargs="+",
        default=None,
        metavar="GBPS",
        help="C2C bandwidth levels in GB/s (default: 0.125 0.25 0.5 1 2)",
    )
    tune.add_argument(
        "--l2-kib",
        type=int,
        nargs="+",
        default=None,
        metavar="KIB",
        help="L2 capacity choices in KiB (default: 1024 2048 4096)",
    )
    tune.add_argument(
        "--freq-mhz",
        type=float,
        nargs="+",
        default=None,
        metavar="MHZ",
        help="cluster frequency levels in MHz (default: 300 500)",
    )
    tune.add_argument(
        "--strategies",
        nargs="+",
        default=None,
        metavar="NAME",
        help="strategy choices of the space (default: paper)",
    )
    tune.add_argument(
        "--parallel",
        default=None,
        metavar="N",
        help=(
            "evaluate candidate batches in N worker processes; output is "
            "byte-identical to --parallel 1 (default: serial)"
        ),
    )
    tune.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "write a resumable search checkpoint here every "
            "--checkpoint-every unique evaluations and on completion"
        ),
    )
    tune.add_argument(
        "--checkpoint-every",
        default=None,
        metavar="N",
        help=(
            "checkpoint cadence in unique evaluations "
            "(default: 25; needs --checkpoint)"
        ),
    )
    tune.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume from a checkpoint written by an earlier interrupted "
            "run; the finished search is byte-identical to an "
            "uninterrupted one"
        ),
    )
    _add_json_argument(tune)

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
    _add_json_argument(study)

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

    # The cache flags are accepted both before the subcommand (the global
    # position) and after it, where most users type them.
    for evaluating in (
        evaluate, sweep, compare, serve, fleet, tune, experiments, cache,
        study,
    ):
        _add_cache_arguments(evaluating, suppress=True)

    # Every spec-expressible command can print its invocation as a
    # replayable spec document instead of running it.
    for emitting in (
        evaluate, sweep, compare, serve, fleet, tune, experiments,
    ):
        emitting.add_argument(
            "--emit-spec",
            action="store_true",
            help=(
                "print this invocation as a replayable repro.spec JSON "
                "document (see `repro study run`) instead of executing it"
            ),
        )

    return parser


#: Flags that ``serve`` and ``fleet`` (and, for ``--model``, every
#: workload command) declare verbatim, registered from this one table;
#: each command adds them where its ``--help`` lists them.
_SHARED_FLAGS = {
    "--model": dict(
        default="tinyllama-42m",
        help="registered model name (see `repro models`)",
    ),
    "--arrival-rate": dict(
        type=float,
        default=2.0,
        metavar="RPS",
        help="mean arrival rate in requests/s (default: 2)",
    ),
    "--burst-rate": dict(
        type=float,
        default=None,
        metavar="RPS",
        help="burst-state arrival rate for --trace bursty (default: 4x base)",
    ),
    "--duration": dict(
        type=float,
        default=300.0,
        metavar="S",
        help="arrival horizon in seconds (default: 300)",
    ),
    "--prompt-mean": dict(
        type=float,
        default=64.0,
        help="mean prompt length in tokens (default: 64)",
    ),
    "--output-mean": dict(
        type=float,
        default=32.0,
        help="mean reply length in tokens (default: 32)",
    ),
    "--prompt-max": dict(
        type=int,
        default=256,
        help="largest sampled prompt length (default: 256)",
    ),
    "--output-max": dict(
        type=int,
        default=128,
        help="largest sampled reply length (default: 128)",
    ),
    "--priority-levels": dict(
        type=int,
        default=1,
        help="uniform priority classes assigned by the trace (default: 1)",
    ),
    # ``None`` (not 0) so that an explicit --seed beside --replay is caught.
    "--seed": dict(
        type=int,
        default=None,
        metavar="N",
        help=(
            "trace seed; equal seeds give byte-identical output "
            "(default: 0; meaningless with --replay)"
        ),
    ),
    "--replay": dict(
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "replay a recorded JSON trace verbatim instead of generating "
            "one (the generator flags and --seed do not apply)"
        ),
    ),
    "--slo-ttft": dict(
        type=float,
        nargs="+",
        default=None,
        metavar="S",
        help="TTFT targets of the SLO-attainment curve (default: standard grid)",
    ),
}


def _add_shared_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    _add_shared_flags(parser, "--model")
    parser.add_argument(
        "--mode",
        choices=[mode.value for mode in InferenceMode],
        default=InferenceMode.AUTOREGRESSIVE.value,
        help="inference mode (default: autoregressive)",
    )
    parser.add_argument(
        "--seq-len",
        type=int,
        default=None,
        help="sequence/context length (default: the paper's value per mode)",
    )
    parser.add_argument(
        "--prefetch",
        choices=[policy.value for policy in PrefetchAccounting],
        default=PrefetchAccounting.HIDDEN.value,
        help="prefetch runtime accounting policy (default: hidden)",
    )


def _add_strategy_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        default=PAPER_STRATEGY,
        metavar="NAME",
        help=(
            "registered partitioning strategy (default: paper; "
            "see `repro strategies`)"
        ),
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON document instead of the tables",
    )


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
    """A session honouring the prefetch and persistent-cache flags.

    CLI sessions persist evaluations on disk by default, so a repeated
    invocation in a fresh process reuses every warm result instead of
    re-simulating it.
    """
    prefetch = PrefetchAccounting(
        getattr(args, "prefetch", PrefetchAccounting.HIDDEN.value)
    )
    if getattr(args, "no_cache", False):
        return Session(prefetch_accounting=prefetch, persistent=False)
    return Session(
        prefetch_accounting=prefetch,
        cache_dir=getattr(args, "cache_dir", None),
        persistent=True,
    )


# ----------------------------------------------------------------------
# Invocation -> spec capture (--emit-spec and the execution path)
# ----------------------------------------------------------------------
def _workload_spec_from_args(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        model=ModelSpec(name=args.model),
        mode=args.mode,
        seq_len=args.seq_len,
    )


def _evaluate_spec_from_args(args: argparse.Namespace) -> EvalSpec:
    return EvalSpec(
        workload=_workload_spec_from_args(args),
        strategy=args.strategy,
        platform=PlatformSpec(chips=args.chips),
        prefetch=args.prefetch,
    )


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        workload=_workload_spec_from_args(args),
        chips=tuple(args.chips),
        strategy=args.strategy,
        parallel=args.parallel,
        prefetch=args.prefetch,
    )


def _compare_spec_from_args(args: argparse.Namespace) -> CompareSpec:
    return CompareSpec(
        workload=_workload_spec_from_args(args),
        strategies=tuple(args.strategies),
        platform=PlatformSpec(chips=args.chips),
        prefetch=args.prefetch,
    )


#: The :class:`TraceSpec` field each generator flag sets; a field whose
#: flag the command lacks (``serve`` has no diurnal shape, ``fleet`` no
#: closed loop) keeps its default.
_TRACE_FIELDS = {
    "trace": "source",
    "arrival_rate": "rate_rps",
    "duration": "duration_s",
    "burst_rate": "burst_rate_rps",
    "clients": "clients",
    "requests_per_client": "requests_per_client",
    "think_time": "mean_think_s",
    "amplitude": "amplitude",
    "period": "period_s",
    "phase": "phase_s",
    "spike_start": "spike_starts_s",
    "spike_duration": "spike_duration_s",
    "spike_rate": "spike_rate_rps",
    "prompt_mean": "prompt_mean",
    "output_mean": "output_mean",
    "prompt_max": "prompt_max",
    "output_max": "output_max",
    "priority_levels": "priority_levels",
}


def _trace_spec_from_args(args: argparse.Namespace) -> TraceSpec:
    """The ``serve``/``fleet`` traffic trace: a replay or a generator."""
    if args.replay is not None:
        if args.seed is not None:
            raise AnalysisError(
                "--seed has no effect with --replay (the trace is replayed "
                "verbatim); drop one of the two flags"
            )
        return TraceSpec(source="replay", path=args.replay)
    return TraceSpec(
        **{
            field: getattr(args, flag)
            for flag, field in _TRACE_FIELDS.items()
            if hasattr(args, flag)
        }
    )


def _serve_spec_from_args(args: argparse.Namespace) -> ServingSpec:
    return ServingSpec(
        model=ModelSpec(name=args.model),
        trace=_trace_spec_from_args(args),
        policy=args.policy,
        strategy=args.strategy,
        platform=PlatformSpec(chips=args.chips),
        seed=args.seed if args.seed is not None else 0,
        slo_targets=tuple(args.slo_ttft) if args.slo_ttft is not None else None,
    )


def _fleet_spec_from_args(args: argparse.Namespace) -> FleetSpec:
    trace = _trace_spec_from_args(args)
    from .fleet import (
        AutoscalerConfig,
        FaultModel,
        FleetPlatform,
        RetryPolicy,
        SLOClass,
    )

    # Parse the shorthands directly: a CLI flag error should not carry the
    # spec-document path that from_dict prefixes.  A malformed value raises
    # ConfigurationError, which main() reports as one `error:` line.
    entries = args.platform if args.platform else ["siracusa-mipi"]
    return FleetSpec(
        model=ModelSpec(name=args.model),
        trace=trace,
        platforms=tuple(FleetPlatform.parse(entry) for entry in entries),
        router=args.router,
        policy=args.policy,
        strategy=args.strategy,
        # A request's priority field indexes the --class list.
        classes=tuple(
            SLOClass.parse(text, priority=index)
            for index, text in enumerate(args.slo_class)
        ),
        autoscaler=(
            AutoscalerConfig.parse(
                args.autoscale,
                max_extra=args.autoscale_max,
                check_interval_s=args.autoscale_interval,
                ttft_slo_s=args.autoscale_slo,
            )
            if args.autoscale is not None
            else None
        ),
        faults=(
            FaultModel.parse(
                args.faults,
                seed=args.fault_seed,
                shed_below=args.shed_below,
                shed_keep=args.shed_keep,
            )
            if args.faults or args.shed_below is not None
            else None
        ),
        retry=RetryPolicy.parse(args.retry) if args.retry is not None else None,
        seed=args.seed if args.seed is not None else 0,
        max_context=args.max_context,
        slo_targets=tuple(args.slo_ttft) if args.slo_ttft is not None else None,
        record_threshold=args.record_threshold,
    )


def _tune_spec_from_args(args: argparse.Namespace) -> TuneSpec:
    from .dse.pareto import parse_constraint
    from .spec import AxisSpec, SpaceSpec

    for expr in args.constraint:
        parse_constraint(expr)  # a bad bound fails before any spec is printed
    chips = tuple(args.chips) if args.chips else (1, 2, 4, 8)
    link = (
        tuple(args.link_gbps) if args.link_gbps
        else (0.125, 0.25, 0.5, 1.0, 2.0)
    )
    l2 = tuple(args.l2_kib) if args.l2_kib else (1024, 2048, 4096)
    freq = tuple(args.freq_mhz) if args.freq_mhz else (300.0, 500.0)
    strategies = tuple(args.strategies) if args.strategies else ("paper",)
    space = SpaceSpec(
        axes=(
            AxisSpec(axis="choice", name="chips", choices=chips),
            AxisSpec(
                axis="float",
                name="link_gbps",
                low=min(link),
                high=max(link),
                levels=link,
            ),
            AxisSpec(axis="choice", name="l2_kib", choices=l2),
            AxisSpec(
                axis="float",
                name="freq_mhz",
                low=min(freq),
                high=max(freq),
                levels=freq,
            ),
            AxisSpec(axis="choice", name="strategy", choices=strategies),
        )
    )
    space.validate("$.space")  # a value that can never run fails here
    return TuneSpec(
        workload=_workload_spec_from_args(args),
        space=space,
        searcher=args.searcher,
        budget=args.budget,
        seed=args.seed,
        objectives=tuple(args.objectives),
        constraints=tuple(args.constraint),
        prefetch=args.prefetch,
    )


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


def _command_strategies(args: argparse.Namespace) -> List[str]:
    lines = []
    for name in list_strategies():
        strategy = get_strategy(name)
        lines.append(f"{name:<20} {strategy.label}")
    return lines


def _command_policies(args: argparse.Namespace) -> List[str]:
    from .serving import get_policy, list_policies

    lines = []
    for name in list_policies():
        policy = get_policy(name)
        lines.append(f"{name:<20} {policy.label}")
    return lines


def _command_routers(args: argparse.Namespace) -> List[str]:
    from .fleet import list_routers, router_label

    lines = []
    for name in list_routers():
        lines.append(f"{name:<20} {router_label(name)}")
    return lines


def _command_platforms(args: argparse.Namespace) -> List[str]:
    from .hw.presets import get_platform_preset, list_platform_presets

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

    lines = []
    for name in list_searchers():
        searcher = get_searcher(name)
        lines.append(f"{name:<20} {searcher.label}")
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
        _evaluate_spec_from_args(args),
        lambda result, cache: json.dumps(
            eval_result_to_dict(result), indent=2, sort_keys=True
        ),
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
    spec = _sweep_spec_from_args(args)
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
        text = eval_sweep_to_json(sweep, cache=cache)
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
            if args.output:
                write_sweep(sweep, args.output)
                lines.append(f"wrote {args.output}")
        else:
            lines.append(_strategy_sweep_table(sweep))
            if args.output:
                lines.append(
                    "export is only supported for simulator-backed strategies "
                    f"(strategy {sweep.strategy!r} is analytical)"
                )
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
        _compare_spec_from_args(args),
        lambda comparison, cache: comparison_to_json(comparison),
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
        _serve_spec_from_args(args),
        to_json,
        lambda report: [report.render()] + saved(report),
    )


def _command_fleet(args: argparse.Namespace) -> List[str]:
    return _run_spec(
        args,
        _fleet_spec_from_args(args),
        lambda report, cache: fleet_report_to_json(report, cache=cache),
        lambda report: [report.render()],
    )


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
    spec = _tune_spec_from_args(args)
    parallel = _positive_int_flag(args.parallel, "--parallel")
    checkpoint = _checkpoint_path_flag(args.checkpoint, "--checkpoint")
    checkpoint_every = _positive_int_flag(
        args.checkpoint_every, "--checkpoint-every"
    )
    resume = _checkpoint_path_flag(args.resume, "--resume")
    if checkpoint_every is not None and checkpoint is None:
        raise ConfigurationError(
            "--checkpoint-every needs --checkpoint to set where "
            "checkpoints are written"
        )
    # The pool width and cadence are spec fields (and so reach
    # --emit-spec); where checkpoints are written and read is not.
    return _run_spec(
        args,
        replace(spec, parallel=parallel, checkpoint_every=checkpoint_every),
        lambda result, cache: tune_result_to_json(result),
        lambda result: [result.render()],
        checkpoint=checkpoint,
        resume=resume,
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
    # Imported lazily: the numerical check is the only CLI path that
    # needs numpy, and every other subcommand must work without it.
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
