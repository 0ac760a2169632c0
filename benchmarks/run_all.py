#!/usr/bin/env python
"""Run the performance bench suite and write a single ``BENCH.json``.

This is the perf trajectory tracker: every bench reports its wall time
plus its key throughput metrics, and the aggregated document lands in
``BENCH.json`` (committed at the repo root, regenerated by this script)
so regressions are visible in review diffs from this PR onward.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full suite
    PYTHONPATH=src python benchmarks/run_all.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/run_all.py --check    # enforce floors

A full run writes ``BENCH.json`` unless ``--output`` names another file;
a ``--smoke`` run writes a file only where ``--output`` (or
``--per-commit``) says, so its numbers never replace the committed ones.

Cold-start benches (the figure harnesses, the cold/warm sweep pair) run
in subprocesses so that in-process warm caches cannot flatter them; each
child times only its evaluation phase, excluding interpreter start-up
and imports.  ``--check`` turns the summary into assertions with
deliberately generous thresholds (see ``CHECKS``) so CI fails on real
regressions, not scheduler noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_module
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
#: Holds ``sim_oracle``, the event-engine oracle the fast path is timed against.
TESTS = REPO_ROOT / "tests"
for _path in (TESTS, SRC):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: Generous regression floors enforced by ``--check``.  They are not
#: targets: the measured numbers should be far better (see BENCH.json);
#: the floors only exist to catch order-of-magnitude regressions in CI.
CHECKS = {
    # Session.run wrapper overhead over a direct evaluate_block call.
    "session_overhead_frac_max": 0.20,
    # Fast-path simulator vs the event-engine oracle on one block program.
    "sim_fastpath_speedup_min": 2.0,
    # End-to-end Fig. 6 regeneration, fast path vs the installed oracle.
    "fig6_fastpath_speedup_min": 1.3,
    # Second-process sweep on a warm persistent cache vs a cold one.
    "warm_sweep_speedup_min": 5.0,
    # Fleet event loop: sustained arrivals per wall-clock second.
    "fleet_requests_per_s_min": 2000.0,
    # The same loop under the seeded crash layer + retries/hedging/
    # shedding: the resilience machinery must stay within the same
    # order of magnitude as the fault-free path.
    "fleet_faulted_requests_per_s_min": 1500.0,
    # Declarative zoo: ArchSpec JSON round-trip + lowering to a config.
    "zoo_spec_builds_per_s_min": 200.0,
    # 4-worker DSE orchestrator vs a serial tune of the same grid, both
    # in fresh processes.  Only enforced on runners with >= 4 CPUs; on
    # fewer cores the workers time-share and the ratio is meaningless.
    "dse_parallel_speedup_min": 3.0,
    # Absolute floor on parallel orchestrator throughput, enforced on
    # any core count (event-engine oracle, 64-chip designs).
    "dse_parallel_evals_per_s_min": 5.0,
}


def _child_env() -> dict:
    env = dict(os.environ)
    paths = (str(SRC), str(TESTS), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return env


#: Prepended to a child's code to run it on the event-engine oracle.  It
#: patches ``simulate_block`` before any worker pool forks, so the
#: workers simulate on the oracle too.
_ORACLE = "import sim_oracle\nsim_oracle.install()\n"


def _run_child(code: str, args: tuple = (), pythonpath: str = None) -> dict:
    """Run ``code`` in a fresh interpreter and parse its JSON stdout."""
    env = _child_env()
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    if completed.returncode != 0:
        # Surface the child's traceback; a bare CalledProcessError makes
        # CI gating failures undiagnosable.
        sys.stderr.write(completed.stderr)
        raise RuntimeError(
            f"bench child exited with status {completed.returncode}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------
_FIG6_CHILD = """
import json, time
from repro.api import Study
from repro.spec import get_study
start = time.perf_counter()
result = Study(get_study("fig6")).run()
wall = time.perf_counter() - start
autoregressive = result.stage("autoregressive").result
print(json.dumps({
    "wall_s": wall,
    "speedup_64_autoregressive": autoregressive.speedups()[64],
    "chip_counts": sum(len(stage.result.results) for stage in result.stages),
}))
"""


def bench_fig6(record, mode):
    """Fig. 6 cold regeneration: the fast path vs the event-engine oracle."""
    fast = _run_child(_FIG6_CHILD)
    event = _run_child(_ORACLE + _FIG6_CHILD)
    record(
        "fig6_scalability",
        wall_s=fast["wall_s"],
        metrics={
            "chip_count_evaluations": fast["chip_counts"],
            "speedup_64_autoregressive": fast["speedup_64_autoregressive"],
            "evaluations_per_s": fast["chip_counts"] / fast["wall_s"],
        },
    )
    record(
        "fig6_scalability_event_engine",
        wall_s=event["wall_s"],
        metrics={"evaluations_per_s": event["chip_counts"] / event["wall_s"]},
    )
    return event["wall_s"] / fast["wall_s"]


def bench_fig6_git_baseline(record, ref):
    """Fig. 6 cold wall time at another git revision, for A/B context.

    Checks ``ref`` out into a throwaway worktree and runs the same child
    there, so BENCH.json can carry an apples-to-apples baseline (e.g.
    the commit this PR started from).
    """
    worktree = tempfile.mkdtemp(prefix="repro-bench-baseline-")
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", worktree, ref],
            cwd=str(REPO_ROOT),
            check=True,
            capture_output=True,
        )
        baseline = _run_child(
            _FIG6_CHILD, pythonpath=str(Path(worktree) / "src")
        )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", worktree],
            cwd=str(REPO_ROOT),
            capture_output=True,
        )
        shutil.rmtree(worktree, ignore_errors=True)
    record(
        f"fig6_scalability_at_{ref}",
        wall_s=baseline["wall_s"],
        metrics={
            "git_ref": ref,
            "evaluations_per_s": (
                baseline["chip_counts"] / baseline["wall_s"]
            ),
        },
    )
    return baseline["wall_s"]


def bench_sim_engines(record, mode):
    """Pure simulator comparison on one large scheduled program."""
    from repro.core.scheduler import BlockScheduler
    from repro.graph.workload import autoregressive
    from repro.hw.presets import siracusa_platform
    from repro.models import tinyllama_scaled
    from repro.sim import simulate_block
    from sim_oracle import MultiChipSimulator

    iterations = 10 if mode == "smoke" else 50
    program = BlockScheduler(platform=siracusa_platform(64)).build(
        autoregressive(tinyllama_scaled(), 128)
    )
    steps = sum(
        schedule.num_steps for schedule in program.schedules.values()
    )
    # Warm both paths once before timing.
    MultiChipSimulator(program=program).run()
    simulate_block(program)
    start = time.perf_counter()
    for _ in range(iterations):
        MultiChipSimulator(program=program).run()
    event_s = (time.perf_counter() - start) / iterations
    start = time.perf_counter()
    for _ in range(iterations):
        simulate_block(program)
    fast_s = (time.perf_counter() - start) / iterations
    record(
        "block_sim_64chip",
        wall_s=fast_s * iterations,
        metrics={
            "program_steps": steps,
            "fast_ms_per_block": fast_s * 1e3,
            "event_ms_per_block": event_s * 1e3,
            "steps_per_s_fast": steps / fast_s,
            "speedup_vs_event_engine": event_s / fast_s,
        },
    )
    return event_s / fast_s


def bench_session_overhead(record, mode):
    """The Session wrapper must stay close to free (see the pytest bench)."""
    from repro.analysis.evaluate import evaluate_block
    from repro.api import Session
    from repro.graph.workload import autoregressive
    from repro.hw.presets import siracusa_platform
    from repro.models import tinyllama_42m

    batch = 6 if mode == "smoke" else 10
    repeats = 7 if mode == "smoke" else 11
    workload = autoregressive(tinyllama_42m(), 128)
    platform = siracusa_platform(8)
    session = Session(memoize=False)
    evaluate_block(workload, platform)
    session.run(workload, platform=platform)

    def batch_seconds(call):
        start = time.perf_counter()
        for _ in range(batch):
            call()
        return time.perf_counter() - start

    # Direct and wrapped batches alternate, so contention that starts
    # mid-run slows both sides.  The minimum over each side's batches
    # estimates its noise-free cost (median is still skewed by scheduler
    # preemption on CI boxes).
    start = time.perf_counter()
    direct_times, wrapped_times = [], []
    for _ in range(repeats):
        direct_times.append(batch_seconds(lambda: evaluate_block(workload, platform)))
        wrapped_times.append(
            batch_seconds(lambda: session.run(workload, platform=platform))
        )
    direct, wrapped = min(direct_times), min(wrapped_times)
    overhead = wrapped / direct - 1.0
    record(
        "session_overhead",
        wall_s=time.perf_counter() - start,
        metrics={
            "direct_ms_per_eval": direct / batch * 1e3,
            "session_ms_per_eval": wrapped / batch * 1e3,
            "overhead_frac": overhead,
        },
    )
    return overhead


_SWEEP_CHILD = """
import json, sys, time
from repro.api import Session
from repro.graph.workload import autoregressive, prompt
from repro.models import tinyllama_scaled

session = Session(cache_dir=sys.argv[1])
chips = (1, 2, 4, 8, 16, 24, 32, 48, 64)
config = tinyllama_scaled()
workloads = [autoregressive(config, context) for context in (64, 128, 512)]
workloads += [prompt(config, length) for length in (16, 64, 256)]
start = time.perf_counter()
for workload in workloads:
    session.sweep(workload, chips)
wall = time.perf_counter() - start
info = session.cache_info()
print(json.dumps({"wall_s": wall, "misses": info.misses,
                  "disk_hits": info.disk_hits}))
"""


#: Cold/warm child pairs of the persistent-sweep bench.  A warm child's
#: sweep lasts only ~10-20 ms, so one pair's ratio is at the mercy of the
#: scheduler; the gate reads the median pair.
SWEEP_PAIRS = 7


def bench_persistent_sweep(record, mode):
    """Cold vs warm second-process sweep through the persistent cache.

    Each pair runs a cold child on a fresh store and then a warm child on
    the store it filled; the speedup is the median of the pairs' ratios.
    """
    colds, warms = [], []
    for _ in range(SWEEP_PAIRS):
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            cold = _run_child(_SWEEP_CHILD, args=(cache_dir,))
            warm = _run_child(_SWEEP_CHILD, args=(cache_dir,))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        assert cold["misses"] > 0 and warm["misses"] == 0, (
            "warm sweep unexpectedly ran the engine: "
            f"cold={cold}, warm={warm}"
        )
        colds.append(cold)
        warms.append(warm)
    speedup = statistics.median(
        cold["wall_s"] / warm["wall_s"] for cold, warm in zip(colds, warms)
    )
    cold_s = statistics.median(cold["wall_s"] for cold in colds)
    warm_s = statistics.median(warm["wall_s"] for warm in warms)
    record(
        "sweep_cold_process",
        wall_s=cold_s,
        metrics={
            "engine_runs": cold["misses"],
            "evaluations_per_s": cold["misses"] / cold_s,
        },
    )
    record(
        "sweep_warm_process",
        wall_s=warm_s,
        metrics={
            "engine_runs": warm["misses"],
            "disk_hits": warm["disk_hits"],
            "speedup_vs_cold": speedup,
            "pairs": SWEEP_PAIRS,
        },
    )
    return speedup


def bench_serving(record, mode):
    """Request-level serving throughput (full mode only)."""
    from repro.api import Session
    from repro.models import tinyllama_42m
    from repro.serving import PoissonTrace

    session = Session()
    trace = PoissonTrace(rate_rps=4.0, duration_s=120.0)
    start = time.perf_counter()
    report = session.serve(tinyllama_42m(), trace, chips=8, seed=0)
    wall = time.perf_counter() - start
    record(
        "serving_poisson_120s",
        wall_s=wall,
        metrics={
            "requests": len(report.result.records),
            "requests_simulated_per_s": len(report.result.records) / wall,
            "p99_ttft_s": report.metrics.ttft.p99,
        },
    )


def bench_fleet(record, mode):
    """Fleet-level serving throughput over the diurnal day trace.

    Full mode streams the ~1.1M-request simulated day of
    ``bench_fleet.py``; smoke mode serves its 30-virtual-minute slice.
    Either way the recorded metric is sustained arrivals per wall-clock
    second through routing, admission, and the per-replica engines.
    """
    import bench_fleet as fleet_bench

    metrics = fleet_bench.run(mode if mode == "smoke" else "full")
    record(
        "fleet_diurnal_day" if mode == "full" else "fleet_diurnal_smoke",
        wall_s=metrics["wall_s"],
        metrics={
            "replicas": metrics["replicas"],
            "requests": metrics["requests"],
            "requests_per_s": metrics["requests_per_s"],
            "realtime_speedup": metrics["realtime_speedup"],
            "approximate_percentiles": metrics["approximate_percentiles"],
            "p99_ttft_s": metrics["p99_ttft_s"],
        },
    )
    return metrics["requests_per_s"]


def bench_fleet_faulted(record, mode):
    """The fleet loop under the seeded crash layer (always smoke-sized).

    The fault variant prices the resilience machinery — failover,
    retries, hedged dispatch, shedding — under sustained replica churn.
    It runs the 30-virtual-minute slice in both modes: the overhead
    ratio is what the floor guards, and that is horizon-independent.
    """
    import bench_fleet as fleet_bench

    metrics = fleet_bench.run("smoke", faulted=True)
    record(
        "fleet_diurnal_smoke_faulted",
        wall_s=metrics["wall_s"],
        metrics={
            "replicas": metrics["replicas"],
            "requests": metrics["requests"],
            "requests_per_s": metrics["requests_per_s"],
            "crashes": metrics["crashes"],
            "retries": metrics["retries"],
            "shed": metrics["shed"],
            "hedges": metrics["hedges"],
            "goodput_rps": metrics["goodput_rps"],
            "unavailable_s": metrics["unavailable_s"],
        },
    )
    return metrics["requests_per_s"]


def bench_model_zoo(record, mode):
    """Declarative zoo: spec decoding + lowering, then one evaluation.

    The build loop times the full declarative path — shipped JSON text to
    ``ArchSpec`` to ``TransformerConfig`` — for every shipped model; the
    evaluation then runs the GQA+MoE decoder through the paper strategy
    so architecture generality cannot silently slow the hot path.
    """
    from repro.api import Session
    from repro.arch.zoo import SHIPPED_DIR
    from repro.graph.workload import autoregressive
    from repro.hw.presets import siracusa_platform
    from repro.models.registry import get_model
    from repro.spec.specs import loads

    iterations = 5 if mode == "smoke" else 20
    texts = [path.read_text() for path in sorted(SHIPPED_DIR.glob("*.json"))]
    for text in texts:
        loads(text).build()  # warm the registries and lazy imports
    start = time.perf_counter()
    for _ in range(iterations):
        for text in texts:
            loads(text).build()
    build_wall = time.perf_counter() - start
    builds = iterations * len(texts)

    session = Session(memoize=False)
    workload = autoregressive(get_model("gqa-moe-tiny"), 128)
    platform = siracusa_platform(4)
    session.run(workload, platform=platform)  # warm
    evals = 3 if mode == "smoke" else 10
    start = time.perf_counter()
    for _ in range(evals):
        session.run(workload, platform=platform)
    eval_wall = time.perf_counter() - start
    record(
        "model_zoo_build_eval",
        wall_s=build_wall + eval_wall,
        metrics={
            "zoo_entries": len(texts),
            "spec_builds_per_s": builds / build_wall,
            "gqa_moe_eval_ms": eval_wall / evals * 1e3,
        },
    )
    return builds / build_wall


def bench_dse(record, mode):
    """Design-space exploration tuning run (full mode only)."""
    from repro.api import Session
    from repro.graph.workload import autoregressive
    from repro.models import tinyllama_42m

    session = Session()
    start = time.perf_counter()
    result = session.tune(
        autoregressive(tinyllama_42m(), 128),
        budget=24,
        seed=0,
        searcher="random",
        objectives=("latency", "energy", "hw_cost"),
    )
    wall = time.perf_counter() - start
    record(
        "dse_random_budget24",
        wall_s=wall,
        metrics={
            "evaluations": result.cache.misses,
            "front_size": len(result.front),
            "points_per_s": result.cache.misses / wall if wall else 0.0,
        },
    )


_DSE_PARALLEL_CHILD = """
import json, sys, time
from repro.api import Session
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace
from repro.graph.workload import autoregressive
from repro.models.registry import get_model

workers, budget = int(sys.argv[1]), int(sys.argv[2])
# The heaviest feasible evaluations: the 64-head scalability model on 64
# chips under the event-engine oracle (which the parent installs), so the
# engine dominates and worker fan-out has something real to parallelise.
space = SearchSpace((
    ChoiceAxis("chips", (64,)),
    FloatAxis("link_gbps", 0.125, 1.0, levels=(0.125, 0.25, 0.5, 1.0)),
    ChoiceAxis("l2_kib", (1024, 2048, 4096, 8192)),
    FloatAxis("freq_mhz", 200.0, 500.0, levels=(200.0, 300.0, 400.0, 500.0)),
    FloatAxis("link_pj_per_byte", 50.0, 200.0, levels=(50.0, 100.0, 200.0)),
    ChoiceAxis("strategy", ("paper", "tensor_parallel")),
))
workload = autoregressive(get_model("tinyllama-42m-64h"), 2048)
session = Session(cache_dir=None)  # no disk store: every point pays the engine
start = time.perf_counter()
result = session.tune(
    workload,
    space,
    searcher="grid",
    budget=budget,
    seed=0,
    objectives=("latency", "energy"),
    parallel=workers if workers > 1 else None,
)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "evaluations": len(result.candidates),
    "front_size": len(result.front),
}))
"""


def bench_dse_parallel(record, mode):
    """Parallel DSE orchestrator throughput vs the serial baseline.

    Serial and 4-worker tunes of the same grid run in fresh child
    processes (cold in-memory caches, no persistent store), so the
    measured ratio is pure orchestrator fan-out.  Returns
    ``(speedup, parallel evals/s, cpus)``; the 3x regression floor is
    enforced only on runners with at least 4 CPUs — on fewer cores the
    workers time-share and the honest ratio is recorded instead.
    """
    cpus = os.cpu_count() or 1
    budget = 192 if mode == "smoke" else 384
    child = _ORACLE + _DSE_PARALLEL_CHILD
    serial = _run_child(child, args=("1", str(budget)))
    parallel = _run_child(child, args=("4", str(budget)))
    speedup = serial["wall_s"] / parallel["wall_s"]
    evals_per_s = parallel["evaluations"] / parallel["wall_s"]
    record(
        "dse_parallel_grid",
        wall_s=serial["wall_s"] + parallel["wall_s"],
        metrics={
            "budget": budget,
            "cpus": cpus,
            "serial_wall_s": round(serial["wall_s"], 6),
            "parallel_wall_s": round(parallel["wall_s"], 6),
            "serial_evals_per_s": round(
                serial["evaluations"] / serial["wall_s"], 3
            ),
            "parallel_evals_per_s": round(evals_per_s, 3),
            "speedup": round(speedup, 3),
        },
    )
    return speedup, evals_per_s, cpus


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_suite(mode: str, git_baseline: str = None) -> dict:
    benches: dict = {}

    def record(name, *, wall_s, metrics):
        benches[name] = {
            "wall_s": round(wall_s, 6),
            "metrics": {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in metrics.items()
            },
        }
        print(f"  {name:<32} {wall_s * 1e3:9.1f} ms")

    print(f"repro bench suite ({mode} mode)")
    fig6_speedup = bench_fig6(record, mode)
    sim_speedup = bench_sim_engines(record, mode)
    overhead = bench_session_overhead(record, mode)
    warm_speedup = bench_persistent_sweep(record, mode)
    fleet_rps = bench_fleet(record, mode)
    faulted_rps = bench_fleet_faulted(record, mode)
    zoo_builds = bench_model_zoo(record, mode)
    dse_speedup, dse_evals_per_s, dse_cpus = bench_dse_parallel(record, mode)
    if mode == "full":
        bench_serving(record, mode)
        bench_dse(record, mode)

    summary = {
        "fig6_fastpath_speedup_vs_event_engine": round(fig6_speedup, 3),
        "sim_fastpath_speedup_vs_event_engine": round(sim_speedup, 3),
        "session_overhead_frac": round(overhead, 4),
        "warm_sweep_speedup_vs_cold_process": round(warm_speedup, 3),
        "fleet_requests_per_s": round(fleet_rps, 3),
        "fleet_faulted_requests_per_s": round(faulted_rps, 3),
        "zoo_spec_builds_per_s": round(zoo_builds, 3),
        "dse_parallel_speedup": round(dse_speedup, 3),
        "dse_parallel_evals_per_s": round(dse_evals_per_s, 3),
        "dse_parallel_cpus": dse_cpus,
    }
    if git_baseline:
        baseline_s = bench_fig6_git_baseline(record, git_baseline)
        summary["fig6_speedup_vs_git_baseline"] = round(
            baseline_s / benches["fig6_scalability"]["wall_s"], 3
        )
    return {
        "schema": 1,
        "mode": mode,
        "generated_by": "benchmarks/run_all.py",
        "python": platform_module.python_version(),
        "machine": platform_module.machine(),
        "benches": benches,
        "summary": summary,
    }


def check(document: dict) -> list:
    """Apply the generous regression floors; returns failure messages."""
    summary = document["summary"]
    failures = []
    if summary["session_overhead_frac"] > CHECKS["session_overhead_frac_max"]:
        failures.append(
            f"Session overhead {summary['session_overhead_frac']:.1%} exceeds "
            f"the {CHECKS['session_overhead_frac_max']:.0%} regression floor"
        )
    pairs = [
        ("sim_fastpath_speedup_vs_event_engine", "sim_fastpath_speedup_min"),
        ("fig6_fastpath_speedup_vs_event_engine", "fig6_fastpath_speedup_min"),
        ("warm_sweep_speedup_vs_cold_process", "warm_sweep_speedup_min"),
    ]
    for metric, floor in pairs:
        if summary[metric] < CHECKS[floor]:
            failures.append(
                f"{metric} = {summary[metric]:.2f}x is below the "
                f"{CHECKS[floor]:.1f}x regression floor"
            )
    if summary["fleet_requests_per_s"] < CHECKS["fleet_requests_per_s_min"]:
        failures.append(
            f"fleet_requests_per_s = {summary['fleet_requests_per_s']:,.0f} "
            f"is below the {CHECKS['fleet_requests_per_s_min']:,.0f}/s "
            "regression floor"
        )
    if (
        summary["fleet_faulted_requests_per_s"]
        < CHECKS["fleet_faulted_requests_per_s_min"]
    ):
        failures.append(
            f"fleet_faulted_requests_per_s = "
            f"{summary['fleet_faulted_requests_per_s']:,.0f} is below the "
            f"{CHECKS['fleet_faulted_requests_per_s_min']:,.0f}/s "
            "regression floor"
        )
    if summary["zoo_spec_builds_per_s"] < CHECKS["zoo_spec_builds_per_s_min"]:
        failures.append(
            f"zoo_spec_builds_per_s = "
            f"{summary['zoo_spec_builds_per_s']:,.0f} is below the "
            f"{CHECKS['zoo_spec_builds_per_s_min']:,.0f}/s regression floor"
        )
    if (
        summary["dse_parallel_evals_per_s"]
        < CHECKS["dse_parallel_evals_per_s_min"]
    ):
        failures.append(
            f"dse_parallel_evals_per_s = "
            f"{summary['dse_parallel_evals_per_s']:,.1f} is below the "
            f"{CHECKS['dse_parallel_evals_per_s_min']:,.0f}/s regression floor"
        )
    if (
        summary["dse_parallel_cpus"] >= 4
        and summary["dse_parallel_speedup"] < CHECKS["dse_parallel_speedup_min"]
    ):
        failures.append(
            f"dse_parallel_speedup = {summary['dse_parallel_speedup']:.2f}x "
            f"is below the {CHECKS['dse_parallel_speedup_min']:.1f}x "
            "regression floor (4-worker orchestrator vs serial tune)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: fewer iterations, figure benches only",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when a summary metric regresses past its floor",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "where to write the aggregated document (default: BENCH.json "
            "for a full run; a --smoke run writes only here)"
        ),
    )
    parser.add_argument(
        "--per-commit",
        action="store_true",
        help=(
            "write to BENCH_<shortsha>.json (the current HEAD's short "
            "hash) instead of --output, building a per-commit trajectory"
        ),
    )
    parser.add_argument(
        "--git-baseline",
        default=None,
        metavar="REF",
        help=(
            "also time the Fig. 6 bench at this git revision (throwaway "
            "worktree) and report the speedup against it"
        ),
    )
    args = parser.parse_args(argv)

    document = run_suite(
        "smoke" if args.smoke else "full", git_baseline=args.git_baseline
    )
    if args.per_commit:
        shortsha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(REPO_ROOT),
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
        document["git_commit"] = shortsha
        folder = Path(args.output).parent if args.output else REPO_ROOT
        output = folder / f"BENCH_{shortsha}.json"
    elif args.output is not None:
        output = Path(args.output)
    else:
        output = None if args.smoke else REPO_ROOT / "BENCH.json"
    if output is not None:
        output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {output}")
    for key, value in document["summary"].items():
        print(f"  {key:<42} {value}")

    if args.check:
        failures = check(document)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
