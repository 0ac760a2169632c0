#!/usr/bin/env python
"""Benchmark: the fleet simulator must absorb a day of traffic in minutes.

The fleet event loop is what every capacity study spins: a day-long
diurnal trace across heterogeneous platform replicas, routed, admitted,
and (optionally) autoscaled.  Its value depends on streaming millions of
requests without materialising them — arrivals are pulled lazily from
the generator and latency percentiles switch to streaming histograms
above the record threshold, so memory stays bounded however long the
trace runs.

Full mode serves one simulated day at a 13 req/s diurnal mean with two
spike bursts (~1.1M requests) over the four shipped platform presets and
reports sustained requests per wall-clock second.  Smoke mode shrinks
the horizon to 30 virtual minutes for CI.

The fault variant (``--faults``) replays the same trace through a seeded
random crash layer plus retry/hedging/shedding, measuring how much of
the event-loop throughput the resilience machinery costs — the fault
path has its own regression floor in ``run_all.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full, ~1 min
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke --faults
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: One replica of each shipped preset family, two of the paper platform.
FLEET_PLATFORMS = (
    "siracusa-mipi:8x2",
    "siracusa-fast-link:8",
    "siracusa-big-l2:8",
    "siracusa-low-power:8",
)

#: Full mode: a simulated day at a 13 req/s diurnal mean (~1.1M requests).
FULL_RATE_RPS = 13.0
FULL_DURATION_S = 86_400.0

#: Smoke mode: 30 virtual minutes for CI.
SMOKE_RATE_RPS = 4.0
SMOKE_DURATION_S = 1_800.0


def run(mode: str = "full", faulted: bool = False) -> dict:
    """Serve the diurnal day (or the smoke slice) and report throughput.

    With ``faulted`` the same trace runs through a seeded random crash
    layer (one expected failure per replica every sixteenth of the
    horizon, five-minute mean repair) plus retries, hedging, and
    graceful degradation, so the reported rate prices the resilience
    machinery under sustained churn.
    """
    from repro.api import Session
    from repro.fleet import FaultModel, RetryPolicy
    from repro.models import tinyllama_42m
    from repro.serving import DiurnalTrace

    smoke = mode == "smoke"
    rate = SMOKE_RATE_RPS if smoke else FULL_RATE_RPS
    duration = SMOKE_DURATION_S if smoke else FULL_DURATION_S
    trace = DiurnalTrace(
        rate_rps=rate,
        duration_s=duration,
        amplitude=0.6,
        period_s=duration,
        # Two morning-rush style bursts: +rate req/s for ten minutes.
        spikes=(
            (duration * 0.30, 600.0, rate),
            (duration * 0.65, 600.0, rate),
        ),
    )
    faults = retry = None
    if faulted:
        faults = FaultModel(
            crash_mtbf_s=duration / 16.0,
            crash_mttr_s=min(300.0, duration / 8.0),
            horizon_s=duration,
            seed=0,
            shed_below=0.9,
        )
        retry = RetryPolicy(
            max_retries=3, backoff_s=0.5, timeout_s=60.0, hedge_after_s=5.0
        )
    session = Session()
    config = tinyllama_42m()
    # Warm the per-preset cost models so the timed section measures the
    # event loop, not the first-touch block evaluations.
    session.serve_fleet(
        config,
        DiurnalTrace(rate_rps=rate, duration_s=60.0),
        platforms=FLEET_PLATFORMS,
        router="least_loaded",
        seed=0,
    )
    start = time.perf_counter()
    report = session.serve_fleet(
        config,
        trace,
        platforms=FLEET_PLATFORMS,
        router="least_loaded",
        seed=0,
        faults=faults,
        retry=retry,
    )
    wall = time.perf_counter() - start
    result = report.result
    metrics = {
        "mode": mode,
        "faulted": faulted,
        "wall_s": wall,
        "replicas": len(result.replicas),
        "requests": result.arrived,
        "completed": result.completed,
        "generated_tokens": result.generated_tokens,
        "simulated_s": result.makespan_s,
        "requests_per_s": result.arrived / wall,
        "realtime_speedup": result.makespan_s / wall,
        "approximate_percentiles": result.approximate,
        "p99_ttft_s": result.ttft.p99,
    }
    if result.resilience is not None:
        stats = result.resilience
        metrics.update(
            crashes=stats.crashes,
            retries=stats.retries,
            shed=stats.shed,
            hedges=stats.hedges,
            goodput_rps=stats.goodput_rps,
            unavailable_s=stats.unavailable_s,
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 30 virtual minutes instead of a full day",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="inject a seeded random crash layer plus retries and shedding",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics as one JSON line instead of the summary",
    )
    args = parser.parse_args(argv)
    metrics = run("smoke" if args.smoke else "full", faulted=args.faults)
    if args.json:
        print(json.dumps(metrics, sort_keys=True))
        return 0
    label = metrics["mode"] + ("+faults" if metrics["faulted"] else "")
    print(
        f"fleet bench ({label}): {metrics['requests']:,} requests "
        f"on {metrics['replicas']} replicas in {metrics['wall_s']:.2f} s "
        f"wall ({metrics['requests_per_s']:,.0f} req/s, "
        f"{metrics['realtime_speedup']:,.0f}x real time, "
        f"p99 TTFT {metrics['p99_ttft_s'] * 1e3:.1f} ms)"
    )
    if metrics["faulted"]:
        print(
            f"  faults: {metrics['crashes']} crash(es), "
            f"{metrics['retries']} retried, {metrics['shed']} shed, "
            f"{metrics['hedges']} hedged, "
            f"{metrics['unavailable_s']:.1f} s total outage"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
