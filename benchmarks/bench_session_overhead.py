"""Micro-benchmark: the Session wrapper must stay close to free.

The unified API routes every evaluation through
:meth:`repro.api.Session.run` (strategy lookup, option plumbing, result
wrapping).  This benchmark measures that wrapper against a direct
:func:`repro.analysis.evaluate.evaluate_block` call on the paper's main
workload and asserts two properties:

* with memoisation off, the wrapper adds **< 5 %** wall-clock overhead
  (median of several timed batches, to absorb scheduler noise; the two
  contenders' batches alternate, so a slowdown mid-run hits both);
* with memoisation on, a repeated evaluation is at least **5x** faster
  than re-running the engine, i.e. the content-hash lookup actually pays.
"""

from __future__ import annotations

import time
from statistics import median

from repro.analysis.evaluate import evaluate_block
from repro.api import Session
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m

#: Evaluations per timed batch.
BATCH = 8

#: Timed batches per contender; the median batch time is compared.
REPEATS = 7

#: Maximum tolerated wrapper overhead (fraction of the direct runtime).
MAX_OVERHEAD = 0.05


def _median_batch_seconds(*calls) -> tuple:
    """Median wall-clock time of ``REPEATS`` batches of ``BATCH`` calls, per call.

    The calls' batches alternate, so contention that starts mid-run
    lands on every contender rather than on the last one timed.
    """
    times = [[] for _ in calls]
    for _ in range(REPEATS):
        for call, call_times in zip(calls, times):
            start = time.perf_counter()
            for _ in range(BATCH):
                call()
            call_times.append(time.perf_counter() - start)
    return tuple(median(call_times) for call_times in times)


def test_session_wrapper_overhead(run_once):
    workload = autoregressive(tinyllama_42m(), 128)
    platform = siracusa_platform(8)
    session = Session(memoize=False)

    # Warm both paths (imports, first-touch allocations) before timing.
    evaluate_block(workload, platform)
    session.run(workload, platform=platform)

    def measure():
        return _median_batch_seconds(
            lambda: evaluate_block(workload, platform),
            lambda: session.run(workload, platform=platform),
        )

    direct, wrapped = run_once(measure)
    overhead = wrapped / direct - 1.0
    print(
        f"\ndirect: {direct / BATCH * 1e3:.3f} ms/eval, "
        f"session: {wrapped / BATCH * 1e3:.3f} ms/eval, "
        f"overhead: {overhead * 100:+.2f}%"
    )
    assert overhead < MAX_OVERHEAD, (
        f"Session.run adds {overhead * 100:.2f}% over evaluate_block "
        f"(budget: {MAX_OVERHEAD * 100:.0f}%)"
    )


def test_session_memoisation_beats_reevaluation(run_once):
    workload = autoregressive(tinyllama_42m(), 128)
    platform = siracusa_platform(8)
    session = Session()
    session.run(workload, platform=platform)  # populate the cache

    def measure():
        return _median_batch_seconds(
            lambda: evaluate_block(workload, platform),
            lambda: session.run(workload, platform=platform),
        )

    direct, cached = run_once(measure)
    speedup = direct / cached
    print(
        f"\nengine: {direct / BATCH * 1e3:.3f} ms/eval, "
        f"memoised: {cached / BATCH * 1e6:.1f} us/eval, "
        f"speedup: {speedup:.1f}x"
    )
    assert session.cache_info().hits >= BATCH * REPEATS
    assert speedup > 5, f"memoised hit only {speedup:.1f}x faster than the engine"
