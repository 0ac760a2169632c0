"""Request-level serving simulator on top of the per-block cost model.

The paper evaluates one Transformer block in steady state; this package
asks the system question on top of it: what happens when *many* user
requests contend for the multi-chip platform?  It composes four small,
typed layers:

* :mod:`~repro.serving.traces` — seeded traffic generators (Poisson,
  bursty MMPP, diurnal with spikes, closed-loop) and JSON trace replay;
* :mod:`~repro.serving.policies` — pluggable scheduling policies behind a
  registry (FIFO, shortest-prompt-first, priority, continuous-batching
  interleaver);
* :mod:`~repro.serving.costs` — phase costs that are Session-memoised
  block evaluations (nothing is re-simulated per token);
* :mod:`~repro.serving.metrics` — TTFT/TPOT/e2e percentiles, throughput,
  utilisation, time-weighted queue depth, energy per request, SLO
  attainment.

The engine is :class:`repro.fleet.FleetSimulator`: a single-platform
serve runs as a one-replica fleet (:func:`repro.fleet.simulator.serve_source`).

The front door is :meth:`repro.api.Session.serve`::

    from repro.api import Session
    from repro.models import tinyllama_42m
    from repro.serving import PoissonTrace

    report = Session().serve(
        tinyllama_42m(),
        PoissonTrace(rate_rps=2.0, duration_s=300.0),
        policy="fifo", chips=8, seed=0,
    )
    print(report.render())

See ``docs/SERVING.md`` for the queueing model and its assumptions.
"""

from .costs import PhaseCost, RequestCostModel
from .metrics import (
    DEFAULT_SLO_TTFT_TARGETS_S,
    LatencySummary,
    ServingMetrics,
    ServingReport,
    ServingResult,
    attainment_curve,
    percentile,
    slo_attainment,
)
from .policies import (
    ContinuousBatchingPolicy,
    FifoPolicy,
    PriorityPolicy,
    ReadyQueue,
    SchedulingPolicy,
    ShortestPromptPolicy,
    get_policy,
    list_policies,
    register_policy,
    unregister_policy,
)
from .request import ActiveRequest, Request, RequestPhase, RequestRecord
from .traces import (
    BurstyTrace,
    ClosedLoopTrace,
    DiurnalTrace,
    LengthModel,
    PoissonTrace,
    ReplayTrace,
    RequestSource,
    TrafficTrace,
    load_trace,
    save_trace,
)

__all__ = [
    "ActiveRequest",
    "BurstyTrace",
    "ClosedLoopTrace",
    "ContinuousBatchingPolicy",
    "DEFAULT_SLO_TTFT_TARGETS_S",
    "DiurnalTrace",
    "FifoPolicy",
    "LatencySummary",
    "LengthModel",
    "PhaseCost",
    "PoissonTrace",
    "PriorityPolicy",
    "ReadyQueue",
    "ReplayTrace",
    "Request",
    "RequestCostModel",
    "RequestPhase",
    "RequestRecord",
    "RequestSource",
    "SchedulingPolicy",
    "ServingMetrics",
    "ServingReport",
    "ServingResult",
    "ShortestPromptPolicy",
    "TrafficTrace",
    "attainment_curve",
    "get_policy",
    "list_policies",
    "load_trace",
    "percentile",
    "register_policy",
    "save_trace",
    "slo_attainment",
    "unregister_policy",
]
