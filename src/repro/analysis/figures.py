"""Plain-text figures and tables of the paper, rendered from study results.

Every figure and table is one shipped study (``repro.spec.studies``):
``fig4``, ``fig5``, ``fig6``, ``table1`` and ``headline`` for the paper's
evaluation, ``serving-capacity`` and ``dse-budget`` for the serving and
design-space questions built on top of it.  :class:`repro.api.Study`
computes them; the renderers here only read the stage results (and,
for the serving and DSE matrices, each stage's spec for its axes).
``repro experiments`` runs a study and prints its renderer's text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .metrics import scaling_points
from .tables import (
    comparison_table,
    energy_runtime_table,
    format_table,
    runtime_breakdown_table,
    scaling_table,
)

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle with repro.api
    from ..api.study import StudyResult
    from ..dse.engine import TuneResult
    from ..serving.metrics import ServingReport

#: Share of requests that must meet the TTFT SLO for a rate to be sustainable.
TARGET_ATTAINMENT = 0.95


def _sweep_panels(study: "StudyResult", panels, table) -> str:
    """One titled ``table`` per (title, stage name) panel."""
    parts = []
    for title, stage in panels:
        parts.append(title)
        parts.append(table(study.stage(stage).result))
        parts.append("")
    return "\n".join(parts)


def render_fig4(study: "StudyResult") -> str:
    """Fig. 4: runtime breakdown and speedup of the three workloads."""
    return _sweep_panels(
        study,
        (
            ("Fig. 4(a) TinyLlama autoregressive mode", "tinyllama-autoregressive"),
            ("Fig. 4(b) TinyLlama prompt mode", "tinyllama-prompt"),
            ("Fig. 4(c) MobileBERT", "mobilebert"),
        ),
        runtime_breakdown_table,
    )


def render_fig5(study: "StudyResult") -> str:
    """Fig. 5: energy versus runtime, original and scaled-up models."""
    return _sweep_panels(
        study,
        (
            (
                "Fig. 5(a) TinyLlama autoregressive (original model)",
                "tinyllama-autoregressive",
            ),
            (
                "Fig. 5(a) TinyLlama autoregressive (scaled-up, 64 heads)",
                "scaled-autoregressive",
            ),
            ("Fig. 5(b) TinyLlama prompt (original model)", "tinyllama-prompt"),
            ("Fig. 5(b) TinyLlama prompt (scaled-up, 64 heads)", "scaled-prompt"),
            ("Fig. 5(c) MobileBERT", "mobilebert"),
        ),
        energy_runtime_table,
    )


def render_fig6(study: "StudyResult") -> str:
    """Fig. 6: speedup of the 64-head model up to 64 chips, both modes."""
    return "\n".join(
        [
            scaling_table(
                scaling_points(study.stage("autoregressive").result.results),
                title="Fig. 6 Scaled-up TinyLlama, autoregressive mode",
            ),
            "",
            scaling_table(
                scaling_points(study.stage("prompt").result.results),
                title="Fig. 6 Scaled-up TinyLlama, prompt mode",
            ),
        ]
    )


def render_table1(study: "StudyResult") -> str:
    """Table I as published, then the measured strategy ablation."""
    from ..baselines.compare import qualitative_table, render_comparison

    comparison = study.stage("ablation").result
    headers = ["Model", "Scale", "Platform", "Pipelining", "Weight Duplication"]
    return "\n".join(
        [
            "Table I (as published): qualitative comparison of prior work",
            comparison_table(qualitative_table(), headers),
            "",
            (
                f"Quantitative ablation on {comparison.num_chips} chips, "
                f"workload {comparison.workload.name}"
            ),
            render_comparison(comparison.results),
        ]
    )


@dataclass(frozen=True)
class HeadlineMetric:
    """One paper-reported number next to its measured counterpart."""

    name: str
    paper_value: float
    measured_value: float
    unit: str
    higher_is_better: bool = True

    @property
    def ratio(self) -> float:
        """Measured / paper value."""
        if self.paper_value == 0:
            return float("inf")
        return self.measured_value / self.paper_value


def headline_metrics(study: "StudyResult") -> Tuple[HeadlineMetric, ...]:
    """The nine headline numbers of the abstract and Sec. V-B.

    Reads the ``headline`` study's sweeps: the three Fig. 4 workloads plus
    the 64-head model autoregressive on (1, 64) and prompt on (1, 8) chips.
    """
    autoregressive = study.stage("tinyllama-autoregressive").result
    scaled = study.stage("scaled-autoregressive").result
    ar1, ar8 = autoregressive.result_for(1), autoregressive.result_for(8)
    edp_improvement = (
        ar1.energy_delay_product / ar8.energy_delay_product
        if ar8.energy_delay_product > 0
        else float("inf")
    )
    rows = (
        ("tinyllama_autoregressive_speedup_8_chips", 26.1,
         autoregressive.speedups()[8], "x", True),
        ("tinyllama_autoregressive_energy_8_chips", 0.64e-3,
         ar8.block_energy_joules, "J", False),
        ("tinyllama_autoregressive_latency_8_chips", 0.54e-3,
         ar8.block_runtime_seconds, "s", False),
        ("tinyllama_autoregressive_edp_improvement_8_chips", 27.2,
         edp_improvement, "x", True),
        ("tinyllama_prompt_speedup_8_chips", 9.9,
         study.stage("tinyllama-prompt").result.speedups()[8], "x", True),
        ("mobilebert_speedup_4_chips", 4.7,
         study.stage("mobilebert").result.speedups()[4], "x", True),
        ("scaled_tinyllama_speedup_64_chips", 60.1,
         scaled.speedups()[64], "x", True),
        ("scaled_tinyllama_energy_reduction_64_chips", 1.3,
         scaled.result_for(1).block_energy_joules
         / scaled.result_for(64).block_energy_joules, "x", True),
        ("scaled_tinyllama_prompt_speedup_8_chips", 9.9,
         study.stage("scaled-prompt").result.speedups()[8], "x", True),
    )
    return tuple(HeadlineMetric(*row) for row in rows)


def render_headline(study: "StudyResult") -> str:
    """Paper-versus-measured table of the headline numbers."""
    rows = [
        [
            metric.name,
            f"{metric.paper_value:g} {metric.unit}",
            f"{metric.measured_value:g} {metric.unit}",
            f"{metric.ratio:.2f}",
        ]
        for metric in headline_metrics(study)
    ]
    return format_table(["Metric", "Paper", "Measured", "Measured/Paper"], rows)


def serving_matrix(
    study: "StudyResult",
) -> Dict[Tuple[float, str], Tuple["ServingReport", float]]:
    """(rate, policy) -> (report, TTFT-SLO attainment), in stage order.

    The axes come from each serve stage's spec: its trace's arrival rate,
    its policy, and its first SLO target as the TTFT bound.
    """
    from ..serving.metrics import slo_attainment

    matrix = {}
    for stage, outcome in zip(study.spec.stages, study.stages):
        spec = stage.spec
        report = outcome.result
        attainment = slo_attainment(
            report.result.records, ttft_s=spec.slo_targets[0]
        )
        matrix[spec.trace.rate_rps, spec.policy] = (report, attainment)
    return matrix


def max_sustainable_rate(
    matrix: Dict[Tuple[float, str], Tuple["ServingReport", float]], policy: str
) -> Optional[float]:
    """Largest swept rate at which ``policy`` meets the SLO target, if any."""
    rates = [
        rate
        for (rate, name), (_, attainment) in matrix.items()
        if name == policy and attainment >= TARGET_ATTAINMENT
    ]
    return max(rates) if rates else None


def render_serving(study: "StudyResult") -> str:
    """Capacity-vs-SLO matrix plus each policy's maximum sustainable rate."""
    matrix = serving_matrix(study)
    rates = tuple(dict.fromkeys(rate for rate, _ in matrix))
    policies = tuple(dict.fromkeys(policy for _, policy in matrix))
    header = ["Rate (req/s)"] + [
        f"{policy} att. / p95 TTFT" for policy in policies
    ]
    rows = []
    for rate in rates:
        row = [f"{rate:g}"]
        for policy in policies:
            report, attainment = matrix[rate, policy]
            row.append(
                f"{attainment * 100:5.1f}% / "
                f"{report.metrics.ttft.p95 * 1e3:7.1f} ms"
            )
        rows.append(row)
    first = study.spec.stages[0].spec
    report = study.stages[0].result
    lines = [
        (
            f"Capacity vs. SLO on {report.model}, {report.num_chips} chips "
            f"(TTFT < {first.slo_targets[0]:g} s for "
            f">= {TARGET_ATTAINMENT * 100:.0f}% of requests)"
        ),
        format_table(header, rows),
        "",
    ]
    for policy in policies:
        sustainable = max_sustainable_rate(matrix, policy)
        verdict = (
            f"{sustainable:g} req/s"
            if sustainable is not None
            else "below the swept range"
        )
        lines.append(f"max sustainable rate [{policy:<16}]: {verdict}")
    return "\n".join(lines)


def dse_matrix(
    study: "StudyResult",
) -> Dict[Tuple[str, int], Tuple["TuneResult", float]]:
    """(searcher, budget) -> (tune result, share of the true front found).

    The first stage is the exhaustive reference tune; every later tune
    stage is one cell, keyed by its spec's searcher and budget.
    """
    reference = {candidate.point for candidate in study.stages[0].result.front}
    matrix = {}
    for stage, outcome in zip(study.spec.stages[1:], study.stages[1:]):
        found = {candidate.point for candidate in outcome.result.front}
        recovered = (
            len(found & reference) / len(reference) if reference else 1.0
        )
        matrix[stage.spec.searcher, stage.spec.budget] = (
            outcome.result,
            recovered,
        )
    return matrix


def render_dse(study: "StudyResult") -> str:
    """Recovered share of the true Pareto front per searcher and budget."""
    matrix = dse_matrix(study)
    searchers = tuple(dict.fromkeys(searcher for searcher, _ in matrix))
    budgets = tuple(dict.fromkeys(budget for _, budget in matrix))
    header = ["Searcher"] + [f"budget {budget}" for budget in budgets]
    rows = []
    for searcher in searchers:
        row = [searcher]
        for budget in budgets:
            result, recovered = matrix[searcher, budget]
            row.append(
                f"{recovered * 100:5.1f}% ({len(result.candidates)} evals)"
            )
        rows.append(row)
    reference = study.stages[0].result
    cache = study.stages[-1].result.cache
    return "\n".join(
        [
            (
                f"Budget vs. Pareto front on {reference.workload.name} "
                f"(space of {reference.space.size} points, "
                f"reference front {len(reference.front)} points, "
                f"objectives: {', '.join(reference.objective_names)})"
            ),
            format_table(header, rows),
            "",
            (
                "Cells show the share of the exhaustive-grid Pareto front "
                "each searcher recovers and the distinct designs it "
                "simulated."
            ),
            (
                f"shared session cache after the study: {cache.hits} hits, "
                f"{cache.misses} misses ({cache.size} entries)"
            ),
        ]
    )
