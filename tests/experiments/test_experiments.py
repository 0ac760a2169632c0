"""Integration tests for the paper's figures and tables, one study each.

Each figure or table is a shipped study; these tests run it and assert
the qualitative shape of the corresponding figure or table of the paper
on its stage results.  The benchmarks in ``benchmarks/`` print the full
series; here we only assert.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    dse_matrix,
    headline_metrics,
    max_sustainable_rate,
    render_dse,
    render_fig4,
    render_fig5,
    render_fig6,
    render_headline,
    render_serving,
    render_table1,
    serving_matrix,
)
from repro.api import Study
from repro.core.placement import WeightResidency
from repro.core.schedule import RuntimeCategory
from repro.spec import get_study


def run_study(name):
    return Study(get_study(name)).run()


@pytest.fixture(scope="module")
def fig4():
    return run_study("fig4")


@pytest.fixture(scope="module")
def fig4a(fig4):
    return fig4.stage("tinyllama-autoregressive").result


@pytest.fixture(scope="module")
def fig4b(fig4):
    return fig4.stage("tinyllama-prompt").result


@pytest.fixture(scope="module")
def fig4c(fig4):
    return fig4.stage("mobilebert").result


class TestWorkloadDefinitions:
    def test_fig4_workloads_match_paper_setup(self):
        spec = get_study("fig4")

        def workload(stage):
            return spec.stage(stage).spec.workload.build()

        decode = workload("tinyllama-autoregressive")
        assert decode.config.embed_dim == 512
        assert decode.seq_len == 128
        assert workload("tinyllama-prompt").seq_len == 16
        bert = workload("mobilebert")
        assert bert.seq_len == 268
        assert bert.config.num_heads == 4


class TestFig4:
    def test_autoregressive_super_linear_at_8(self, fig4a):
        speedups = fig4a.speedups()
        assert speedups[8] > 8
        assert all(speedups[n] <= n * 1.15 for n in (1, 2, 4))

    def test_autoregressive_l3_dominates_small_systems(self, fig4a):
        breakdowns = {r.num_chips: r.runtime_breakdown() for r in fig4a.results}
        assert (
            breakdowns[1][RuntimeCategory.DMA_L3_L2]
            > breakdowns[1][RuntimeCategory.COMPUTE]
        )
        assert breakdowns[8][RuntimeCategory.DMA_L3_L2] == 0

    def test_prompt_super_linear_but_smaller_than_autoregressive(self, fig4a, fig4b):
        assert fig4b.speedups()[8] > 8
        assert fig4b.speedups()[8] < fig4a.speedups()[8]

    def test_prompt_is_compute_dominated(self, fig4b):
        for breakdown in (r.runtime_breakdown() for r in fig4b.results):
            assert (
                breakdown[RuntimeCategory.COMPUTE]
                > breakdown[RuntimeCategory.DMA_L3_L2]
            )

    def test_mobilebert_super_linear_at_4_with_energy_penalty(self, fig4c):
        assert fig4c.speedups()[4] > 4
        energies = fig4c.energies_joules()
        assert energies[4] > energies[1]

    def test_run_fig4_bundles_all_panels(self, fig4):
        speedups = {stage.name: stage.result.speedups() for stage in fig4.stages}
        assert set(speedups) == {
            "tinyllama-autoregressive",
            "tinyllama-prompt",
            "mobilebert",
        }

    def test_render_fig4_mentions_every_panel(self, fig4):
        text = render_fig4(fig4)
        assert "Fig. 4(a)" in text and "Fig. 4(b)" in text and "Fig. 4(c)" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return run_study("fig5")

    def test_energy_stays_in_range_for_tinyllama(self, fig5):
        energies = fig5.stage("tinyllama-autoregressive").result.energies_joules()
        assert 0.8 < energies[8] / energies[1] < 1.2

    def test_scaled_model_energy_drops_when_fully_resident(self, fig5):
        scaled = fig5.stage("scaled-autoregressive").result
        assert (
            scaled.result_for(32).block_energy_joules
            < scaled.result_for(16).block_energy_joules
        )

    def test_points_cover_all_series(self, fig5):
        assert len(fig5.stages) == 5
        assert all(stage.result.results for stage in fig5.stages)

    def test_render_fig5(self, fig5):
        text = render_fig5(fig5)
        assert "Fig. 5(a)" in text and "scaled-up" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_study("fig6")

    def test_quasi_linear_autoregressive_scaling(self, fig6):
        speedups = fig6.stage("autoregressive").result.speedups()
        assert speedups[64] > 0.7 * 64
        assert speedups[8] > 8 and speedups[32] > 32

    def test_prompt_has_diminishing_returns(self, fig6):
        speedups = fig6.stage("prompt").result.speedups()
        assert speedups[64] / 64 < 0.5
        assert speedups[16] / 16 > 0.7

    def test_residency_transitions(self, fig6):
        residencies = {
            result.num_chips: result.residencies()[0]
            for result in fig6.stage("autoregressive").result.results
        }
        assert residencies[16] is WeightResidency.DOUBLE_BUFFERED
        assert residencies[32] is WeightResidency.ALL_RESIDENT

    def test_render_fig6(self, fig6):
        text = render_fig6(fig6)
        assert "autoregressive" in text and "prompt" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_study("table1")

    def test_ours_is_last_and_fastest(self, table1):
        measured = table1.stage("ablation").result.results
        ours = measured[-1]
        assert "tensor parallel" in ours.approach.lower()
        assert ours.block_cycles == min(r.block_cycles for r in measured)
        best_baseline = min(
            (r for r in measured[:-1] if r.num_chips == ours.num_chips),
            key=lambda result: result.block_cycles,
        )
        assert ours.speedup_over(best_baseline) > 8

    def test_render_contains_qualitative_and_measured_parts(self, table1):
        text = render_table1(table1)
        assert "Table I (as published)" in text
        assert "Quantitative ablation" in text
        assert "Hermes [22]" in text


class TestHeadline:
    @pytest.fixture(scope="class")
    def headline(self):
        return run_study("headline")

    @pytest.fixture(scope="class")
    def metrics(self, headline):
        return {metric.name: metric for metric in headline_metrics(headline)}

    def test_every_metric_has_paper_and_measured_value(self, metrics):
        assert len(metrics) >= 8
        for metric in metrics.values():
            assert metric.paper_value > 0
            assert metric.measured_value > 0
            assert metric.ratio > 0

    def test_direction_of_headline_claims(self, metrics):
        assert metrics["tinyllama_autoregressive_speedup_8_chips"].measured_value > 8
        assert metrics["mobilebert_speedup_4_chips"].measured_value > 4
        assert metrics["scaled_tinyllama_energy_reduction_64_chips"].measured_value > 1

    def test_render_headline(self, headline):
        text = render_headline(headline)
        assert "Paper" in text and "Measured" in text


def trimmed(name, keep):
    """The shipped study ``name`` reduced to the stages ``keep`` accepts."""
    spec = get_study(name)
    return replace(spec, stages=tuple(stage for stage in spec.stages if keep(stage)))


class TestServingCapacity:
    @pytest.fixture(scope="class")
    def capacity(self):
        # A trimmed matrix keeps the test fast; the full study drives the CLI.
        spec = trimmed(
            "serving-capacity",
            lambda stage: stage.spec.trace.rate_rps in (1.0, 5.0)
            and stage.spec.policy in ("fifo", "continuous"),
        )
        stages = tuple(
            replace(
                stage,
                spec=replace(
                    stage.spec, trace=replace(stage.spec.trace, duration_s=30.0)
                ),
            )
            for stage in spec.stages
        )
        return Study(replace(spec, stages=stages)).run()

    @pytest.fixture(scope="class")
    def matrix(self, capacity):
        return serving_matrix(capacity)

    def test_matrix_covers_every_cell(self, matrix):
        assert tuple(dict.fromkeys(rate for rate, _ in matrix)) == (1.0, 5.0)
        assert tuple(dict.fromkeys(policy for _, policy in matrix)) == (
            "fifo",
            "continuous",
        )
        assert len(matrix) == 4

    def test_attainment_degrades_with_load(self, matrix):
        for policy in ("fifo", "continuous"):
            light, light_attainment = matrix[1.0, policy]
            heavy, heavy_attainment = matrix[5.0, policy]
            assert light_attainment >= heavy_attainment
            assert heavy.metrics.ttft.p95 > light.metrics.ttft.p95

    def test_continuous_sustains_more_load_than_fifo(self, matrix):
        fifo = max_sustainable_rate(matrix, "fifo")
        continuous = max_sustainable_rate(matrix, "continuous")
        assert continuous == 5.0
        assert fifo is None or fifo <= continuous

    def test_render_shows_the_matrix(self, capacity):
        text = render_serving(capacity)
        assert "Capacity vs. SLO" in text
        assert "max sustainable rate" in text
        assert "fifo" in text and "continuous" in text


class TestDseStudy:
    @pytest.fixture(scope="class")
    def study(self):
        # A trimmed matrix keeps the test fast; the full study drives the CLI.
        return Study(
            trimmed(
                "dse-budget",
                lambda stage: stage.name
                in ("reference", "random-6", "random-24", "anneal-6", "anneal-24"),
            )
        ).run()

    @pytest.fixture(scope="class")
    def matrix(self, study):
        return dse_matrix(study)

    def test_matrix_covers_every_cell(self, matrix):
        assert tuple(dict.fromkeys(searcher for searcher, _ in matrix)) == (
            "random",
            "anneal",
        )
        assert tuple(dict.fromkeys(budget for _, budget in matrix)) == (6, 24)
        assert len(matrix) == 4
        with pytest.raises(KeyError):
            matrix["grid", 6]

    def test_reference_front_is_exhaustive_and_non_trivial(self, study):
        reference = study.stage("reference").result
        assert len(reference.candidates) == reference.space.size
        assert len(reference.front) >= 2

    def test_recovered_fraction_is_a_valid_share(self, matrix):
        for (_, budget), (result, recovered) in matrix.items():
            assert 0.0 <= recovered <= 1.0
            assert len(result.candidates) <= budget

    def test_bigger_random_budgets_never_recover_less(self, matrix):
        # Only 'random' guarantees this: with one seed its budget-24 visit
        # set is a superset of the budget-6 one, and a true-front point can
        # never be displaced by new candidates.  Annealing's trajectory
        # depends on the budget (cooling schedule), so it carries no such
        # invariant.
        _, small = matrix["random", 6]
        _, large = matrix["random", 24]
        assert large >= small

    def test_render_shows_the_matrix(self, study):
        text = render_dse(study)
        assert "Budget vs. Pareto front" in text
        assert "random" in text and "anneal" in text
        assert "cache" in text
