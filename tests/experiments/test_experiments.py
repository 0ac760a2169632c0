"""Integration tests for the experiment drivers (one per figure/table).

These are the programmatic counterpart of EXPERIMENTS.md: each test runs
one experiment and asserts the qualitative shape of the corresponding
figure or table of the paper.  The benchmarks in ``benchmarks/`` print the
full series; here we only assert.
"""

from __future__ import annotations

import pytest

from repro.core.placement import WeightResidency
from repro.core.schedule import RuntimeCategory
from repro.experiments.fig4 import (
    mobilebert_workload,
    render_fig4,
    run_fig4,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    tinyllama_autoregressive_workload,
    tinyllama_prompt_workload,
)
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.fig6 import render_fig6, run_fig6
from repro.experiments.headline import render_headline, run_headline
from repro.experiments.table1 import render_table1, run_table1


@pytest.fixture(scope="module")
def fig4a():
    return run_fig4a()


@pytest.fixture(scope="module")
def fig4b():
    return run_fig4b()


@pytest.fixture(scope="module")
def fig4c():
    return run_fig4c()


class TestWorkloadDefinitions:
    def test_fig4_workloads_match_paper_setup(self):
        decode = tinyllama_autoregressive_workload()
        assert decode.config.embed_dim == 512
        assert decode.seq_len == 128
        assert tinyllama_prompt_workload().seq_len == 16
        bert = mobilebert_workload()
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

    def test_run_fig4_bundles_all_panels(self):
        result = run_fig4()
        speedups = result.speedups()
        assert set(speedups) == {
            "tinyllama_autoregressive",
            "tinyllama_prompt",
            "mobilebert",
        }

    def test_render_fig4_mentions_every_panel(self):
        text = render_fig4(run_fig4())
        assert "Fig. 4(a)" in text and "Fig. 4(b)" in text and "Fig. 4(c)" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return run_fig5()

    def test_energy_stays_in_range_for_tinyllama(self, fig5):
        energies = fig5.autoregressive.energies_joules()
        assert 0.8 < energies[8] / energies[1] < 1.2

    def test_scaled_model_energy_drops_when_fully_resident(self, fig5):
        scaled = fig5.autoregressive_scaled
        assert (
            scaled.result_for(32).block_energy_joules
            < scaled.result_for(16).block_energy_joules
        )

    def test_points_cover_all_series(self, fig5):
        points = fig5.points()
        assert len(points) == 5
        assert all(points.values())

    def test_render_fig5(self, fig5):
        text = render_fig5(fig5)
        assert "Fig. 5(a)" in text and "scaled-up" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_fig6()

    def test_quasi_linear_autoregressive_scaling(self, fig6):
        speedups = fig6.autoregressive.speedups()
        assert speedups[64] > 0.7 * 64
        assert speedups[8] > 8 and speedups[32] > 32

    def test_prompt_has_diminishing_returns(self, fig6):
        speedups = fig6.prompt.speedups()
        assert speedups[64] / 64 < 0.5
        assert speedups[16] / 16 > 0.7

    def test_residency_transitions(self, fig6):
        residencies = {
            result.num_chips: result.residencies()[0]
            for result in fig6.autoregressive.results
        }
        assert residencies[16] is WeightResidency.DOUBLE_BUFFERED
        assert residencies[32] is WeightResidency.ALL_RESIDENT

    def test_render_fig6(self, fig6):
        text = render_fig6(fig6)
        assert "autoregressive" in text and "prompt" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_table1()

    def test_ours_is_last_and_fastest(self, table1):
        ours = table1.ours()
        assert "tensor parallel" in ours.approach.lower()
        assert ours.block_cycles == min(r.block_cycles for r in table1.measured)
        assert table1.speedup_over_best_baseline() > 8

    def test_render_contains_qualitative_and_measured_parts(self, table1):
        text = render_table1(table1)
        assert "Table I (as published)" in text
        assert "Quantitative ablation" in text
        assert "Hermes [22]" in text


class TestHeadline:
    @pytest.fixture(scope="class")
    def headline(self):
        return run_headline()

    def test_every_metric_has_paper_and_measured_value(self, headline):
        assert len(headline.metrics) >= 8
        for metric in headline.metrics:
            assert metric.paper_value > 0
            assert metric.measured_value > 0
            assert metric.ratio > 0

    def test_direction_of_headline_claims(self, headline):
        assert headline.metric("tinyllama_autoregressive_speedup_8_chips").measured_value > 8
        assert headline.metric("mobilebert_speedup_4_chips").measured_value > 4
        assert headline.metric("scaled_tinyllama_energy_reduction_64_chips").measured_value > 1

    def test_unknown_metric_raises(self, headline):
        with pytest.raises(KeyError):
            headline.metric("does_not_exist")

    def test_render_headline(self, headline):
        text = render_headline(headline)
        assert "Paper" in text and "Measured" in text


class TestServingCapacity:
    @pytest.fixture(scope="class")
    def capacity(self):
        from repro.experiments.serving import run_serving

        # A trimmed sweep keeps the test fast; the defaults drive the CLI.
        return run_serving(
            rates_rps=(1.0, 5.0), policies=("fifo", "continuous"),
            duration_s=30.0,
        )

    def test_matrix_covers_every_cell(self, capacity):
        assert capacity.rates() == (1.0, 5.0)
        assert capacity.policies() == ("fifo", "continuous")
        assert len(capacity.points) == 4

    def test_attainment_degrades_with_load(self, capacity):
        for policy in capacity.policies():
            light = capacity.point(1.0, policy)
            heavy = capacity.point(5.0, policy)
            assert light.attainment >= heavy.attainment
            assert heavy.metrics.ttft.p95 > light.metrics.ttft.p95

    def test_continuous_sustains_more_load_than_fifo(self, capacity):
        fifo = capacity.max_sustainable_rate("fifo")
        continuous = capacity.max_sustainable_rate("continuous")
        assert continuous == 5.0
        assert fifo is None or fifo <= continuous

    def test_render_shows_the_matrix(self, capacity):
        from repro.experiments.serving import render_serving

        text = render_serving(capacity)
        assert "Capacity vs. SLO" in text
        assert "max sustainable rate" in text
        assert "fifo" in text and "continuous" in text


class TestDseStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.experiments.dse import run_dse

        # A trimmed matrix keeps the test fast; the defaults drive the CLI.
        return run_dse(budgets=(6, 24), searchers=("random", "anneal"))

    def test_matrix_covers_every_cell(self, study):
        assert study.searchers() == ("random", "anneal")
        assert study.budgets() == (6, 24)
        assert len(study.points) == 4
        with pytest.raises(KeyError):
            study.point("grid", 6)

    def test_reference_front_is_exhaustive_and_non_trivial(self, study):
        assert len(study.reference.candidates) == study.reference.space.size
        assert len(study.reference.front) >= 2

    def test_recovered_fraction_is_a_valid_share(self, study):
        for point in study.points:
            assert 0.0 <= point.recovered_fraction <= 1.0
            assert point.unique_evaluations <= point.budget

    def test_bigger_random_budgets_never_recover_less(self, study):
        # Only 'random' guarantees this: with one seed its budget-24 visit
        # set is a superset of the budget-6 one, and a true-front point can
        # never be displaced by new candidates.  Annealing's trajectory
        # depends on the budget (cooling schedule), so it carries no such
        # invariant.
        small = study.point("random", 6)
        large = study.point("random", 24)
        assert large.recovered_fraction >= small.recovered_fraction

    def test_render_shows_the_matrix(self, study):
        from repro.experiments.dse import render_dse

        text = render_dse(study)
        assert "Budget vs. Pareto front" in text
        assert "random" in text and "anneal" in text
        assert "cache" in text
