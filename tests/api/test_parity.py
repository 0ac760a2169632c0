"""Equivalence of the unified API with the engines behind it.

Every strategy run through ``Session`` returns the numbers its engine
returns when called directly, and all strategies populate the same
:class:`EvalResult` schema.  The numbers themselves are pinned by
``tests/integration/test_paper_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.evaluate import evaluate_block
from repro.api import Session, list_strategies
from repro.baselines.pipeline_parallel import evaluate_pipeline_parallel
from repro.baselines.weight_replicated import evaluate_weight_replicated
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m

#: Each Table I strategy's engine, called without a session.
_BASELINE_EVALUATORS = {
    "single_chip": lambda workload, platform: evaluate_block(
        workload, platform.with_num_chips(1)
    ),
    "weight_replicated": evaluate_weight_replicated,
    "pipeline_parallel": evaluate_pipeline_parallel,
    "tensor_parallel": evaluate_block,
}


@pytest.fixture(scope="module")
def workload():
    return autoregressive(tinyllama_42m(), 128)


@pytest.fixture(scope="module")
def platform():
    return siracusa_platform(8)


@pytest.fixture(scope="module")
def session():
    return Session()


class TestShimEquivalence:
    """A strategy returns exactly what its engine returns."""

    def test_session_paper_equals_evaluate_block(self, session, workload, platform):
        direct = evaluate_block(workload, platform)
        unified = session.run(workload, "paper", platform=platform)
        assert unified.block_cycles == direct.block_cycles
        assert unified.block_energy_joules == direct.block_energy_joules
        assert unified.l3_bytes_per_block == direct.total_l3_bytes
        assert unified.c2c_bytes_per_block == direct.total_c2c_bytes
        assert unified.energy_delay_product == direct.energy_delay_product
        assert unified.block_runtime_seconds == direct.block_runtime_seconds
        assert unified.runtime_breakdown() == direct.runtime_breakdown()
        assert unified.residencies() == direct.residencies()

    @pytest.mark.parametrize("name", sorted(_BASELINE_EVALUATORS))
    def test_session_baseline_equals_direct_evaluator(
        self, session, workload, platform, name
    ):
        direct = _BASELINE_EVALUATORS[name](workload, platform)
        unified = session.run(workload, name, platform=platform)
        assert unified.num_chips == direct.num_chips
        assert unified.block_cycles == direct.block_cycles
        assert unified.block_energy_joules == direct.block_energy_joules
        if unified.report is None:
            assert unified == direct  # the analytical engines build it

    def test_paper_and_tensor_parallel_strategies_agree(
        self, session, workload, platform
    ):
        paper = session.run(workload, "paper", platform=platform)
        table_entry = session.run(workload, "tensor_parallel", platform=platform)
        assert paper.block_cycles == table_entry.block_cycles
        assert paper.block_energy_joules == table_entry.block_energy_joules
        assert paper.weight_bytes_per_chip == table_entry.weight_bytes_per_chip


class TestCrossStrategyFieldParity:
    """Every strategy fills the unified schema's required fields."""

    @pytest.mark.parametrize("name", sorted(set(list_strategies())))
    def test_required_fields_populated(self, session, workload, name):
        result = session.run(workload, name, chips=8)
        assert result.strategy == name
        assert result.approach
        assert result.workload == workload
        assert result.num_chips >= 1
        assert result.frequency_hz > 0
        assert result.block_cycles > 0
        assert result.block_energy_joules > 0
        assert result.l3_bytes_per_block >= 0
        assert result.weight_bytes_per_chip > 0
        assert isinstance(result.weights_replicated, bool)
        assert result.synchronisations_per_block >= 0
        assert isinstance(result.uses_pipelining, bool)
        assert result.block_runtime_seconds > 0
        assert result.energy_delay_product > 0
        assert result.summary()
