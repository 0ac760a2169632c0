"""Unit tests for the strategy protocol and registry."""

from __future__ import annotations

import pytest

from repro.api import (
    BASELINE_STRATEGIES,
    EvalOptions,
    EvalResult,
    PartitionStrategy,
    get_strategy,
    list_strategies,
    register_strategy,
    unregister_strategy,
)
from repro.errors import ConfigurationError, UnknownStrategyError


class TestBuiltinRegistry:
    def test_all_five_strategies_registered(self):
        names = list_strategies()
        assert "paper" in names
        for name in BASELINE_STRATEGIES:
            assert name in names
        assert len(names) >= 5

    def test_lookup_returns_protocol_instances(self):
        for name in list_strategies():
            strategy = get_strategy(name)
            assert isinstance(strategy, PartitionStrategy)
            assert strategy.name == name
            assert strategy.label

    def test_alias_lookup_resolves_to_canonical(self):
        assert get_strategy("ours") is get_strategy("paper")
        assert get_strategy("sequence_parallel") is get_strategy("weight_replicated")
        assert "ours" not in list_strategies()

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            get_strategy("definitely_not_registered")
        message = str(excinfo.value)
        assert "definitely_not_registered" in message
        assert "paper" in message


class TestRegistration:
    def test_register_and_unregister_custom_strategy(self):
        @register_strategy
        class DummyStrategy:
            name = "dummy_for_test"
            label = "Dummy"

            def evaluate(self, workload, platform, options):
                raise NotImplementedError

        try:
            assert get_strategy("dummy_for_test").label == "Dummy"
            assert "dummy_for_test" in list_strategies()
        finally:
            unregister_strategy("dummy_for_test")
        with pytest.raises(UnknownStrategyError):
            get_strategy("dummy_for_test")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_strategy
            class ClashStrategy:
                name = "paper"
                label = "Clash"

                def evaluate(self, workload, platform, options):
                    raise NotImplementedError

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_strategy
            class NamelessStrategy:
                label = "Nameless"

                def evaluate(self, workload, platform, options):
                    raise NotImplementedError

    def test_non_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            register_strategy(type("NotAStrategy", (), {"name": "not_a_strategy"}))

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownStrategyError):
            unregister_strategy("never_registered")


class TestEvalOptions:
    def test_defaults_match_paper_accounting(self):
        from repro.core.placement import PrefetchAccounting

        options = EvalOptions()
        assert options.kernel_library is None
        assert options.energy is None
        assert options.prefetch_accounting is PrefetchAccounting.HIDDEN
        assert options.record_events is False


class TestEvalResultValidation:
    def _kwargs(self, **overrides):
        from repro.graph.workload import autoregressive
        from repro.models import tinyllama_42m

        kwargs = dict(
            strategy="paper",
            approach="Ours",
            workload=autoregressive(tinyllama_42m(), 128),
            num_chips=8,
            frequency_hz=360e6,
            block_cycles=1000.0,
            block_energy_joules=1e-3,
            l3_bytes_per_block=0.0,
            weight_bytes_per_chip=100,
            weights_replicated=False,
            synchronisations_per_block=2,
        )
        kwargs.update(overrides)
        return kwargs

    def test_rejects_bad_values(self):
        from repro.errors import AnalysisError

        for overrides in (
            {"strategy": ""},
            {"num_chips": 0},
            {"frequency_hz": 0.0},
            {"block_cycles": 0.0},
            {"block_energy_joules": -1.0},
            {"weight_bytes_per_chip": -1},
        ):
            with pytest.raises(AnalysisError):
                EvalResult(**self._kwargs(**overrides))

    def test_derived_quantities(self):
        result = EvalResult(**self._kwargs())
        assert result.block_runtime_seconds == pytest.approx(1000.0 / 360e6)
        assert result.edp_joule_cycles == pytest.approx(1.0)
        assert result.energy_delay_product == pytest.approx(
            1e-3 * 1000.0 / 360e6
        )
        layers = result.workload.config.num_layers
        assert result.inference_cycles == pytest.approx(1000.0 * layers)
        assert result.inference_energy_joules == pytest.approx(1e-3 * layers)
        # No simulator report attached: placement views are unknown.
        assert result.runtime_breakdown() is None
        assert result.residencies() is None
        assert result.runs_from_on_chip_memory is None
