"""Unit tests for the reactive autoscaler's pure decision rule."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fleet import Autoscaler, AutoscalerConfig


def decide(scaler, depth, completed=0, met=0):
    return scaler.decide(
        queue_depth_per_replica=depth,
        window_completed=completed,
        window_slo_met=met,
    )


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(max_extra=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(check_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(scale_up_depth=1.0, scale_down_depth=2.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(ttft_slo_s=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_attainment=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(chips=0)

    def test_parse_shorthand(self):
        assert AutoscalerConfig.parse("siracusa-big-l2:4", max_extra=2) == (
            AutoscalerConfig(preset="siracusa-big-l2", chips=4, max_extra=2)
        )
        assert AutoscalerConfig.parse("siracusa-mipi") == AutoscalerConfig()
        with pytest.raises(ConfigurationError, match="cannot parse --autoscale"):
            AutoscalerConfig.parse("siracusa-mipi:zz")
        with pytest.raises(ConfigurationError, match="chips must be positive"):
            AutoscalerConfig.parse("siracusa-mipi:0")


class TestDecisionRule:
    def test_deep_queues_scale_up(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_depth=4.0))
        assert decide(scaler, 5.0) == "queue-depth"
        assert decide(scaler, 4.0) is None  # the threshold is exclusive

    def test_missed_slo_scales_up(self):
        scaler = Autoscaler(
            AutoscalerConfig(ttft_slo_s=0.5, min_attainment=0.95)
        )
        assert decide(scaler, 1.0, completed=100, met=80) == "slo-attainment"
        assert decide(scaler, 1.0, completed=100, met=99) is None

    def test_empty_window_never_triggers_the_slo_signal(self):
        scaler = Autoscaler(AutoscalerConfig(ttft_slo_s=0.5))
        assert decide(scaler, 1.0, completed=0, met=0) is None

    def test_max_extra_caps_scale_up(self):
        scaler = Autoscaler(AutoscalerConfig(max_extra=2))
        scaler.extras = 2
        assert decide(scaler, 100.0) is None

    def test_shallow_queues_drain_an_extra_replica(self):
        scaler = Autoscaler(AutoscalerConfig(scale_down_depth=0.5))
        scaler.extras = 1
        assert decide(scaler, 0.1) == "drained"

    def test_never_drains_below_the_static_fleet(self):
        scaler = Autoscaler(AutoscalerConfig())
        assert decide(scaler, 0.0) is None

    def test_unhealthy_slo_blocks_scale_down(self):
        scaler = Autoscaler(
            AutoscalerConfig(ttft_slo_s=0.5, min_attainment=0.95)
        )
        scaler.extras = 1
        assert decide(scaler, 0.1, completed=10, met=5) == "slo-attainment"
        scaler.extras = scaler.config.max_extra
        assert decide(scaler, 0.1, completed=10, met=5) is None
