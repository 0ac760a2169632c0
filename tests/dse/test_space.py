"""Unit tests for the search-space axes, sampling, and materialisation."""

from __future__ import annotations

import random

import pytest

from repro.dse.space import (
    ChoiceAxis,
    FloatAxis,
    IntAxis,
    SearchSpace,
    default_space,
    materialise,
    point_key,
)
from repro.errors import ConfigurationError, UnknownStrategyError
from repro.units import gigabytes_per_second, kib


class TestAxes:
    def test_choice_axis(self):
        axis = ChoiceAxis("strategy", ("paper", "single_chip"))
        assert axis.size == 2
        assert axis.contains("paper")
        assert not axis.contains("bogus")
        assert axis.values() == ("paper", "single_chip")
        assert axis.sample(random.Random(0)) in axis.values()

    def test_choice_axis_rejects_empty_and_duplicates(self):
        with pytest.raises(ConfigurationError):
            ChoiceAxis("x", ())
        with pytest.raises(ConfigurationError):
            ChoiceAxis("x", (1, 1))

    def test_int_axis(self):
        axis = IntAxis("chips", 2, 8, step=2)
        assert axis.values() == (2, 4, 6, 8)
        assert axis.size == 4
        assert axis.contains(6)
        assert not axis.contains(3)  # off-grid
        assert not axis.contains(10)  # out of bounds
        assert not axis.contains(True)  # bools are not chip counts
        assert axis.sample(random.Random(1)) in axis.values()

    def test_int_axis_rejects_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            IntAxis("x", 4, 2)
        with pytest.raises(ConfigurationError):
            IntAxis("x", 1, 4, step=0)

    def test_float_axis_with_levels(self):
        axis = FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 0.5, 1.0))
        assert axis.size == 3
        assert axis.values() == (0.25, 0.5, 1.0)
        assert axis.contains(0.5)
        assert not axis.contains(0.3)  # in bounds but off-level (like IntAxis)
        assert not axis.contains(2.0)
        assert axis.sample(random.Random(2)) in axis.values()

    def test_float_axis_continuous(self):
        axis = FloatAxis("freq", 100.0, 200.0)
        assert axis.size is None
        value = axis.sample(random.Random(3))
        assert 100.0 <= value <= 200.0
        with pytest.raises(ConfigurationError):
            axis.values()

    def test_float_axis_rejects_out_of_bounds_levels(self):
        with pytest.raises(ConfigurationError):
            FloatAxis("x", 0.0, 1.0, levels=(0.5, 2.0))


class TestSearchSpace:
    def test_requires_unique_axis_names(self):
        with pytest.raises(ConfigurationError):
            SearchSpace(axes=(ChoiceAxis("a", (1,)), ChoiceAxis("a", (2,))))
        with pytest.raises(ConfigurationError):
            SearchSpace(axes=())

    def test_size_and_grid(self):
        space = SearchSpace(
            axes=(ChoiceAxis("a", (1, 2)), ChoiceAxis("b", ("x", "y", "z")))
        )
        assert space.size == 6
        grid = list(space.grid())
        assert len(grid) == 6
        assert {point_key(point) for point in grid} == {
            (("a", left), ("b", right))
            for left in (1, 2)
            for right in ("x", "y", "z")
        }
        assert all(space.contains(point) for point in grid)

    def test_continuous_axis_makes_space_infinite(self):
        space = SearchSpace(axes=(FloatAxis("f", 0.0, 1.0),))
        assert space.size is None
        with pytest.raises(ConfigurationError):
            list(space.grid())

    def test_contains_requires_exact_axis_set(self):
        space = default_space()
        point = space.sample(random.Random(0))
        assert space.contains(point)
        assert not space.contains({**point, "extra": 1})
        missing = dict(point)
        missing.pop("chips")
        assert not space.contains(missing)

    def test_equal_seeds_sample_identically(self):
        space = default_space()
        assert space.sample_many(20, seed=7) == space.sample_many(20, seed=7)
        assert space.sample_many(20, seed=7) != space.sample_many(20, seed=8)

    def test_mutate_changes_at_most_one_axis_and_stays_inside(self):
        space = default_space()
        rng = random.Random(5)
        point = space.sample(rng)
        for _ in range(50):
            neighbour = space.mutate(point, rng)
            assert space.contains(neighbour)
            changed = [
                name for name in space.names if neighbour[name] != point[name]
            ]
            assert len(changed) <= 1

    def test_axis_lookup(self):
        space = default_space()
        assert space.axis("chips").name == "chips"
        with pytest.raises(ConfigurationError):
            space.axis("bogus")


class TestMaterialise:
    def test_default_point_is_the_paper_platform(self):
        design = materialise({})
        assert design.platform.num_chips == 8
        assert design.platform.chip.cluster.num_cores == 8
        assert design.strategy == "paper"

    def test_full_point_overrides_every_knob(self):
        design = materialise(
            {
                "chips": 4,
                "cores": 16,
                "freq_mhz": 300.0,
                "l2_kib": 4096,
                "link_gbps": 2.0,
                "link_pj_per_byte": 50.0,
                "group_size": 2,
                "strategy": "ours",  # alias resolves to the canonical name
            }
        )
        platform = design.platform
        assert platform.num_chips == 4
        assert platform.group_size == 2
        assert platform.chip.cluster.num_cores == 16
        assert platform.chip.cluster.frequency_hz == pytest.approx(300e6)
        assert platform.chip.l2.size_bytes == kib(4096)
        assert platform.link.bandwidth_bytes_per_s == pytest.approx(
            gigabytes_per_second(2.0)
        )
        assert platform.link.energy_pj_per_byte == pytest.approx(50.0)
        assert design.strategy == "paper"

    def test_small_l2_clamps_the_runtime_reserve(self):
        design = materialise({"l2_kib": 512})
        chip = design.platform.chip
        assert chip.l2.size_bytes == kib(512)
        assert chip.l2_runtime_reserve_bytes == kib(512) // 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown design axes"):
            materialise({"chps": 8})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(UnknownStrategyError):
            materialise({"strategy": "bogus"})

    def test_type_validation(self):
        with pytest.raises(ConfigurationError):
            materialise({"chips": "eight"})
        with pytest.raises(ConfigurationError):
            materialise({"chips": 0})
        with pytest.raises(ConfigurationError):
            materialise({"link_gbps": "fast"})
        # Integral floats (e.g. from a FloatAxis) coerce cleanly.
        assert materialise({"chips": 4.0}).platform.num_chips == 4


class TestModelAxes:
    def _workload(self):
        from repro.graph.workload import autoregressive
        from repro.models import tinyllama_42m

        return autoregressive(tinyllama_42m(), 128)

    def test_model_axes_require_a_workload(self):
        with pytest.raises(ConfigurationError, match="workload"):
            materialise({"kv_heads": 2})

    def test_model_axis_swaps_the_registry_model(self):
        design = materialise(
            {"model": "mobilebert"}, workload=self._workload()
        )
        assert design.workload is not None
        assert design.workload.config.name == "mobilebert"

    def test_unknown_model_name_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            materialise({"model": "gpt-4"}, workload=self._workload())

    def test_kv_heads_override_renames_the_variant(self):
        design = materialise({"kv_heads": 2}, workload=self._workload())
        config = design.workload.config
        assert config.kv_heads == 2
        assert config.name.endswith("+kv2")

    def test_expert_axis_clamps_top_k(self):
        design = materialise({"num_experts": 2}, workload=self._workload())
        config = design.workload.config
        assert config.num_experts == 2
        assert config.moe_top_k <= config.num_experts

    def test_window_axis_zero_means_unwindowed(self):
        design = materialise({"attention_window": 0}, workload=self._workload())
        assert design.workload.config.attention_window is None

    def test_invalid_architecture_is_infeasible(self):
        from repro.errors import ArchitectureError

        with pytest.raises(ArchitectureError):
            materialise({"kv_heads": 3}, workload=self._workload())

    def test_plain_platform_point_leaves_workload_unset(self):
        design = materialise({"chips": 4}, workload=self._workload())
        assert design.workload is None
