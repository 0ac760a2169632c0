"""Unit tests for the generation model and the CSV/JSON exporters."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.analysis.export import sweep_to_csv, write_sweep
from repro.analysis.generation import evaluate_generation
from repro.api import Session
from repro.core.schedule import RuntimeCategory
from repro.errors import AnalysisError
from repro.graph.workload import autoregressive
from repro.hw.presets import get_platform_preset, siracusa_platform
from repro.models import tinyllama_42m


@pytest.fixture(scope="module")
def sweep():
    return Session().sweep(autoregressive(tinyllama_42m(), 128), (1, 8))


class TestGeneration:
    @pytest.fixture(scope="class")
    def reply(self):
        return evaluate_generation(
            tinyllama_42m(),
            siracusa_platform(8),
            prompt_tokens=16,
            generated_tokens=32,
            context_samples=3,
        )

    def test_structure(self, reply):
        assert reply.prompt_tokens == 16
        assert reply.generated_tokens == 32
        assert len(reply.steps) == 32
        assert reply.platform_chips == 8

    def test_context_lengths_grow_monotonically(self, reply):
        lengths = [step.context_length for step in reply.steps]
        assert lengths[0] == 17
        assert lengths[-1] == 48
        assert lengths == sorted(lengths)

    def test_totals_are_sums_of_parts(self, reply):
        assert reply.total_cycles == pytest.approx(
            reply.prompt_cycles + reply.decode_cycles
        )
        assert reply.decode_cycles == pytest.approx(
            sum(step.inference_cycles for step in reply.steps)
        )
        assert reply.total_energy_joules > reply.prompt_report.inference_energy_joules
        assert reply.mean_time_per_token_cycles > 0

    def test_total_seconds(self, reply):
        assert reply.total_seconds() == pytest.approx(reply.total_cycles / 500e6)
        with pytest.raises(AnalysisError):
            reply.total_seconds(0)

    def test_total_seconds_runs_at_the_platform_clock(self):
        low_power = get_platform_preset("siracusa-low-power").build(8)
        reply = evaluate_generation(
            tinyllama_42m(), low_power, prompt_tokens=16, generated_tokens=4
        )
        assert reply.total_seconds() == reply.total_cycles / 300e6
        assert reply.total_seconds(500e6) == reply.total_cycles / 500e6

    def test_distribution_beats_single_chip(self):
        single = evaluate_generation(
            tinyllama_42m(),
            siracusa_platform(1),
            prompt_tokens=16,
            generated_tokens=8,
            context_samples=2,
        )
        distributed = evaluate_generation(
            tinyllama_42m(),
            siracusa_platform(8),
            prompt_tokens=16,
            generated_tokens=8,
            context_samples=2,
        )
        assert distributed.total_cycles < single.total_cycles / 8

    def test_invalid_arguments_rejected(self):
        with pytest.raises(AnalysisError):
            evaluate_generation(
                tinyllama_42m(), siracusa_platform(1),
                prompt_tokens=0, generated_tokens=4,
            )
        with pytest.raises(AnalysisError):
            evaluate_generation(
                tinyllama_42m(), siracusa_platform(1),
                prompt_tokens=4, generated_tokens=-1,
            )
        with pytest.raises(AnalysisError):
            evaluate_generation(
                tinyllama_42m(), siracusa_platform(1),
                prompt_tokens=4, generated_tokens=4, context_samples=0,
            )


class TestGenerationEdgeCases:
    """Edge cases the serving simulator depends on."""

    def test_zero_generated_tokens_is_a_pure_prompt_pass(self):
        reply = evaluate_generation(
            tinyllama_42m(), siracusa_platform(8),
            prompt_tokens=16, generated_tokens=0,
        )
        assert reply.generated_tokens == 0
        assert reply.steps == []
        assert reply.decode_cycles == 0.0
        assert reply.total_cycles == pytest.approx(reply.prompt_cycles)
        assert reply.total_energy_joules == pytest.approx(
            reply.prompt_report.inference_energy_joules
        )
        assert reply.mean_time_per_token_cycles == 0.0

    def test_single_generated_token(self):
        reply = evaluate_generation(
            tinyllama_42m(), siracusa_platform(8),
            prompt_tokens=16, generated_tokens=1,
        )
        assert len(reply.steps) == 1
        assert reply.steps[0].context_length == 17
        assert reply.decode_cycles == reply.steps[0].inference_cycles

    def test_more_samples_than_tokens_deduplicates(self):
        # 3 generated tokens but 16 requested samples: the sample grid
        # collapses to the 3 distinct context lengths without error.
        reply = evaluate_generation(
            tinyllama_42m(), siracusa_platform(8),
            prompt_tokens=8, generated_tokens=3, context_samples=16,
        )
        assert [step.context_length for step in reply.steps] == [9, 10, 11]

    def test_interpolation_is_monotone_in_context(self):
        # Piecewise-constant interpolation must assign non-decreasing
        # per-step costs as the context grows (the attention and KV terms
        # only grow), even between sampled lengths.
        reply = evaluate_generation(
            tinyllama_42m(), siracusa_platform(8),
            prompt_tokens=16, generated_tokens=64, context_samples=4,
        )
        cycles = [step.inference_cycles for step in reply.steps]
        assert all(late >= early for early, late in zip(cycles, cycles[1:]))
        # And the interpolation endpoints are exact: the last step uses
        # the final sampled context, the first step the earliest.
        assert reply.steps[0].context_length == 17
        assert reply.steps[-1].context_length == 80

    def test_interpolation_tracks_exact_evaluation_closely(self):
        coarse = evaluate_generation(
            tinyllama_42m(), siracusa_platform(8),
            prompt_tokens=16, generated_tokens=32, context_samples=2,
        )
        exact = evaluate_generation(
            tinyllama_42m(), siracusa_platform(8),
            prompt_tokens=16, generated_tokens=32, context_samples=32,
        )
        assert coarse.decode_cycles == pytest.approx(
            exact.decode_cycles, rel=0.05
        )


class TestExport:
    def test_result_to_dict_fields(self):
        result = Session().run(autoregressive(tinyllama_42m(), 128), chips=8)
        record = result.to_dict()
        assert record["num_chips"] == 8
        assert "speedup" not in record
        assert record["on_chip"] is True
        assert set(record["energy_breakdown_joules"]) == {
            "compute", "l2_l1", "l3_l2", "chip_to_chip",
        }
        json.dumps(record)  # must be JSON-serialisable

    def test_sweep_records_include_speedups(self, sweep):
        records = sweep.to_dict()["results"]
        assert len(records) == 2
        assert records[0]["speedup"] == pytest.approx(1.0)
        assert records[1]["speedup"] > 8

    def test_json_round_trip(self, sweep):
        document = json.loads(sweep.to_json())
        assert document["workload"] == sweep.workload.name
        assert document["strategy"] == "paper"
        assert document["chip_counts"] == [1, 8]
        assert len(document["results"]) == 2
        assert "cache" not in document

    def test_csv_has_header_and_rows(self, sweep):
        text = sweep_to_csv(sweep)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["num_chips"] == "1"
        assert float(rows[1]["speedup"]) > 8

    def test_write_sweep_dispatches_on_extension(self, sweep, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        write_sweep(sweep, str(json_path))
        write_sweep(sweep, str(csv_path))
        assert json_path.read_text() == sweep.to_json()
        assert csv_path.read_bytes() == sweep_to_csv(sweep).encode()
        assert csv_path.read_text().startswith("workload,")
        with pytest.raises(AnalysisError):
            write_sweep(sweep, str(tmp_path / "sweep.txt"))

    def test_an_analytical_sweep_writes_empty_simulator_cells(self, tmp_path):
        analytical = Session().sweep(
            autoregressive(tinyllama_42m(), 128), (1, 8),
            strategy="weight_replicated",
        )
        csv_path = tmp_path / "sweep.csv"
        write_sweep(analytical, str(csv_path))
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert [row["num_chips"] for row in rows] == ["1", "8"]
        for row in rows:
            assert float(row["block_cycles"]) > 0
            assert row["on_chip"] == row["compute_cycles"] == row["c2c_bytes"] == ""


class TestEvalResultExport:
    """The shared --json schema across strategies (simulator + analytical)."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import Session

        return Session()

    @pytest.fixture(scope="class")
    def workload(self):
        return autoregressive(tinyllama_42m(), 128)

    def test_simulator_backed_result_carries_the_report(
        self, session, workload
    ):
        result = session.run(workload, "paper", chips=8)
        report = result.report
        record = result.to_dict()
        breakdown = report.runtime_breakdown()
        assert record["block_cycles"] == report.block_cycles
        assert record["block_runtime_seconds"] == report.block_runtime_seconds
        assert record["energy_delay_product"] == report.energy_delay_product
        assert record["l3_bytes"] == report.total_l3_bytes
        assert record["c2c_bytes"] == report.total_c2c_bytes
        assert record["compute_cycles"] == breakdown[RuntimeCategory.COMPUTE]
        assert record["idle_cycles"] == breakdown[RuntimeCategory.IDLE]
        assert record["residencies"] == {
            str(chip): residency.value
            for chip, residency in report.residencies().items()
        }
        assert record["strategy"] == "paper"
        assert record["weights_replicated"] is False
        json.dumps(record)

    def test_analytical_result_fills_simulator_fields_with_none(
        self, session, workload
    ):
        result = session.run(workload, "weight_replicated", chips=8)
        record = result.to_dict()
        assert record["compute_cycles"] is None
        assert record["residencies"] is None
        assert record["block_cycles"] > 0
        assert record["weights_replicated"] is True
        json.dumps(record)

    def test_both_branches_share_one_key_set(self, session, workload):
        simulator = session.run(workload, "paper", chips=8).to_dict()
        analytical = session.run(workload, "weight_replicated", chips=8).to_dict()
        assert set(simulator) == set(analytical)

    def test_sweep_to_json_works_for_any_strategy(self, session, workload):
        for strategy in ("paper", "weight_replicated"):
            document = json.loads(
                session.sweep(workload, (1, 8), strategy=strategy).to_json()
            )
            assert document["strategy"] == strategy
            assert document["chip_counts"] == [1, 8]
            assert document["results"][0]["speedup"] == pytest.approx(1.0)

    def test_sweep_cache_block_is_the_one_difference(self, session, workload):
        sweep = session.sweep(workload, (1, 8))
        cache = session.cache_info()
        document = sweep.to_dict(cache=cache)
        assert document.pop("cache") == cache.to_dict()
        assert document == sweep.to_dict()

    def test_comparison_to_json_lists_strategies_in_order(
        self, session, workload
    ):
        comparison = session.compare(workload, chips=8)
        document = json.loads(comparison.to_json())
        assert document["strategies"] == [
            "single_chip", "weight_replicated", "pipeline_parallel",
            "tensor_parallel",
        ]
        assert len(document["results"]) == 4
        assert document["num_chips"] == 8
