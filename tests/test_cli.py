"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import _spec_from_flags, build_parser, main


def expect_cli_error(capsys, argv, *needles):
    """Assert the uniform CLI failure contract: exit 2, one `error:` line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    for needle in needles:
        assert needle in err
    return err


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        spec = _spec_from_flags(build_parser().parse_args(["evaluate"]))
        assert spec.workload.model.name == "tinyllama-42m"
        assert spec.workload.mode == "autoregressive"
        assert spec.platform.chips == 8

    def test_building_the_parser_imports_nothing(self):
        # --help quotes fleet defaults, but looks them up only when it is
        # printed: building the parser loads no module of its own.
        code = (
            "import sys, repro.cli\n"
            "before = set(sys.modules)\n"
            "repro.cli.build_parser()\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        source = pathlib.Path(repro.__file__).resolve().parents[1]
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert "repro" not in loaded

    def test_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--mode", "training"])


class TestCommands:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        assert "tinyllama-42m" in output
        assert "mobilebert" in output
        assert "MiB" in output

    def test_evaluate_prints_summary(self, capsys):
        assert main(["evaluate", "--chips", "8"]) == 0
        output = capsys.readouterr().out
        assert "8 chip(s)" in output
        assert "L3 traffic" in output
        assert "breakdown" in output

    def test_evaluate_other_mode_and_seq_len(self, capsys):
        assert main(
            ["evaluate", "--model", "mobilebert", "--mode", "encoder",
             "--seq-len", "64", "--chips", "4"]
        ) == 0
        output = capsys.readouterr().out
        assert "mobilebert" in output

    def test_sweep_prints_tables_and_exports(self, capsys, tmp_path):
        output_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--chips", "1", "8", "--output", str(output_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "Speedup" in output
        assert "Energy/block" in output
        document = json.loads(output_path.read_text())
        assert document["chip_counts"] == [1, 8]

    def test_verify_reports_exactness(self, capsys):
        assert main(["verify", "--model", "mobilebert", "--chips", "4"]) == 0
        output = capsys.readouterr().out
        assert "EXACT" in output

    def test_experiments_single_figure(self, capsys):
        assert main(["experiments", "--only", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "tensor parallel" in output.lower()


class TestStrategyCommands:
    def test_strategies_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        output = capsys.readouterr().out
        for name in (
            "paper",
            "single_chip",
            "weight_replicated",
            "pipeline_parallel",
            "tensor_parallel",
        ):
            assert name in output

    def test_evaluate_with_baseline_strategy(self, capsys):
        assert main(
            ["evaluate", "--strategy", "pipeline_parallel", "--chips", "4"]
        ) == 0
        output = capsys.readouterr().out
        assert "pipeline_parallel" in output
        assert "L3 traffic" in output

    def test_evaluate_unknown_strategy_errors(self, capsys):
        # Invalid input must exit 2 with a one-line `error: ...` on
        # stderr, not a traceback.
        assert main(["evaluate", "--strategy", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "bogus" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_sweep_with_any_strategy(self, capsys):
        assert main(
            ["sweep", "--strategy", "weight_replicated", "--chips", "1", "8"]
        ) == 0
        output = capsys.readouterr().out
        assert "weight_replicated" in output
        assert "Cycles/block" in output
        assert "Speedup" in output

    def test_compare_prints_ablation(self, capsys):
        assert main(["compare", "--chips", "8"]) == 0
        output = capsys.readouterr().out
        assert "Single chip" in output
        assert "Pipeline parallel" in output
        assert "fastest: tensor_parallel" in output

    def test_compare_custom_strategy_list(self, capsys):
        assert main(
            ["compare", "--chips", "8", "--strategies", "single_chip", "paper"]
        ) == 0
        output = capsys.readouterr().out
        assert "Single chip" in output
        assert "fastest: paper" in output


class TestJsonOutput:
    def test_evaluate_json(self, capsys):
        assert main(["evaluate", "--chips", "8", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["num_chips"] == 8
        assert record["strategy"] == "paper"
        assert record["block_cycles"] > 0

    def test_evaluate_json_analytical_strategy(self, capsys):
        assert main(
            ["evaluate", "--strategy", "pipeline_parallel", "--chips", "4",
             "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["strategy"] == "pipeline_parallel"
        assert record["compute_cycles"] is None

    def test_sweep_json_stdout_and_file(self, capsys, tmp_path):
        output_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--chips", "1", "8", "--json",
             "--output", str(output_path)]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["chip_counts"] == [1, 8]
        assert json.loads(output_path.read_text()) == document

    def test_sweep_json_works_for_analytical_strategies(self, capsys):
        assert main(
            ["sweep", "--strategy", "weight_replicated", "--chips", "1", "8",
             "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["strategy"] == "weight_replicated"

    def test_sweep_output_is_the_json_document_without_cache(
        self, capsys, tmp_path
    ):
        output_path = tmp_path / "sweep.json"
        argv = ["sweep", "--chips", "1", "8", "--no-cache"]
        assert main(argv + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        del document["cache"]
        assert main(argv + ["--output", str(output_path)]) == 0
        assert f"wrote {output_path}" in capsys.readouterr().out
        assert output_path.read_text() == json.dumps(
            document, indent=2, sort_keys=True
        )

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_an_analytical_sweep_writes_its_output(
        self, capsys, tmp_path, suffix
    ):
        output_path = tmp_path / f"sweep{suffix}"
        assert main(
            ["sweep", "--strategy", "weight_replicated", "--chips", "1", "8",
             "--output", str(output_path)]
        ) == 0
        assert f"wrote {output_path}" in capsys.readouterr().out
        text = output_path.read_text()
        if suffix == ".json":
            document = json.loads(text)
            assert document["strategy"] == "weight_replicated"
            assert [r["compute_cycles"] for r in document["results"]] == [
                None, None
            ]
        else:
            lines = text.splitlines()
            assert lines[0].startswith("workload,num_chips,")
            assert len(lines) == 3

    def test_compare_json(self, capsys):
        assert main(["compare", "--chips", "8", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["results"]) == 4

    def test_sweep_json_rejects_non_json_output_path(self, tmp_path, capsys):
        expect_cli_error(
            capsys,
            ["sweep", "--chips", "1", "8", "--json",
             "--output", str(tmp_path / "sweep.csv")],
            ".json",
        )

    def test_sweep_rejects_unknown_export_extension_before_evaluating(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.api import Session

        sweeps = []
        monkeypatch.setattr(Session, "sweep", lambda *a, **k: sweeps.append(a))
        expect_cli_error(
            capsys,
            ["sweep", "--chips", "1", "8",
             "--output", str(tmp_path / "results.txt")],
            "results.txt", ".json or .csv",
        )
        assert sweeps == []
        assert not (tmp_path / "results.txt").exists()


class TestDiscoveryCommands:
    def test_platforms_lists_presets_with_headline_parameters(self, capsys):
        assert main(["platforms"]) == 0
        output = capsys.readouterr().out
        assert "siracusa-mipi" in output
        assert "siracusa-fast-link" in output
        assert "siracusa-big-l2" in output
        assert "cores=8" in output
        assert "GB/s" in output
        assert "pJ/B" in output

    def test_searchers_lists_searchers_and_objectives(self, capsys):
        assert main(["searchers"]) == 0
        output = capsys.readouterr().out
        for name in ("grid", "random", "anneal", "evolution"):
            assert name in output
        assert "objectives:" in output
        for name in ("latency", "energy", "hw_cost", "slo"):
            assert name in output


class TestTuneCommand:
    TUNE = ["tune", "--budget", "8", "--seed", "0",
            "--chips", "1", "8", "--link-gbps", "0.5", "1.0",
            "--l2-kib", "2048", "--freq-mhz", "500"]

    def test_tune_prints_the_front(self, capsys):
        assert main(self.TUNE) == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "latency (min)" in output
        assert "cache" in output

    def test_tune_json_is_byte_identical_across_runs(self, capsys):
        # --no-cache keeps the two runs' cache statistics comparable (a
        # warm persistent cache would turn the second run's misses into
        # disk hits, which is the point of the cache, not a bug).
        assert main(self.TUNE + ["--json", "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert main(self.TUNE + ["--json", "--no-cache"]) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["seed"] == 0
        assert document["budget"] == 8
        assert document["searcher"] == "random"
        assert document["front"]
        assert document["cache"]["misses"] == len(document["candidates"])
        assert document["evaluations_requested"] == 8

    def test_tune_with_constraint_and_searcher(self, capsys):
        assert main(
            self.TUNE + ["--searcher", "anneal",
                         "--objectives", "hw_cost", "latency",
                         "--constraint", "latency<=1.0", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["searcher"] == "anneal"
        assert document["constraints"] == ["latency<=1"]
        assert [o["name"] for o in document["objectives"]] == [
            "hw_cost", "latency",
        ]

    def test_tune_unknown_searcher_errors(self, capsys):
        expect_cli_error(capsys, self.TUNE + ["--searcher", "bogus"], "bogus")

    def test_tune_unknown_objective_errors(self, capsys):
        expect_cli_error(capsys, self.TUNE + ["--objectives", "karma"], "karma")

    @pytest.mark.parametrize("bound", ["latency<=1e400", "energy>=-1e400"])
    def test_tune_non_finite_constraint_errors(self, capsys, tmp_path, bound):
        # A bound beyond float range would print and run as `<=inf`, a
        # constraint that parse_constraint itself rejects.
        for extra in (["--emit-spec"], ["--no-cache"]):
            expect_cli_error(
                capsys, self.TUNE + ["--constraint", bound, *extra],
                "bound must be finite",
            )
        document = tmp_path / "tune.json"
        document.write_text(json.dumps({"kind": "tune", "constraints": [bound]}))
        expect_cli_error(
            capsys, ["study", "validate", str(document)],
            "tune.json.constraints[0]", "bound must be finite",
        )


class TestTuneOrchestratorFlags:
    """The orchestrator flags: --parallel/--checkpoint/--resume."""

    TUNE = TestTuneCommand.TUNE + ["--json", "--no-cache"]

    @staticmethod
    def _sans_cache(text: str) -> dict:
        document = json.loads(text)
        document.pop("cache", None)
        return document

    def test_malformed_parallel_errors(self, capsys):
        expect_cli_error(
            capsys, self.TUNE + ["--parallel", "x"],
            "--parallel", "integer", "'x'",
        )
        expect_cli_error(
            capsys, self.TUNE + ["--parallel", "0"], "--parallel", ">= 1",
        )

    def test_malformed_checkpoint_errors(self, capsys, tmp_path):
        expect_cli_error(
            capsys, self.TUNE + ["--checkpoint", "  "], "--checkpoint",
        )
        expect_cli_error(
            capsys,
            self.TUNE + ["--checkpoint", str(tmp_path)],
            "--checkpoint", "directory",
        )
        expect_cli_error(
            capsys,
            self.TUNE + ["--checkpoint-every", "5"],
            "--checkpoint-every", "needs --checkpoint",
        )
        expect_cli_error(
            capsys,
            self.TUNE + ["--checkpoint", str(tmp_path / "ck.json"),
                         "--checkpoint-every", "none"],
            "--checkpoint-every", "integer",
        )

    def test_malformed_resume_errors(self, capsys, tmp_path):
        expect_cli_error(
            capsys,
            self.TUNE + ["--resume", str(tmp_path / "missing.json")],
            "cannot read checkpoint",
        )
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        expect_cli_error(
            capsys, self.TUNE + ["--resume", str(bad)], "not valid JSON",
        )

    def test_resume_from_a_malformed_checkpoint_errors(self, capsys, tmp_path):
        checkpoint = tmp_path / "ck.json"
        assert main(self.TUNE + ["--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        document = json.loads(checkpoint.read_text(encoding="utf-8"))
        document["front"] = None
        checkpoint.write_text(json.dumps(document), encoding="utf-8")
        err = expect_cli_error(
            capsys, self.TUNE + ["--resume", str(checkpoint)],
            "front", "expected a list",
        )
        assert err.startswith(f"error: {checkpoint}.front: ")

    def test_resume_from_a_different_search_errors(self, capsys, tmp_path):
        checkpoint = tmp_path / "ck.json"
        assert main(
            self.TUNE + ["--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        expect_cli_error(
            capsys,
            self.TUNE[:2] + ["9"] + self.TUNE[3:]  # --budget 9, not 8
            + ["--resume", str(checkpoint)],
            "different search", "budget",
        )

    def test_parallel_tune_is_byte_identical_to_serial(self, capsys):
        assert main(self.TUNE) == 0
        serial = capsys.readouterr().out
        assert main(self.TUNE + ["--parallel", "2"]) == 0
        assert capsys.readouterr().out == serial  # `cache` block included

    def test_checkpoint_resume_reproduces_the_run(self, capsys, tmp_path):
        checkpoint = tmp_path / "ck.json"
        assert main(
            self.TUNE + ["--checkpoint", str(checkpoint),
                         "--checkpoint-every", "3"]
        ) == 0
        reference = self._sans_cache(capsys.readouterr().out)
        final_checkpoint = checkpoint.read_bytes()
        assert json.loads(final_checkpoint)["kind"] == "search_state"
        assert main(self.TUNE + ["--resume", str(checkpoint)]) == 0
        resumed = self._sans_cache(capsys.readouterr().out)
        assert resumed == reference
        assert checkpoint.read_bytes() == final_checkpoint

    def test_emit_spec_carries_the_orchestrator_fields(self, capsys, tmp_path):
        assert main(
            self.TUNE + ["--emit-spec", "--parallel", "4",
                         "--checkpoint", str(tmp_path / "ck.json"),
                         "--checkpoint-every", "7"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["parallel"] == 4
        assert document["checkpoint_every"] == 7


class TestCacheVisibility:
    def test_sweep_json_reports_cache_statistics(self, capsys):
        assert main(["sweep", "--chips", "1", "8", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["cache"] == {
            "hits": 0, "misses": 2, "size": 2, "disk_hits": 0,
        }

    def test_serve_json_reports_cache_statistics(self, capsys):
        assert main(
            ["serve", "--model", "tinyllama", "--arrival-rate", "2",
             "--duration", "20", "--seed", "0", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        cache = document["cache"]
        assert cache["misses"] > 0
        assert cache["size"] == cache["misses"]


class TestServeCommand:
    SERVE = ["serve", "--model", "tinyllama", "--arrival-rate", "2",
             "--duration", "20", "--policy", "fifo", "--seed", "0"]

    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        output = capsys.readouterr().out
        for name in ("fifo", "shortest_prompt", "priority", "continuous"):
            assert name in output

    def test_serve_reports_the_headline_metrics(self, capsys):
        assert main(self.SERVE) == 0
        output = capsys.readouterr().out
        for token in ("TTFT", "TPOT", "e2e", "p50", "p95", "p99",
                      "throughput", "energy", "SLO"):
            assert token in output

    def test_serve_json_is_byte_identical_across_runs(self, capsys):
        # --no-cache: see the tune determinism test — the reported cache
        # statistics depend on what is already on disk by design.
        assert main(self.SERVE + ["--json", "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert main(self.SERVE + ["--json", "--no-cache"]) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["seed"] == 0
        assert document["policy"] == "fifo"
        metrics = document["metrics"]
        for key in ("ttft_s", "tpot_s", "e2e_s", "throughput_rps",
                    "throughput_tps", "energy_per_request_joules",
                    "slo_curve"):
            assert key in metrics
        for summary_key in ("p50", "p95", "p99"):
            assert summary_key in metrics["ttft_s"]

    def test_serve_other_traces_and_policies(self, capsys):
        assert main(
            ["serve", "--trace", "bursty", "--arrival-rate", "1",
             "--duration", "30", "--policy", "continuous", "--seed", "1"]
        ) == 0
        assert "Served" in capsys.readouterr().out
        assert main(
            ["serve", "--trace", "closed", "--clients", "4",
             "--requests-per-client", "3", "--policy", "shortest_prompt"]
        ) == 0
        assert "Served" in capsys.readouterr().out

    def test_serve_save_and_replay_round_trip(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(self.SERVE + ["--save-trace", str(trace_path),
                                  "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["serve", "--replay", str(trace_path), "--policy", "fifo",
                     "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["metrics"] == first["metrics"]

    def test_serve_replay_rejects_a_conflicting_seed(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(self.SERVE + ["--save-trace", str(trace_path)]) == 0
        capsys.readouterr()  # drop the successful run's output
        expect_cli_error(
            capsys,
            ["serve", "--replay", str(trace_path), "--seed", "7"],
            "--replay",
        )

    def test_serve_custom_slo_targets(self, capsys):
        assert main(self.SERVE + ["--slo-ttft", "0.25", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [point["ttft_target_s"]
                for point in document["metrics"]["slo_curve"]] == [0.25]

    def test_serve_unknown_policy_errors(self, capsys):
        expect_cli_error(capsys, self.SERVE[:-2] + ["--policy", "bogus"], "bogus")


class TestFleetCommand:
    FLEET = ["fleet", "--model", "tinyllama", "--arrival-rate", "2",
             "--duration", "20", "--router", "round_robin", "--seed", "0"]

    def test_routers_lists_registry_with_labels(self, capsys):
        assert main(["routers"]) == 0
        output = capsys.readouterr().out
        for name in ("round_robin", "least_loaded", "session_affinity",
                     "prefill_decode"):
            assert name in output
        assert "shortest queue" in output

    def test_fleet_reports_the_headline_metrics(self, capsys):
        assert main(self.FLEET) == 0
        output = capsys.readouterr().out
        for token in ("Fleet served", "router=round_robin", "admitted",
                      "TTFT", "TPOT", "replicas", "SLO"):
            assert token in output

    def test_fleet_json_is_byte_identical_across_runs(self, capsys):
        assert main(self.FLEET + ["--json", "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert main(self.FLEET + ["--json", "--no-cache"]) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["router"] == "round_robin"
        assert document["seed"] == 0
        assert "cache" in document
        metrics = document["metrics"]
        assert metrics["requests"]["in_flight"] == 0
        for key in ("ttft_s", "throughput_rps", "slo_curve", "replicas",
                    "classes", "timeline"):
            assert key in metrics

    def test_fleet_heterogeneous_platforms_and_classes(self, capsys):
        assert main(
            ["fleet", "--platform", "siracusa-mipi:8x2",
             "--platform", "siracusa-low-power@decode",
             "--router", "least_loaded", "--trace", "diurnal",
             "--arrival-rate", "2", "--duration", "30", "--period", "30",
             "--class", "interactive:4:4:0.5", "--class", "batch",
             "--priority-levels", "2", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        replicas = document["metrics"]["replicas"]
        assert [r["preset"] for r in replicas] == [
            "siracusa-mipi", "siracusa-mipi", "siracusa-low-power",
        ]
        assert replicas[2]["role"] == "decode"
        classes = document["metrics"]["classes"]
        assert [row["name"] for row in classes] == ["interactive", "batch"]
        assert classes[0]["ttft_slo_s"] == 0.5

    def test_fleet_emit_spec_replays_to_the_same_document(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "fleet.json"
        assert main(self.FLEET + ["--emit-spec"]) == 0
        spec_path.write_text(capsys.readouterr().out)
        assert main(["--no-cache"] + self.FLEET + ["--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(["--no-cache", "study", "run", str(spec_path),
                     "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        direct.pop("cache")
        assert replayed["stages"][0]["payload"] == direct

    def test_fleet_unknown_router_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--router", "nope", "--duration", "10"],
            "unknown router 'nope'",
            "round_robin",
        )

    def test_fleet_malformed_platform_errors(self, capsys):
        err = expect_cli_error(
            capsys,
            ["fleet", "--platform", "siracusa-mipi:8xtwo"],
            "cannot parse fleet platform",
        )
        # A CLI flag error must not leak the spec-document path prefix.
        assert err.startswith("error: cannot parse")

    def test_fleet_malformed_class_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--class", ":2"],
            "cannot parse SLO class",
        )
        expect_cli_error(
            capsys,
            ["fleet", "--class", "gold:fast"],
            "cannot parse SLO class",
        )

    def test_fleet_malformed_autoscale_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--autoscale", "siracusa-mipi:zz"],
            "cannot parse --autoscale",
        )

    def test_fleet_faults_produce_a_resilience_block(self, capsys):
        assert main(
            self.FLEET + [
                "--faults", "crash:0@5+10",
                "--retry", "20:2:0.5",
                "--json", "--no-cache",
            ]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        resilience = document["metrics"]["resilience"]
        assert resilience["crashes"] == 1
        assert resilience["recoveries"] == 1
        assert resilience["unavailable_s"] == 10.0
        assert all(
            "shed" in row for row in document["metrics"]["classes"]
        )

    def test_fleet_fault_free_json_has_no_resilience_block(self, capsys):
        assert main(self.FLEET + ["--json", "--no-cache"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "resilience" not in document["metrics"]
        assert all(
            "shed" not in row for row in document["metrics"]["classes"]
        )

    def test_fleet_malformed_faults_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--faults", "crash:0"],
            "cannot parse fault",
            "missing @START",
        )
        expect_cli_error(
            capsys,
            ["fleet", "--faults", "bogus:1@5"],
            "cannot parse fault",
            "unknown kind",
        )
        expect_cli_error(
            capsys,
            ["fleet", "--faults", "random:abc"],
            "cannot parse fault",
        )
        expect_cli_error(
            capsys,
            ["fleet", "--faults", "crash:9@5"],
            "replica 9",
            "static",
        )

    def test_fleet_non_finite_faults_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--faults", "random:inf:inf:inf"],
            "crash_mtbf_s must be finite",
        )
        for extra in ([], ["--emit-spec"]):
            expect_cli_error(
                capsys,
                ["fleet", "--faults", "crash:0@nan", *extra],
                "cannot parse fault",
                "start_s must be finite",
            )
        assert capsys.readouterr().out == ""

    def test_fleet_malformed_retry_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--retry", "abc"],
            "cannot parse retry policy",
            "bad number",
        )
        expect_cli_error(
            capsys,
            ["fleet", "--retry", "30:3:0.5:2:9"],
            "cannot parse retry policy",
            "too many fields",
        )
        expect_cli_error(
            capsys,
            ["fleet", "--retry", "30:-1"],
            "cannot parse retry policy",
        )

    def test_fleet_malformed_shed_below_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--shed-below", "1.5"],
            "shed_below",
        )

    def test_fleet_replay_rejects_a_conflicting_seed(self, capsys):
        expect_cli_error(
            capsys,
            ["fleet", "--replay", "trace.json", "--seed", "7"],
            "--replay",
        )

    @pytest.mark.parametrize(
        "flag, value, needed",
        [
            ("--autoscale-max", "3", "--autoscale"),
            ("--autoscale-interval", "30", "--autoscale"),
            ("--autoscale-slo", "0.5", "--autoscale"),
            ("--fault-seed", "5", "--faults or --shed-below"),
            ("--shed-keep", "2", "--faults or --shed-below"),
        ],
    )
    @pytest.mark.parametrize(
        "tail", [["--emit-spec"], ["--duration", "30", "--json", "--no-cache"]]
    )
    def test_a_setting_without_the_flag_it_refines_errors(
        self, capsys, flag, value, needed, tail
    ):
        # Each of these sets a field of the autoscaler or the fault model,
        # which exists only when --autoscale, --faults or --shed-below
        # turns it on; alone it would change neither the spec nor the run.
        expect_cli_error(
            capsys, ["fleet", flag, value, *tail], f"error: {flag} needs {needed}"
        )

    def test_malformed_fleet_spec_fails_validation(self, capsys, tmp_path):
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps({
            "schema": 1, "kind": "fleet",
            "trace": {"kind": "trace", "source": "closed"},
        }))
        expect_cli_error(capsys, ["study", "validate", str(closed)],
                         "open-loop")
        bad_router = tmp_path / "router.json"
        bad_router.write_text(json.dumps({
            "schema": 1, "kind": "fleet", "router": "nope",
        }))
        expect_cli_error(capsys, ["study", "validate", str(bad_router)],
                         ".router", "unknown router")


class TestHugeChipCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--platform", "siracusa-mipi:99999999999999999999"],
            ["evaluate", "--chips", "99999999999999999999"],
        ],
        ids=["fleet-platform", "evaluate-chips"],
    )
    def test_huge_chip_count_fails_fast(self, argv):
        # A platform holds no per-chip objects, so a chip count far past
        # any head count is rejected by the partitioner at once.
        source = pathlib.Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--no-cache"],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        lines = completed.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: cannot distribute 8 attention heads across "
            "99999999999999999999 chips"
        )


#: Malformed replay files: one entry each, or a non-object document.
MALFORMED_REPLAYS = {
    "non-object": "[]",
    "not-a-mapping": '{"requests": [1]}',
    "no-arrival": '{"requests": [{"request_id": 0, "prompt_tokens": 4, "output_tokens": 2}]}',
    "nan-arrival": (
        '{"requests": [{"request_id": 0, "arrival_s": NaN, "prompt_tokens": 4, '
        '"output_tokens": 2}]}'
    ),
    "overflowing-arrival": (
        '{"requests": [{"request_id": 0, "arrival_s": 1e400, "prompt_tokens": 4, '
        '"output_tokens": 2}]}'
    ),
    "fractional-prompt": (
        '{"requests": [{"request_id": 0, "arrival_s": 0, "prompt_tokens": 1.5, '
        '"output_tokens": 2}]}'
    ),
    "negative-priority": (
        '{"requests": [{"request_id": 0, "arrival_s": 0, "prompt_tokens": 4, '
        '"output_tokens": 2, "priority": -1}]}'
    ),
}


class TestMalformedReplay:
    @pytest.mark.parametrize("case", sorted(set(MALFORMED_REPLAYS) - {"nan-arrival"}))
    @pytest.mark.parametrize("command", ["serve", "fleet"])
    def test_malformed_replay_is_one_error_line(self, capsys, tmp_path, command, case):
        path = tmp_path / "t.json"
        path.write_text(MALFORMED_REPLAYS[case])
        expect_cli_error(capsys, [command, "--replay", str(path), "--no-cache"], str(path))

    @pytest.mark.parametrize("command", ["serve", "fleet"])
    def test_nan_arrival_replay_fails_fast(self, tmp_path, command):
        # A NaN arrival once sent serve into an endless loop: run the
        # command apart, under a timeout.
        (tmp_path / "t.json").write_text(MALFORMED_REPLAYS["nan-arrival"])
        source = pathlib.Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-m", "repro", command, "--replay", "t.json", "--no-cache"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert completed.stderr.splitlines() == [
            "error: t.json: $.requests[0]: arrival_s must be finite, got nan"
        ]


class TestFarApartPriorities:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--replay", "t.json"],
            ["--priority-levels", "100000000", "--duration", "10"],
        ],
        ids=["replay-priority-1e12", "priority-levels-1e8"],
    )
    def test_serve_keeps_huge_priorities_cheaply(self, tmp_path, argv):
        # serve admits each request with its own priority; nothing it
        # builds grows with the priority's value.
        (tmp_path / "t.json").write_text(
            '{"requests": [{"request_id": 0, "arrival_s": 0, "prompt_tokens": 4, '
            '"output_tokens": 2, "priority": 1000000000000}]}'
        )
        source = pathlib.Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", *argv,
                "--policy", "priority", "--json", "--no-cache",
            ],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""
        assert json.loads(completed.stdout)["metrics"]["requests"] >= 1


class TestRandomCrashLayerBound:
    @pytest.mark.parametrize("extra", [[], ["--emit-spec"]], ids=["run", "emit-spec"])
    def test_undrawable_random_layer_fails_fast(self, extra):
        # The layer would draw ~5e17 crash windows per replica; it is
        # rejected when the fault model is built, before any spec prints.
        source = pathlib.Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "fleet",
                "--faults", "random:1e-9:1e-9:1e9", "--duration", "10",
                "--no-cache", *extra,
            ],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        lines = completed.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: a random crash layer expects 5e+17 crashes per replica"
        )


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestEmitSpec:
    def test_evaluate_emit_spec_is_a_replayable_document(self, capsys):
        from repro.spec import loads

        assert main(["evaluate", "--chips", "4", "--strategy", "single_chip",
                     "--emit-spec"]) == 0
        spec = loads(capsys.readouterr().out)
        assert spec.kind == "evaluate"
        assert spec.platform.chips == 4
        assert spec.strategy == "single_chip"

    def test_every_evaluating_command_emits_its_kind(self, capsys):
        from repro.spec import loads

        for argv, kind in (
            (["evaluate"], "evaluate"),
            (["sweep", "--chips", "1", "2"], "sweep"),
            (["compare"], "compare"),
            (["serve"], "serve"),
            (["tune", "--budget", "5"], "tune"),
        ):
            assert main(argv + ["--emit-spec"]) == 0
            assert loads(capsys.readouterr().out).kind == kind

    def test_emitted_spec_replays_to_the_same_result(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.json"
        assert main(["sweep", "--chips", "1", "2", "--emit-spec"]) == 0
        spec_path.write_text(capsys.readouterr().out)
        assert main(["--no-cache", "sweep", "--chips", "1", "2",
                     "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(["--no-cache", "study", "run", str(spec_path),
                     "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        payload = replayed["stages"][0]["payload"]
        direct.pop("cache")
        assert payload == direct

    def test_experiments_emit_spec_maps_to_the_shipped_study(self, capsys):
        from repro.spec import get_study, loads

        studies = {
            "dse": "dse-budget",
            "fig4": "fig4",
            "fig5": "fig5",
            "fig6": "fig6",
            "headline": "headline",
            "serving": "serving-capacity",
            "table1": "table1",
        }
        for only, name in studies.items():
            assert main(["experiments", "--only", only, "--emit-spec"]) == 0
            text = capsys.readouterr().out
            assert loads(text) == get_study(name)
            assert text == get_study(name).to_json()

    def test_experiments_emit_spec_all_errors(self, capsys):
        expect_cli_error(
            capsys,
            ["experiments", "--only", "all", "--emit-spec"],
            "--emit-spec needs a single experiment",
            "headline",
        )

    @pytest.mark.parametrize(
        "argv, needle",
        [
            ("fleet --class a:nan", "rate_rps must be finite"),
            ("fleet --class a:1e400", "rate_rps must be finite"),
            ("fleet --class a:1:1:nan:inf", "ttft_slo_s must be finite"),
            ("fleet --retry nan", "timeout_s must be finite"),
            ("fleet --retry inf:1:inf:inf", "must be finite"),
            ("fleet --slo-ttft nan", "slo_targets must be finite"),
            ("serve --slo-ttft -1", "slo_targets must be positive"),
            ("fleet --autoscale --autoscale-interval nan",
             "check_interval_s must be finite"),
            ("fleet --autoscale --autoscale-slo inf", "ttft_slo_s must be finite"),
            ("fleet --arrival-rate 1e400", "rate_rps must be finite"),
            ("fleet --duration inf", "duration_s must be finite"),
            ("serve --duration inf", "duration_s must be finite"),
            ("serve --trace closed --think-time nan", "mean_think_s must be finite"),
            ("fleet --trace diurnal --period inf", "period_s must be finite"),
            ("fleet --trace diurnal --spike-start nan",
             "spike_starts_s must be finite"),
            ("tune --link-gbps nan", "must be finite"),
        ],
    )
    def test_non_finite_or_negative_values_are_rejected(self, capsys, argv, needle):
        # Each of these once printed NaN, Infinity or a negative target
        # into the emitted spec (or ran without end) instead of failing.
        expect_cli_error(capsys, argv.split() + ["--emit-spec"], needle)


class TestStudyCommands:
    def test_studies_lists_the_shipped_registry(self, capsys):
        assert main(["studies"]) == 0
        output = capsys.readouterr().out
        for name in ("quickstart", "fig4", "table1", "paper-pipeline"):
            assert name in output

    def test_study_run_registered_name(self, capsys):
        assert main(["study", "run", "quickstart"]) == 0
        output = capsys.readouterr().out
        assert "Study 'quickstart'" in output
        assert "single-chip" in output
        assert "ablation" in output

    def test_study_run_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main(["study", "run", "quickstart",
                     "--output-dir", str(out_dir)]) == 0
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == ["ablation.json", "distributed.json",
                         "single-chip.json", "study.json"]
        manifest = json.loads((out_dir / "study.json").read_text())
        assert manifest["kind"] == "study_manifest"

    def test_study_run_spec_file(self, capsys, tmp_path):
        from repro.spec import get_study

        spec_path = tmp_path / "study.json"
        spec_path.write_text(get_study("table1").to_json())
        assert main(["study", "run", str(spec_path)]) == 0
        assert "tensor_parallel" in capsys.readouterr().out

    def test_study_validate_accepts_good_and_rejects_bad(self, capsys, tmp_path):
        from repro.spec import get_study

        good = tmp_path / "good.json"
        good.write_text(get_study("table1").to_json())
        assert main(["study", "validate", str(good)]) == 0
        assert "ok:" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "study", "name": "x", "stages": [{"name": '
                       '"a", "spec": {"kind": "evaluate", "strategy": 42}}]}')
        expect_cli_error(capsys, ["study", "validate", str(bad)], "strategy")

    def test_study_validate_null_list_field_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "sweep", "chips": null}')
        err = expect_cli_error(
            capsys, ["study", "validate", str(bad)], "chips", "expected a list"
        )
        assert err.startswith(f"error: {bad}.chips: ")

    def test_study_validate_rejects_a_non_finite_fault(self, capsys, tmp_path):
        assert main(["fleet", "--faults", "crash:0@5", "--emit-spec"]) == 0
        document = json.loads(capsys.readouterr().out)
        (event,) = document["faults"]["events"]
        event["start_s"] = float("nan")
        bad = tmp_path / "fleet.json"
        bad.write_text(json.dumps(document))  # writes the NaN literal
        err = expect_cli_error(
            capsys, ["study", "validate", str(bad)], "start_s must be finite"
        )
        assert err.startswith(f"error: {bad}.faults.events[0]: ")

    def test_study_validate_without_files_errors(self, capsys):
        expect_cli_error(capsys, ["study", "validate"], "at least one")

    def test_study_init_emits_a_valid_template(self, capsys, tmp_path):
        from repro.spec import loads

        assert main(["study", "init"]) == 0
        template = loads(capsys.readouterr().out)
        template.validate()
        out_path = tmp_path / "template.json"
        assert main(["study", "init", "--output", str(out_path)]) == 0
        loads(out_path.read_text()).validate()

    def test_study_run_missing_file_errors(self, capsys):
        expect_cli_error(capsys, ["study", "run", "no-such.json"], "no-such")

    def test_study_run_malformed_json_errors(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        expect_cli_error(capsys, ["study", "run", str(broken)], "invalid JSON")


class TestModelsCommand:
    def test_table_carries_architecture_summaries(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        assert "gqa 8h/2kv" in output  # gqa-moe-tiny
        assert "moe 8e/top2" in output  # moe-8x
        assert "window 1024" in output  # longctx-4k
        assert "xattn" in output  # encdec-small
        assert "mqa 16h/1kv" in output  # mqa-270m

    def test_named_detail_view(self, capsys):
        assert main(["models", "gqa-moe-tiny"]) == 0
        output = capsys.readouterr().out
        assert "gqa-moe-tiny:" in output
        assert "kv_heads" in output
        assert "num_experts" in output
        assert "total_params" in output

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["models", "--json", "gqa-1b", "mobilebert"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == ["gqa-1b", "mobilebert"]
        assert payload[0]["kv_heads"] == 4
        assert payload[1]["cross_attention"] is False

    def test_unknown_model_fails_uniformly(self, capsys):
        expect_cli_error(capsys, ["models", "gpt-4"], "unknown model")
        expect_cli_error(
            capsys, ["models", "--json", "gpt-4"], "unknown model"
        )
