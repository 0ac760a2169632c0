"""The Study runner: pipelines, references, artifacts, byte-determinism."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Session, Study
from repro.errors import AnalysisError
from repro.spec import (
    CompareSpec,
    EvalSpec,
    PlatformSpec,
    ServingSpec,
    SpecBase,
    StageSpec,
    StudySpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    load_spec,
)
from repro.spec.studies import SHIPPED_DIR


def tiny_study() -> StudySpec:
    """A fast four-verb pipeline exercising both reference kinds."""
    return StudySpec(
        name="tiny",
        stages=(
            StageSpec(name="sweep", spec=SweepSpec(chips=(1, 2))),
            StageSpec(
                name="compare",
                spec=CompareSpec(
                    strategies=("single_chip", "paper"),
                    platform=PlatformSpec(chips=2),
                ),
            ),
            StageSpec(
                name="tune", spec=TuneSpec(chips_from="sweep", budget=3)
            ),
            StageSpec(
                name="serve",
                spec=ServingSpec(
                    trace=TraceSpec(rate_rps=2.0, duration_s=5.0),
                    platform_from="tune",
                ),
            ),
        ),
    )


class TestStudyRun:
    def test_stages_execute_in_order_with_native_results(self):
        result = Study(tiny_study()).run()
        assert [s.kind for s in result.stages] == [
            "sweep", "compare", "tune", "serve",
        ]
        sweep = result.stage("sweep").result
        tune = result.stage("tune").result
        serve = result.stage("serve").result
        # chips_from pinned the tune space to the sweep's fastest count.
        fastest = min(sweep.results, key=lambda r: r.block_cycles).num_chips
        assert all(c.num_chips == fastest for c in tune.candidates)
        # platform_from served on the tuned best design.
        best = tune.best()
        assert serve.num_chips == dict(best.point)["chips"]

    def test_unknown_stage_lookup(self):
        result = Study(tiny_study()).run()
        with pytest.raises(AnalysisError, match="no stage"):
            result.stage("nope")

    def test_study_requires_a_study_spec(self):
        with pytest.raises(AnalysisError, match="StudySpec"):
            Study(EvalSpec())

    def test_invalid_spec_fails_at_construction(self):
        bad = StudySpec(
            name="bad",
            stages=(StageSpec(name="a", spec=EvalSpec(strategy="bogus")),),
        )
        with pytest.raises(Exception, match="bogus"):
            Study(bad)

    def test_shared_session_is_cache_hot_across_stages(self):
        session = Session()
        Study(tiny_study(), session=session).run()
        info = session.cache_info()
        assert info.hits > 0  # later stages reused earlier evaluations

    def test_tune_stage_gets_the_worker_count_and_checkpoint(
        self, tmp_path, monkeypatch
    ):
        calls = []
        tune = Session.tune

        def recording_tune(self, *args, **kwargs):
            calls.append(kwargs)
            return tune(self, *args, **kwargs)

        monkeypatch.setattr(Session, "tune", recording_tune)
        spec = StudySpec(
            name="tuned",
            stages=(
                StageSpec(
                    name="tune", spec=TuneSpec(budget=3, checkpoint_every=2)
                ),
            ),
        )
        checkpoint = str(tmp_path / "tune.checkpoint.json")
        first = Study(spec).run(tmp_path, parallel=1)
        second = Study(spec).run(tmp_path)
        assert [call["parallel"] for call in calls] == [1, None]
        assert [call["checkpoint"] for call in calls] == [checkpoint] * 2
        assert [call["resume"] for call in calls] == [None, checkpoint]
        assert second.manifest() == first.manifest()


class TestArtifacts:
    def test_two_runs_write_byte_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        Study(tiny_study()).run(a)
        Study(tiny_study()).run(b)
        names = sorted(path.name for path in a.iterdir())
        assert names == [
            "compare.json", "serve.json", "study.json", "sweep.json",
            "tune.json",
        ]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_indexes_and_hashes_every_artifact(self, tmp_path):
        Study(tiny_study()).run(tmp_path)
        manifest = json.loads((tmp_path / "study.json").read_text())
        assert manifest["kind"] == "study_manifest"
        assert manifest["name"] == "tiny"
        assert [s["name"] for s in manifest["stages"]] == [
            "sweep", "compare", "tune", "serve",
        ]
        for entry in manifest["stages"]:
            payload = (tmp_path / entry["artifact"]).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == entry["sha256"]
        # The manifest embeds the spec: the directory is self-describing
        # and replayable.
        from repro.spec import spec_from_dict

        assert spec_from_dict(manifest["spec"]) == tiny_study()

    def test_artifacts_never_contain_cache_statistics(self, tmp_path):
        Study(tiny_study()).run(tmp_path)
        for path in tmp_path.iterdir():
            assert "cache" not in json.loads(path.read_text())


class TestImperativeParity:
    """The acceptance contract: the committed paper-pipeline study's
    per-stage outputs are byte-identical to the equivalent imperative
    Session calls."""

    def test_committed_pipeline_matches_imperative_session_calls(self):
        from repro.dse.space import materialise
        from repro.graph.workload import autoregressive
        from repro.models import tinyllama_42m

        spec = load_spec(SHIPPED_DIR / "paper_pipeline.json")
        study = Study(spec).run()

        session = Session()
        workload = autoregressive(tinyllama_42m(), 128)
        sweep = session.sweep(workload, (1, 2, 4, 8))
        comparison = session.compare(workload, chips=8)
        fastest = min(sweep.results, key=lambda r: r.block_cycles)
        tune_stage = spec.stage("tune").spec
        space = tune_stage.space.build()
        from repro.dse import ChoiceAxis, SearchSpace

        pinned = SearchSpace(
            axes=tuple(
                ChoiceAxis("chips", (fastest.num_chips,))
                if axis.name == "chips" else axis
                for axis in space.axes
            )
        )
        tuned = session.tune(
            workload,
            pinned,
            searcher="random",
            budget=12,
            seed=0,
            objectives=("latency", "hw_cost"),
        )
        design = materialise(dict(tuned.best().point))
        report = session.serve(
            tinyllama_42m(),
            spec.stage("serve").spec.trace.build(),
            platform=design.platform,
            strategy=design.strategy,
            seed=0,
        )

        def dumps(payload):
            return json.dumps(payload, indent=2, sort_keys=True)

        assert study.stage("sweep").artifact_text().rstrip("\n") == dumps(
            sweep.to_dict()
        )
        assert study.stage("compare").artifact_text().rstrip("\n") == dumps(
            comparison.to_dict()
        )
        assert study.stage("tune").artifact_text().rstrip("\n") == dumps(
            tuned.to_dict()
        )
        assert study.stage("serve").artifact_text().rstrip("\n") == dumps(
            report.to_dict()
        )


class TestCommittedSpecs:
    def test_every_committed_spec_loads_and_validates(self):
        paths = sorted(SHIPPED_DIR.glob("*.json"))
        assert len(paths) >= 7
        for path in paths:
            spec = load_spec(path)
            assert isinstance(spec, SpecBase)
            spec.validate(path=str(path))

    def test_committed_specs_match_the_registered_studies(self):
        from repro.spec import get_study, list_studies

        # One study per shipped file and one file per study, registered
        # under the file's stem with '_' turned into '-'.
        paths = sorted(SHIPPED_DIR.glob("*.json"))
        names = [path.stem.replace("_", "-") for path in paths]
        assert sorted(names) == list_studies()
        for name, path in zip(names, paths):
            spec = get_study(name)
            assert spec.name == name
            # ... and the committed bytes are the canonical serialisation.
            assert path.read_text(encoding="utf-8") == spec.to_json()
