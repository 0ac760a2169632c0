"""Unit tests for the declarative spec layer (construction + codec)."""

from __future__ import annotations

import json
import re

import pytest

from repro.dse import SearchState, ServingScenario
from repro.errors import SpecError
from repro.spec import (
    SPEC_SCHEMA_VERSION,
    AxisSpec,
    CompareSpec,
    EvalSpec,
    ModelSpec,
    PlatformSpec,
    ServingSpec,
    SpaceSpec,
    StageSpec,
    StudySpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    WorkloadSpec,
    load_spec,
    loads,
    spec_from_dict,
)


#: A complete checkpoint document (every search_state field is required).
CHECKPOINT = {
    "kind": "search_state",
    "searcher": "random",
    "seed": 0,
    "budget": 4,
    "workload": "tinyllama-42m/autoregressive",
    "axes": ["chips"],
    "space_size": 2,
    "objectives": ["latency"],
    "constraints": [],
    "evaluations_requested": 1,
    "rng_state": [3, [1, 2], None],
    "candidates": [{"point": {"chips": 1}, "feasible": True}],
    "front": [0],
}

#: Far beyond float range: float() of it overflows.
HUGE = 10**400


def roundtrip(spec):
    parsed = loads(spec.to_json())
    assert parsed == spec
    return parsed


class TestRoundTrip:
    def test_default_specs_roundtrip(self):
        for spec in (
            ModelSpec(),
            WorkloadSpec(),
            PlatformSpec(),
            EvalSpec(),
            SweepSpec(),
            CompareSpec(),
            TraceSpec(),
            ServingSpec(),
            ServingScenario(),
            TuneSpec(),
        ):
            roundtrip(spec)

    def test_non_default_fields_survive(self):
        spec = SweepSpec(
            workload=WorkloadSpec(
                model=ModelSpec(name="mobilebert"), mode="encoder", seq_len=64
            ),
            chips=(1, 3, 5),
            strategy="single_chip",
            parallel=2,
            prefetch="blocking",
        )
        parsed = roundtrip(spec)
        assert parsed.chips == (1, 3, 5)
        assert parsed.workload.model.name == "mobilebert"

    def test_to_dict_omits_defaults(self):
        assert EvalSpec().to_dict() == {"kind": "evaluate"}
        data = EvalSpec(platform=PlatformSpec(chips=4)).to_dict()
        assert data == {
            "kind": "evaluate",
            "platform": {"kind": "platform", "chips": 4},
        }

    def test_to_json_is_deterministic_and_schema_tagged(self):
        spec = TuneSpec(budget=7)
        assert spec.to_json() == spec.to_json()
        document = json.loads(spec.to_json())
        assert document["schema"] == SPEC_SCHEMA_VERSION

    def test_space_spec_roundtrip_and_build(self):
        space = SpaceSpec(
            axes=(
                AxisSpec(axis="choice", name="chips", choices=(1, 2)),
                AxisSpec(axis="int", name="cores", low=2, high=8, step=2),
                AxisSpec(
                    axis="float",
                    name="link_gbps",
                    low=0.25,
                    high=1.0,
                    levels=(0.25, 1.0),
                ),
            )
        )
        parsed = roundtrip(space)
        built = parsed.build()
        assert built.names == ("chips", "cores", "link_gbps")
        assert built.size == 2 * 4 * 2

    def test_study_roundtrip(self):
        study = StudySpec(
            name="tiny",
            stages=(
                StageSpec(name="a", spec=SweepSpec(chips=(1, 2))),
                StageSpec(name="b", spec=TuneSpec(chips_from="a", budget=2)),
            ),
        )
        parsed = roundtrip(study)
        assert parsed.stage_names == ("a", "b")
        parsed.validate()

    def test_model_and_platform_string_shorthand(self):
        spec = spec_from_dict(
            {"kind": "evaluate", "workload": {"model": "mobilebert"},
             "platform": "siracusa-fast-link"}
        )
        assert spec.workload.model == ModelSpec(name="mobilebert")
        assert spec.platform.preset == "siracusa-fast-link"
        roundtrip(spec)


class TestBuild:
    def test_workload_defaults_match_paper(self):
        workload = WorkloadSpec().build()
        assert workload.seq_len == 128
        assert WorkloadSpec(mode="prompt").build().seq_len == 16
        assert WorkloadSpec(
            model=ModelSpec(name="mobilebert"), mode="encoder"
        ).build().seq_len == 268

    def test_platform_build_pins_chips(self):
        assert PlatformSpec(chips=2).build().num_chips == 2
        assert PlatformSpec().build().num_chips == 8  # preset default
        assert PlatformSpec().build(chips=3).num_chips == 3

    def test_trace_build_each_source(self):
        from repro.serving import BurstyTrace, ClosedLoopTrace, PoissonTrace

        assert isinstance(TraceSpec().build(), PoissonTrace)
        bursty = TraceSpec(source="bursty", rate_rps=1.0).build()
        assert isinstance(bursty, BurstyTrace)
        assert bursty.burst_rate_rps == 4.0  # default 4x base
        assert isinstance(TraceSpec(source="closed").build(), ClosedLoopTrace)

    def test_scenario_build(self):
        scenario = ServingScenario(rate_rps=1.5, ttft_slo_s=0.5)
        assert scenario.rate_rps == 1.5
        assert scenario.ttft_slo_s == 0.5


class TestValidationErrors:
    def test_unknown_field_is_rejected_with_path(self):
        with pytest.raises(SpecError, match=r"\$: unknown field\(s\) chps"):
            spec_from_dict({"kind": "sweep", "chps": [1, 2]})

    def test_bad_type_reports_the_exact_path(self):
        with pytest.raises(SpecError, match=r"\$\.workload\.seq_len"):
            spec_from_dict(
                {"kind": "evaluate", "workload": {"seq_len": "long"}}
            )

    def test_nested_stage_path_in_study_errors(self):
        with pytest.raises(
            SpecError, match=r"\$\.stages\[1\]\.spec\.chips\[0\]"
        ):
            spec_from_dict(
                {
                    "kind": "study",
                    "name": "s",
                    "stages": [
                        {"name": "ok", "spec": {"kind": "evaluate"}},
                        {"name": "bad", "spec": {"kind": "sweep",
                                                 "chips": ["x"]}},
                    ],
                }
            )

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown spec kind"):
            spec_from_dict({"kind": "wibble"})

    def test_non_string_kind_is_an_unknown_kind(self):
        with pytest.raises(SpecError, match=r"\$\.kind: unknown spec kind \[\]"):
            spec_from_dict({"kind": []})
        with pytest.raises(
            SpecError, match=r"\$\.stages\[0\]\.spec\.kind: stage specs must be one of"
        ):
            spec_from_dict(
                {"kind": "study", "name": "s",
                 "stages": [{"name": "a", "spec": {"kind": ["sweep"]}}]}
            )

    def test_missing_kind(self):
        with pytest.raises(SpecError, match="missing the 'kind' tag"):
            spec_from_dict({"name": "x"})

    def test_wrong_schema_version_is_rejected(self):
        with pytest.raises(SpecError, match="unsupported spec schema"):
            spec_from_dict({"kind": "evaluate", "schema": 99})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            loads("{nope")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            load_spec(tmp_path / "missing.json")

    def test_registry_validation_reports_path(self):
        spec = EvalSpec(workload=WorkloadSpec(model=ModelSpec(name="nope")))
        with pytest.raises(SpecError, match=r"\$\.workload\.model\.name"):
            spec.validate()

    def test_unknown_strategy_reports_path(self):
        with pytest.raises(SpecError, match=r"\$\.strategy"):
            EvalSpec(strategy="bogus").validate()

    def test_bad_constructions_raise(self):
        with pytest.raises(SpecError):
            WorkloadSpec(mode="training")
        with pytest.raises(SpecError):
            WorkloadSpec(seq_len=0)
        with pytest.raises(SpecError):
            PlatformSpec(chips=0)
        with pytest.raises(SpecError):
            SweepSpec(chips=())
        with pytest.raises(SpecError):
            SweepSpec(chips=(0,))
        with pytest.raises(SpecError):
            SweepSpec(platform=PlatformSpec(chips=4))
        with pytest.raises(SpecError):
            CompareSpec(strategies=())
        with pytest.raises(SpecError):
            TraceSpec(source="replay")  # no path
        with pytest.raises(SpecError):
            TraceSpec(path="x.json")  # path without replay
        with pytest.raises(SpecError):
            TuneSpec(budget=0)
        with pytest.raises(SpecError):
            TuneSpec(objectives=())
        with pytest.raises(SpecError):
            AxisSpec(axis="choice", name="a")  # no choices
        with pytest.raises(SpecError):
            AxisSpec(axis="int", name="a")  # no bounds
        with pytest.raises(SpecError):
            SpaceSpec(axes=())
        with pytest.raises(SpecError):
            StageSpec(name="Bad Name!", spec=EvalSpec())
        with pytest.raises(SpecError, match="reserved"):
            StageSpec(name="study", spec=EvalSpec())  # would shadow study.json
        with pytest.raises(SpecError):
            StudySpec(name="s", stages=())

    def test_duplicate_stage_names(self):
        with pytest.raises(SpecError, match="duplicate stage name"):
            StudySpec(
                name="s",
                stages=(
                    StageSpec(name="a", spec=EvalSpec()),
                    StageSpec(name="a", spec=EvalSpec()),
                ),
            )

    @pytest.mark.parametrize(
        "document, path",
        [
            ({"kind": "sweep", "chips": None}, "$.chips"),
            ({"kind": "compare", "strategies": None}, "$.strategies"),
            ({"kind": "tune", "objectives": None}, "$.objectives"),
            ({"kind": "tune", "constraints": None}, "$.constraints"),
            ({"kind": "space", "axes": None}, "$.axes"),
            ({"kind": "study", "name": "s", "stages": None}, "$.stages"),
            ({"kind": "trace", "spike_starts_s": None}, "$.spike_starts_s"),
            ({**CHECKPOINT, "axes": None}, "$.axes"),
            ({**CHECKPOINT, "objectives": None}, "$.objectives"),
            ({**CHECKPOINT, "constraints": None}, "$.constraints"),
            ({**CHECKPOINT, "candidates": None}, "$.candidates"),
            ({**CHECKPOINT, "front": None}, "$.front"),
            ({"kind": "fleet", "platforms": None}, "$.platforms"),
            ({"kind": "arch", "blocks": None}, "$.blocks"),
        ],
    )
    def test_null_list_field_is_an_error_at_its_path(self, document, path):
        with pytest.raises(
            SpecError, match=re.escape(f"{path}: expected a list, got None")
        ):
            spec_from_dict(document)

    @pytest.mark.parametrize(
        "document, path",
        [
            ({"kind": "trace", "rate_rps": HUGE}, "$.rate_rps"),
            (
                {"kind": "faults", "crash_mtbf_s": HUGE, "horizon_s": 60.0},
                "$.crash_mtbf_s",
            ),
            (
                {"kind": "axis", "axis": "float", "name": "f", "low": 0.0,
                 "high": 1.0, "levels": [HUGE]},
                "$.levels[0]",
            ),
            ({"kind": "fleet", "slo_targets": [HUGE]}, "$.slo_targets[0]"),
        ],
    )
    def test_integer_beyond_float_range_is_an_error_at_its_path(
        self, document, path
    ):
        with pytest.raises(
            SpecError, match=re.escape(f"{path}: expected a number, got 1000")
        ):
            spec_from_dict(document)

    def test_integer_literal_beyond_float_range_in_a_document(self):
        text = '{"kind": "trace", "rate_rps": 1' + "0" * 400 + "}"
        with pytest.raises(SpecError, match=r"\$\.rate_rps: expected a number"):
            loads(text)

    @pytest.mark.parametrize(
        "document, path, kind",
        [
            ({"kind": "evaluate", "workload": None}, "$.workload", "workload"),
            ({"kind": "evaluate", "platform": None}, "$.platform", "platform"),
            ({"kind": "serve", "trace": None}, "$.trace", "trace"),
            ({"kind": "workload", "model": None}, "$.model", "model"),
        ],
    )
    def test_null_is_accepted_only_by_optional_fields(self, document, path, kind):
        with pytest.raises(
            SpecError,
            match=re.escape(f"{path}: expected a {kind!r} mapping, got NoneType"),
        ):
            spec_from_dict(document)
        # An Optional field takes null as "absent".
        assert spec_from_dict({"kind": "workload", "seq_len": None}) == WorkloadSpec()

    @pytest.mark.parametrize(
        "bound, value", [("low", 1.5), ("high", "8"), ("low", True)]
    )
    def test_int_axis_bounds_must_be_integers(self, bound, value):
        document = {"kind": "axis", "axis": "int", "name": "a", "low": 1,
                    "high": 8, bound: value}
        with pytest.raises(
            SpecError, match=re.escape(f"$.{bound}: expected an integer")
        ):
            spec_from_dict(document)

    def test_int_axis_takes_integral_floats(self):
        spec = spec_from_dict(
            {"kind": "axis", "axis": "int", "name": "a", "low": 2.0, "high": 8}
        )
        assert (spec.low, spec.high) == (2, 8)
        assert isinstance(spec.low, int)

    def test_search_state_space_size_is_required(self):
        document = dict(CHECKPOINT)
        del document["space_size"]
        with pytest.raises(
            SpecError, match="missing required field 'space_size'"
        ):
            spec_from_dict(document)

    def test_post_init_error_is_prefixed_with_the_document_path(self):
        with pytest.raises(
            SpecError, match=re.escape("$.stages[0].spec: invalid chip count 0")
        ):
            spec_from_dict(
                {"kind": "study", "name": "s", "stages": [
                    {"name": "a", "spec": {"kind": "sweep", "chips": [0]}}
                ]}
            )

    def test_stage_spec_must_be_runnable(self):
        with pytest.raises(SpecError, match="must be one of"):
            spec_from_dict(
                {
                    "kind": "study",
                    "name": "s",
                    "stages": [{"name": "a", "spec": {"kind": "workload"}}],
                }
            )


class TestStageReferences:
    def test_forward_reference_is_rejected(self):
        study = StudySpec(
            name="s",
            stages=(
                StageSpec(name="serve", spec=ServingSpec(platform_from="tune")),
                StageSpec(name="tune", spec=TuneSpec(budget=2)),
            ),
        )
        with pytest.raises(SpecError, match="not an earlier stage"):
            study.validate()

    def test_reference_to_wrong_kind_is_rejected(self):
        study = StudySpec(
            name="s",
            stages=(
                StageSpec(name="sweep", spec=SweepSpec(chips=(1,))),
                StageSpec(
                    name="serve", spec=ServingSpec(platform_from="sweep")
                ),
            ),
        )
        with pytest.raises(SpecError, match="needs a tune stage"):
            study.validate()

    def test_valid_references_pass(self):
        study = StudySpec(
            name="s",
            stages=(
                StageSpec(name="sweep", spec=SweepSpec(chips=(1, 2))),
                StageSpec(
                    name="tune", spec=TuneSpec(chips_from="sweep", budget=2)
                ),
                StageSpec(
                    name="serve", spec=ServingSpec(platform_from="tune")
                ),
            ),
        )
        study.validate()


class TestInlineArch:
    def _arch_document(self):
        return {
            "kind": "workload",
            "model": {
                "arch": {
                    "name": "inline",
                    "embed_dim": 256,
                    "blocks": [
                        {
                            "repeat": 2,
                            "num_heads": 4,
                            "ffn_dim": 512,
                            "attention": "gqa",
                            "kv_heads": 2,
                        }
                    ],
                }
            },
        }

    def test_inline_arch_builds_the_described_model(self):
        workload = spec_from_dict(self._arch_document()).build()
        assert workload.config.name == "inline"
        assert workload.config.kv_heads == 2
        assert workload.config.num_layers == 2

    def test_inline_arch_round_trips(self):
        spec = spec_from_dict(self._arch_document())
        assert loads(spec.to_json()) == spec

    def test_name_and_arch_are_mutually_exclusive(self):
        document = self._arch_document()
        document["model"]["name"] = "tinyllama-42m"
        with pytest.raises(SpecError, match="not both"):
            spec_from_dict(document)

    def test_invalid_inline_arch_reports_the_arch_path(self):
        document = self._arch_document()
        document["model"]["arch"]["blocks"][0]["kv_heads"] = 3
        spec = spec_from_dict(document)
        with pytest.raises(SpecError, match=r"arch.blocks\[0\].kv_heads"):
            spec.validate()


class TestOrchestratorSpecs:
    """TuneSpec orchestration fields and the SearchState checkpoint."""

    STATE = {
        "searcher": "random",
        "seed": 0,
        "budget": 4,
        "workload": "tinyllama-42m/autoregressive",
        "axes": ("chips",),
        "space_size": 2,
        "objectives": ("latency",),
        "constraints": (),
        "evaluations_requested": 3,
        "rng_state": [3, [1, 2], None],
        "candidates": ({"point": {"chips": 1}, "feasible": True},),
        "front": (0,),
    }

    def test_tune_orchestration_fields_roundtrip(self):
        spec = TuneSpec(budget=3, parallel=4, checkpoint_every=10)
        parsed = roundtrip(spec)
        assert parsed.parallel == 4
        assert parsed.checkpoint_every == 10
        data = spec.to_dict()
        assert data["parallel"] == 4
        assert data["checkpoint_every"] == 10
        # Defaults stay off the wire.
        assert "parallel" not in TuneSpec(budget=3).to_dict()
        assert "checkpoint_every" not in TuneSpec(budget=3).to_dict()

    def test_tune_orchestration_fields_validate(self):
        with pytest.raises(SpecError, match="parallel"):
            TuneSpec(parallel=0)
        with pytest.raises(SpecError, match="checkpoint_every"):
            TuneSpec(checkpoint_every=0)

    def test_search_state_roundtrip(self):
        spec = SearchState(**self.STATE)
        assert loads(spec.to_json()) == spec
        assert SearchState.from_dict(spec.to_dict()) == spec

    def test_search_state_front_must_index_candidates(self):
        with pytest.raises(SpecError, match="front index"):
            SearchState(**{**self.STATE, "front": (1,)})

    def test_search_state_candidates_must_carry_points(self):
        document = SearchState(**self.STATE).to_dict()
        document["candidates"] = [{"feasible": True}]
        with pytest.raises(SpecError, match=r"candidates\[0\]"):
            spec_from_dict(document)

    def test_search_state_missing_field_reports_path(self):
        document = SearchState(**self.STATE).to_dict()
        del document["rng_state"]
        with pytest.raises(SpecError, match="rng_state"):
            spec_from_dict(document)

    def test_search_state_is_not_a_runnable_stage(self):
        with pytest.raises(SpecError, match="must be one of"):
            spec_from_dict(
                {
                    "kind": "study",
                    "name": "s",
                    "stages": [
                        {"name": "a", "spec": {"kind": "search_state"}}
                    ],
                }
            )
