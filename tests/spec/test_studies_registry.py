"""The shipped-studies registry, and its studies against direct Session calls."""

from __future__ import annotations

import pytest

from repro.api import Session, Study
from repro.errors import ConfigurationError
from repro.spec import StudySpec, get_study, list_studies, register_study


class TestRegistry:
    def test_shipped_studies_are_registered(self):
        names = list_studies()
        for expected in (
            "quickstart",
            "fig4",
            "fig5",
            "fig6",
            "table1",
            "headline",
            "dse-budget",
            "serving-capacity",
            "fleet-capacity",
            "platform-tuning",
            "paper-pipeline",
        ):
            assert expected in names

    def test_every_entry_builds_and_validates(self):
        for name in list_studies():
            spec = get_study(name)
            assert isinstance(spec, StudySpec)
            assert spec.name == name
            spec.validate()
            assert spec.description

    def test_unknown_study_errors_list_the_known_names(self):
        with pytest.raises(
            ConfigurationError, match="registered studies: .*quickstart"
        ):
            get_study("nope")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_study("quickstart", lambda: get_study("quickstart"))


class TestHarnessSubsumption:
    """The shipped studies reproduce the equivalent direct Session calls."""

    def test_fig4a_sweep_matches_the_harness(self):
        from repro.graph.workload import autoregressive
        from repro.models import tinyllama_42m

        harness = Session().sweep(autoregressive(tinyllama_42m(), 128), (1, 2, 4, 8))
        study = Study(get_study("fig4")).run()
        sweep = study.stage("tinyllama-autoregressive").result
        assert sweep.chip_counts == list(harness.chip_counts)
        for result in sweep.results:
            assert (
                result.block_cycles
                == harness.result_for(result.num_chips).block_cycles
            )

    def test_table1_comparison_matches_the_harness(self):
        from repro.graph.workload import autoregressive
        from repro.hw.presets import siracusa_platform
        from repro.models import tinyllama_42m

        harness = Session().compare(
            autoregressive(tinyllama_42m(), 128), platform=siracusa_platform(8)
        )
        study = Study(get_study("table1")).run()
        comparison = study.stage("ablation").result
        by_cycles = sorted(r.block_cycles for r in comparison.results)
        harness_cycles = sorted(r.block_cycles for r in harness.results)
        assert by_cycles == harness_cycles

    def test_quickstart_study_matches_direct_session_calls(self):
        from repro.graph.workload import autoregressive
        from repro.models import tinyllama_42m

        session = Session()
        study = Study(get_study("quickstart"), session=session).run()
        workload = autoregressive(tinyllama_42m(), 128)
        assert study.stage("single-chip").result is session.run(
            workload, chips=1
        )
        assert study.stage("distributed").result is session.run(
            workload, chips=8
        )
