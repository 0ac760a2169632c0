"""Unit tests for multi-tenant admission control (token buckets, classes)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fleet import AdmissionController, SLOClass
from repro.serving import Request


def arrival(request_id, time_s, priority=0):
    return Request(
        request_id=request_id,
        arrival_s=time_s,
        prompt_tokens=16,
        output_tokens=4,
        priority=priority,
    )


def admit(controller, request):
    """Decide one arrival as the fleet does: class index first."""
    return controller.admit(request, controller.class_index(request))


class TestSLOClass:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            SLOClass(name="")
        with pytest.raises(ConfigurationError):
            SLOClass(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            SLOClass(burst=0)
        with pytest.raises(ConfigurationError):
            SLOClass(ttft_slo_s=-1.0)

    def test_parse_shorthand(self):
        assert SLOClass.parse("interactive:2:4:0.5:10", priority=1) == SLOClass(
            name="interactive",
            rate_rps=2.0,
            burst=4,
            priority=1,
            ttft_slo_s=0.5,
            timeout_s=10.0,
        )
        # Empty positions keep their defaults.
        assert SLOClass.parse("batch::8") == SLOClass(name="batch", burst=8)
        for text in ("", ":2", "gold:fast", "a:1:2:3:4:5"):
            with pytest.raises(ConfigurationError, match="cannot parse SLO"):
                SLOClass.parse(text)


class TestAdmission:
    def test_default_controller_admits_everything(self):
        controller = AdmissionController()
        for index in range(50):
            ok, slo_class = admit(controller, arrival(index, index * 0.001))
            assert ok
            assert slo_class.name == "default"
        assert controller.stats[0].admitted == 50
        assert controller.stats[0].rejected == 0

    def test_token_bucket_enforces_the_sustained_rate(self):
        # 1 req/s with burst 1: back-to-back arrivals beyond the first
        # are rejected until a full second of budget accrues.
        controller = AdmissionController((SLOClass(rate_rps=1.0, burst=1),))
        assert admit(controller, arrival(0, 0.0))[0]
        assert not admit(controller, arrival(1, 0.1))[0]
        assert not admit(controller, arrival(2, 0.5))[0]
        assert admit(controller, arrival(3, 1.5))[0]
        stats = controller.stats[0]
        assert (stats.arrived, stats.admitted, stats.rejected) == (4, 2, 2)

    def test_burst_allowance_admits_back_to_back_arrivals(self):
        controller = AdmissionController((SLOClass(rate_rps=1.0, burst=3),))
        verdicts = [admit(controller, arrival(i, 0.0))[0] for i in range(5)]
        assert verdicts == [True, True, True, False, False]

    def test_bucket_never_accrues_beyond_the_burst(self):
        controller = AdmissionController((SLOClass(rate_rps=1.0, burst=2),))
        # A long quiet period must not bank unlimited tokens.
        assert admit(controller, arrival(0, 100.0))[0]
        assert admit(controller, arrival(1, 100.0))[0]
        assert not admit(controller, arrival(2, 100.0))[0]

    def test_priority_indexes_the_class_list_and_clamps(self):
        interactive = SLOClass(name="interactive", priority=1)
        batch = SLOClass(name="batch")
        controller = AdmissionController((interactive, batch))
        assert admit(controller, arrival(0, 0.0, priority=0))[1] is interactive
        assert admit(controller, arrival(1, 0.0, priority=1))[1] is batch
        # Priorities beyond the list clamp to the last class.
        assert admit(controller, arrival(2, 0.0, priority=9))[1] is batch

    def test_duplicate_class_names_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            AdmissionController((SLOClass(name="a"), SLOClass(name="a")))


class TestClassReporting:
    def test_per_class_ttft_attainment(self):
        controller = AdmissionController((SLOClass(ttft_slo_s=0.5),))
        admit(controller, arrival(0, 0.0))
        admit(controller, arrival(1, 0.0))
        controller.complete(0, ttft_s=0.2)
        controller.complete(0, ttft_s=0.9)
        stats = controller.stats[0]
        assert stats.completed == 2
        assert stats.attainment() == pytest.approx(0.5)

    def test_attainment_is_none_without_a_target(self):
        controller = AdmissionController()
        controller.complete(0, ttft_s=0.1)
        assert controller.stats[0].attainment() is None

    def test_to_dicts_reports_counters_and_targets(self):
        controller = AdmissionController(
            (SLOClass(name="gold", rate_rps=2.0, ttft_slo_s=0.5),
             SLOClass(name="bulk", priority=1))
        )
        admit(controller, arrival(0, 0.0))
        controller.complete(0, ttft_s=0.1)
        rows = controller.to_dicts()
        assert [row["name"] for row in rows] == ["gold", "bulk"]
        assert rows[0]["admitted"] == 1
        assert rows[0]["ttft_slo_s"] == 0.5
        assert rows[0]["slo_attainment"] == 1.0
        assert "ttft_slo_s" not in rows[1]
