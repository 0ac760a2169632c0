"""Unit tests for the traffic generators and trace replay."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    BurstyTrace,
    ClosedLoopTrace,
    DiurnalTrace,
    LengthModel,
    PoissonTrace,
    ReplayTrace,
    Request,
    load_trace,
    save_trace,
)
from repro.serving.request import RequestRecord


def record_of(request: Request, finish_s: float) -> RequestRecord:
    """A minimal completed record for follow-up plumbing tests."""
    return RequestRecord(
        request=request,
        first_scheduled_s=finish_s,
        first_token_s=finish_s,
        finish_s=finish_s,
        energy_joules=0.0,
    )


class TestLengthModel:
    def test_samples_respect_bounds(self):
        import random

        lengths = LengthModel(
            prompt_mean=50, output_mean=20, sigma=2.0,
            prompt_min=4, prompt_max=64, output_min=2, output_max=32,
        )
        rng = random.Random(7)
        prompts = [lengths.sample_prompt(rng) for _ in range(500)]
        outputs = [lengths.sample_output(rng) for _ in range(500)]
        assert min(prompts) >= 4 and max(prompts) <= 64
        assert min(outputs) >= 2 and max(outputs) <= 32

    def test_zero_sigma_degenerates_to_the_mean(self):
        import random

        lengths = LengthModel(prompt_mean=64, output_mean=32, sigma=0.0)
        rng = random.Random(0)
        assert lengths.sample_prompt(rng) == 64
        assert lengths.sample_output(rng) == 32

    def test_max_context(self):
        lengths = LengthModel(prompt_max=100, output_max=50)
        assert lengths.max_context == 150

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            LengthModel(prompt_mean=0)
        with pytest.raises(ConfigurationError):
            LengthModel(prompt_min=10, prompt_max=5)

    def test_rejects_means_outside_the_bounds(self):
        # A mean beyond the clamp bounds would silently distort the
        # workload (every sample pinned at the bound), so it is an error.
        with pytest.raises(ConfigurationError):
            LengthModel(prompt_mean=500, prompt_max=256)
        with pytest.raises(ConfigurationError):
            LengthModel(output_mean=0.5, output_min=1)


class TestPoissonTrace:
    def test_same_seed_is_identical(self):
        trace = PoissonTrace(rate_rps=5.0, duration_s=30.0)
        assert trace.build(3).initial == trace.build(3).initial

    def test_different_seeds_differ(self):
        trace = PoissonTrace(rate_rps=5.0, duration_s=30.0)
        assert trace.build(0).initial != trace.build(1).initial

    def test_rate_is_approximately_honoured(self):
        trace = PoissonTrace(rate_rps=10.0, duration_s=200.0)
        count = len(trace.build(0).initial)
        assert 1600 < count < 2400  # ~2000 +- 20%

    def test_arrivals_sorted_within_horizon(self):
        source = PoissonTrace(rate_rps=3.0, duration_s=50.0).build(1)
        arrivals = [request.arrival_s for request in source.initial]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 50.0 for t in arrivals)

    def test_priority_levels(self):
        trace = PoissonTrace(rate_rps=5.0, duration_s=60.0, priority_levels=3)
        priorities = {r.priority for r in trace.build(0).initial}
        assert priorities == {0, 1, 2}

    def test_open_loop_has_no_follow_ups(self):
        source = PoissonTrace(rate_rps=5.0, duration_s=10.0).build(0)
        first = source.initial[0]
        assert source.follow_up(record_of(first, 1.0)) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            PoissonTrace(rate_rps=0.0, duration_s=10.0)
        with pytest.raises(ConfigurationError):
            PoissonTrace(rate_rps=1.0, duration_s=-1.0)


class TestBurstyTrace:
    def test_reproducible_and_bursty(self):
        trace = BurstyTrace(
            base_rate_rps=1.0,
            burst_rate_rps=20.0,
            duration_s=300.0,
            mean_base_s=20.0,
            mean_burst_s=5.0,
        )
        requests = trace.build(0).initial
        assert requests == trace.build(0).initial
        # The mean rate must sit strictly between the two state rates.
        mean_rate = len(requests) / 300.0
        assert 1.0 < mean_rate < 20.0
        # Burstiness: the busiest 10-second window is far above the mean.
        arrivals = [request.arrival_s for request in requests]
        busiest = max(
            sum(1 for t in arrivals if start <= t < start + 10.0)
            for start in range(0, 290, 10)
        )
        assert busiest / 10.0 > 2.0 * mean_rate

    def test_rejects_burst_slower_than_base(self):
        with pytest.raises(ConfigurationError):
            BurstyTrace(base_rate_rps=5.0, burst_rate_rps=1.0, duration_s=10.0)


class TestDiurnalTrace:
    def test_same_seed_streams_are_byte_identical(self):
        trace = DiurnalTrace(rate_rps=4.0, duration_s=200.0, period_s=200.0)
        assert list(trace.stream(7)) == list(trace.stream(7))
        # build() wraps the same generator, request for request.
        assert trace.build(7).initial == tuple(trace.stream(7))

    def test_different_seeds_differ(self):
        trace = DiurnalTrace(rate_rps=4.0, duration_s=200.0, period_s=200.0)
        assert list(trace.stream(0)) != list(trace.stream(1))

    def test_stream_is_lazy_and_in_time_order(self):
        from itertools import islice

        trace = DiurnalTrace(rate_rps=5.0, duration_s=86_400.0)
        stream = trace.stream(0)
        head = list(islice(stream, 50))  # day-long trace, O(1) memory
        arrivals = [request.arrival_s for request in head]
        assert arrivals == sorted(arrivals)
        assert len(head) == 50

    def test_rate_follows_the_sinusoid(self):
        # One full period: the quarter around the peak must contain far
        # more arrivals than the quarter around the trough.
        trace = DiurnalTrace(
            rate_rps=10.0, duration_s=1000.0, amplitude=1.0, period_s=1000.0
        )
        arrivals = [request.arrival_s for request in trace.stream(0)]
        peak = sum(1 for t in arrivals if 125.0 <= t < 375.0)
        trough = sum(1 for t in arrivals if 625.0 <= t < 875.0)
        assert peak > 4 * trough

    def test_spikes_add_a_flash_crowd(self):
        quiet = DiurnalTrace(
            rate_rps=2.0, duration_s=600.0, amplitude=0.0, period_s=600.0
        )
        spiky = DiurnalTrace(
            rate_rps=2.0, duration_s=600.0, amplitude=0.0, period_s=600.0,
            spikes=((200.0, 100.0, 20.0),),
        )
        def in_window(requests):
            return sum(1 for r in requests if 200.0 <= r.arrival_s < 300.0)

        assert in_window(spiky.stream(0)) > 3 * in_window(quiet.stream(0))

    def test_rate_at_combines_sinusoid_and_spikes(self):
        trace = DiurnalTrace(
            rate_rps=4.0, duration_s=400.0, amplitude=0.5, period_s=400.0,
            spikes=((50.0, 10.0, 6.0),),
        )
        assert trace.rate_at(100.0) == pytest.approx(6.0)  # sin peak
        assert trace.rate_at(300.0) == pytest.approx(2.0)  # sin trough
        assert trace.rate_at(55.0) == pytest.approx(
            4.0 + 4.0 * 0.5 * math.sin(2 * math.pi * 55.0 / 400.0) + 6.0
        )
        assert trace.peak_rate_rps == pytest.approx(12.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            DiurnalTrace(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalTrace(rate_rps=1.0, amplitude=1.5)
        with pytest.raises(ConfigurationError):
            DiurnalTrace(rate_rps=1.0, period_s=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalTrace(rate_rps=1.0, spikes=((0.0, 10.0),))
        with pytest.raises(ConfigurationError):
            DiurnalTrace(rate_rps=1.0, spikes=((-1.0, 10.0, 2.0),))
        with pytest.raises(ConfigurationError):
            DiurnalTrace(rate_rps=1.0, spikes=((0.0, 10.0, -2.0),))

    def test_priority_levels(self):
        trace = DiurnalTrace(
            rate_rps=5.0, duration_s=60.0, priority_levels=3, period_s=60.0
        )
        assert {r.priority for r in trace.stream(0)} == {0, 1, 2}


class TestClosedLoopTrace:
    def test_initial_one_request_per_client(self):
        trace = ClosedLoopTrace(clients=4, requests_per_client=3)
        source = trace.build(0)
        assert len(source.initial) == 4
        assert {request.client_id for request in source.initial} == {0, 1, 2, 3}

    def test_follow_ups_respect_quota_and_causality(self):
        trace = ClosedLoopTrace(
            clients=2, requests_per_client=3, mean_think_s=0.5
        )
        source = trace.build(0)
        issued = {client: 1 for client in range(2)}
        frontier = list(source.initial)
        while frontier:
            request = frontier.pop()
            finish = request.arrival_s + 1.0
            follow = source.follow_up(record_of(request, finish))
            if follow is not None:
                assert follow.arrival_s > finish
                issued[follow.client_id] += 1
                frontier.append(follow)
        assert issued == {0: 3, 1: 3}

    def test_build_is_reproducible(self):
        trace = ClosedLoopTrace(clients=3, requests_per_client=2)
        assert trace.build(5).initial == trace.build(5).initial


class TestReplay:
    def test_round_trip_through_json(self, tmp_path):
        requests = PoissonTrace(rate_rps=4.0, duration_s=20.0).build(0).initial
        path = tmp_path / "trace.json"
        save_trace(requests, str(path))
        replay = load_trace(str(path))
        assert replay.build(99).initial == requests

    def test_save_and_load_round_trip_byte_for_byte(self, tmp_path):
        requests = (
            *PoissonTrace(rate_rps=4.0, duration_s=20.0, priority_levels=3)
            .build(0)
            .initial,
            Request(
                request_id=999,
                arrival_s=25.0,
                prompt_tokens=8,
                output_tokens=4,
                priority=1,
                client_id=3,
            ),
        )
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_trace(requests, str(first))
        save_trace(load_trace(str(first)).requests, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"nope": []}))
        with pytest.raises(ConfigurationError):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1", "$.requests[0]: expected a 'request' mapping, got int"),
            (
                '{"request_id": 0, "prompt_tokens": 4, "output_tokens": 2}',
                "$.requests[0]: missing required field 'arrival_s' of a request spec",
            ),
            (
                '{"request_id": "a", "arrival_s": 0, "prompt_tokens": 4, "output_tokens": 2}',
                "$.requests[0].request_id: expected an integer, got 'a'",
            ),
            (
                '{"request_id": 0, "arrival_s": NaN, "prompt_tokens": 4, "output_tokens": 2}',
                "$.requests[0]: arrival_s must be finite, got nan",
            ),
            (
                '{"request_id": 0, "arrival_s": 1e400, "prompt_tokens": 4, "output_tokens": 2}',
                "$.requests[0]: arrival_s must be finite, got inf",
            ),
            (
                '{"request_id": 0, "arrival_s": 0, "prompt_tokens": 1.5, "output_tokens": 2}',
                "$.requests[0].prompt_tokens: expected an integer, got 1.5",
            ),
            (
                '{"request_id": 0, "arrival_s": 0, "prompt_tokens": 4, "output_tokens": 2, '
                '"priority": 1.5}',
                "$.requests[0].priority: expected an integer, got 1.5",
            ),
            (
                '{"request_id": 0, "arrival_s": 0, "prompt_tokens": 4, "output_tokens": 2, '
                '"tokens": 3}',
                "$.requests[0]: unknown field(s) tokens for a request spec",
            ),
            (
                '{"request_id": 0, "arrival_s": 0, "prompt_tokens": 4, "output_tokens": 2, '
                '"priority": -1}',
                "$.requests[0]: priority must be non-negative",
            ),
        ],
        ids=[
            "not-a-mapping",
            "no-arrival",
            "string-id",
            "nan-arrival",
            "overflowing-arrival",
            "fractional-prompt",
            "fractional-priority",
            "unknown-field",
            "negative-priority",
        ],
    )
    def test_malformed_entries_name_their_file_and_path(self, tmp_path, entry, message):
        path = tmp_path / "t.json"
        path.write_text('{"requests": [' + entry + "]}")
        with pytest.raises(ConfigurationError) as excinfo:
            load_trace(str(path))
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["[]", '"requests"', '{"requests": []}'])
    def test_rejects_documents_without_a_request_list(self, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="is not a trace file"):
            load_trace(str(path))

    def test_replay_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ReplayTrace(())

    def test_duplicate_request_ids_rejected(self):
        duplicated = Request(
            request_id=1, arrival_s=0.0, prompt_tokens=4, output_tokens=2
        )
        with pytest.raises(ConfigurationError):
            ReplayTrace((duplicated, duplicated)).build(0)
