"""Unit tests of the search orchestrator: state, cadence, resume, searchers."""

from __future__ import annotations

import json
import random

import pytest

from repro.api import Session
from repro.dse import (
    ChoiceAxis,
    DEFAULT_CHECKPOINT_EVERY,
    FloatAxis,
    SearchSpace,
    get_searcher,
    list_searchers,
    load_search_state,
)
from repro.dse.engine import Candidate, DesignEvaluator
from repro.dse.objectives import get_objective
from repro.dse.orchestrator import INTERRUPT_ENV, SearchState
from repro.errors import AnalysisError, SearchInterrupted, SpecError
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m
from repro.spec import loads, spec_from_dict


@pytest.fixture
def workload():
    return autoregressive(tinyllama_42m(), 64)


def small_space() -> SearchSpace:
    return SearchSpace(
        axes=(
            ChoiceAxis("chips", (1, 2)),
            FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 1.0)),
            ChoiceAxis("strategy", ("paper",)),
        )
    )


def tune(session, workload, **kwargs):
    defaults = dict(
        searcher="random",
        budget=6,
        seed=0,
        objectives=("latency", "energy"),
    )
    defaults.update(kwargs)
    return session.tune(workload, small_space(), **defaults)


class TestSearchState:
    def checkpoint(self, tmp_path, workload, **kwargs):
        path = tmp_path / "state.json"
        tune(Session(), workload, checkpoint=path, **kwargs)
        return path

    def test_checkpoint_is_a_schema_versioned_spec(self, tmp_path, workload):
        path = self.checkpoint(tmp_path, workload)
        document = json.loads(path.read_text())
        assert document["kind"] == "search_state"
        assert document["schema"] == 1
        assert document["searcher"] == "random"
        assert document["budget"] == 6
        assert document["workload"] == workload.name
        assert document["axes"] == ["chips", "link_gbps", "strategy"]
        assert document["space_size"] == 4
        assert document["evaluations_requested"] == 6
        assert document["candidates"]
        for index in document["front"]:
            assert 0 <= index < len(document["candidates"])

    def test_round_trips_through_spec_and_disk(self, tmp_path, workload):
        path = self.checkpoint(tmp_path, workload)
        state = load_search_state(path)
        assert isinstance(state, SearchState)
        assert SearchState.from_dict(state.to_dict()) == state
        assert loads(path.read_text()) == state
        assert spec_from_dict(json.loads(path.read_text())) == state
        assert state.to_json() == path.read_text()

    def test_candidates_round_trip_through_their_dict_form(
        self, tmp_path, workload
    ):
        path = self.checkpoint(tmp_path, workload)
        result = tune(Session(), workload)
        state = load_search_state(path)
        assert state.candidates == tuple(
            candidate.as_dict() for candidate in result.candidates
        )
        assert [
            Candidate.from_dict(data, index).as_dict()
            for index, data in enumerate(state.candidates)
        ] == list(state.candidates)

    def test_a_malformed_candidate_fails_the_preload(self, workload):
        evaluator = DesignEvaluator(
            Session(), workload, (get_objective("latency"),)
        )
        with pytest.raises(
            AnalysisError,
            match=r"checkpoint candidates\[1\] is not a serialised candidate "
            r"\(KeyError\('strategy'\)\)",
        ):
            evaluator.preload(
                [
                    {"point": {"chips": 1}, "strategy": "paper",
                     "num_chips": 1, "feasible": False, "objectives": {},
                     "block_cycles": None, "block_runtime_seconds": None,
                     "block_energy_joules": None},
                    {"point": {"chips": 2}},
                ]
            )

    def test_save_is_atomic_and_creates_parents(self, tmp_path, workload):
        path = self.checkpoint(tmp_path, workload)
        state = load_search_state(path)
        nested = tmp_path / "deep" / "dir" / "state.json"
        state.save(nested)
        assert nested.read_text() == path.read_text()
        assert not nested.with_suffix(".json.tmp").exists()

    def test_front_indices_point_at_the_front(self, tmp_path, workload):
        path = self.checkpoint(tmp_path, workload)
        state = load_search_state(path)
        result = tune(Session(), workload)
        front_points = {candidate.point for candidate in result.front}
        indexed = {
            Candidate.from_dict(state.candidates[index], index).point
            for index in state.front
        }
        assert indexed == front_points

    def test_unreadable_and_malformed_checkpoints_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read checkpoint"):
            load_search_state(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            load_search_state(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": 1, "kind": "tune"}))
        with pytest.raises(SpecError):
            load_search_state(wrong)

    def test_spec_validates_front_indices(self):
        with pytest.raises(SpecError, match="front index"):
            SearchState(
                searcher="random",
                seed=0,
                budget=4,
                workload="w",
                axes=("chips",),
                space_size=2,
                objectives=("latency",),
                constraints=(),
                evaluations_requested=4,
                rng_state=None,
                candidates=(),
                front=(0,),
            )


class TestOrchestratorValidation:
    def test_bad_parallel_and_cadence_rejected(self, workload):
        session = Session()
        with pytest.raises(AnalysisError, match="parallel"):
            tune(session, workload, parallel=0)
        with pytest.raises(AnalysisError, match="checkpoint interval"):
            tune(session, workload, checkpoint_every=0)

    def test_resume_mismatch_names_the_field(self, tmp_path, workload):
        checkpoint = tmp_path / "state.json"
        tune(Session(), workload, checkpoint=checkpoint)
        for kwargs, field in (
            (dict(seed=9), "seed"),
            (dict(budget=7), "budget"),
            (dict(searcher="anneal"), "searcher"),
            (dict(objectives=("latency",)), "objectives"),
        ):
            with pytest.raises(AnalysisError, match=field):
                tune(Session(), workload, resume=checkpoint, **kwargs)

    def test_interrupt_hook_rejects_garbage(self, workload, monkeypatch):
        monkeypatch.setenv(INTERRUPT_ENV, "soon")
        with pytest.raises(AnalysisError, match=INTERRUPT_ENV):
            tune(Session(), workload)

    def test_interrupt_skips_the_final_checkpoint_write(
        self, tmp_path, workload, monkeypatch
    ):
        # A hard kill must not leave a fresher state than the cadence
        # wrote: with a cadence wider than the interrupt point, no file
        # may exist at all.
        monkeypatch.setenv(INTERRUPT_ENV, "1")
        checkpoint = tmp_path / "state.json"
        with pytest.raises(SearchInterrupted):
            tune(Session(), workload, checkpoint=checkpoint,
                 checkpoint_every=100)
        assert not checkpoint.exists()


class TestCheckpointCadence:
    def test_cadence_counts_unique_evaluations(
        self, tmp_path, workload, monkeypatch
    ):
        # Interrupt after 3 fresh points with cadence 2: the checkpoint
        # on disk must hold exactly 2 candidates (the last cadence hit),
        # not 3 — the kill happens between cadence boundaries.
        monkeypatch.setenv(INTERRUPT_ENV, "3")
        checkpoint = tmp_path / "state.json"
        with pytest.raises(SearchInterrupted):
            # Grid visits all four unique points in a fixed order, so the
            # third fresh evaluation is guaranteed to exist.
            tune(Session(), workload, searcher="grid",
                 checkpoint=checkpoint, checkpoint_every=2)
        assert len(load_search_state(checkpoint).candidates) == 2

    @pytest.mark.parametrize(
        "every, interrupt, windows",
        [
            (None, None, [12]),  # the whole plan in one call
            (5, None, [5, 5, 2]),  # each window ends on a checkpoint
            (None, "3", [3]),  # the hook stops the walk after 3
            (5, "7", [5, 2]),
        ],
    )
    def test_windows_stop_at_checkpoints_and_the_interrupt(
        self, tmp_path, workload, monkeypatch, every, interrupt, windows
    ):
        sizes = []
        run_many = Session.run_many

        def recording(self, requests, **kwargs):
            sizes.append(len(requests))
            return run_many(self, requests, **kwargs)

        monkeypatch.setattr(Session, "run_many", recording)
        if interrupt is not None:
            monkeypatch.setenv(INTERRUPT_ENV, interrupt)
        space = SearchSpace(
            axes=(
                ChoiceAxis("chips", (1, 2, 4)),
                FloatAxis("link_gbps", 0.25, 2.0, levels=(0.25, 0.5, 1.0, 2.0)),
            )
        )
        session = Session()
        checkpoint = tmp_path / "state.json" if every is not None else None
        try:
            session.tune(
                workload, space, searcher="grid", budget=12,
                checkpoint=checkpoint, checkpoint_every=every,
            )
        except SearchInterrupted:
            assert interrupt is not None
        assert sizes == windows
        # No engine work beyond what the walk recorded.
        assert session.cache_info().misses == sum(windows)

    def test_default_cadence_applies_with_checkpoint_only(
        self, tmp_path, workload
    ):
        assert DEFAULT_CHECKPOINT_EVERY == 25
        checkpoint = tmp_path / "state.json"
        result = tune(Session(), workload, checkpoint=checkpoint)
        # Fewer unique points than the default cadence: only the final
        # unconditional write produced the file.
        assert len(result.candidates) < DEFAULT_CHECKPOINT_EVERY
        state = load_search_state(checkpoint)
        assert len(state.candidates) == len(result.candidates)


class TestMultiFidelitySearchers:
    def test_registered_with_aliases(self):
        names = list_searchers()
        assert "halving" in names
        assert "surrogate" in names
        assert get_searcher("sha").name == "halving"
        assert get_searcher("successive_halving").name == "halving"
        assert get_searcher("model_guided").name == "surrogate"

    @pytest.mark.parametrize("searcher", ["halving", "surrogate"])
    def test_respects_the_budget_and_finds_a_front(self, searcher, workload):
        session = Session()
        result = tune(session, workload, searcher=searcher, budget=8)
        assert result.evaluations_requested <= 8
        assert result.front
        assert len(result.candidates) <= 8

    @pytest.mark.parametrize("searcher", ["halving", "surrogate"])
    def test_equal_seeds_are_byte_identical(self, searcher, workload):
        documents = [
            json.dumps(
                tune(Session(), workload, searcher=searcher, seed=3).to_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert documents[0] == documents[1]

    @pytest.mark.parametrize("searcher", ["grid", "random"])
    def test_announces_the_search_order_before_evaluating(
        self, searcher, workload, monkeypatch
    ):
        # Grid and random announce their whole schedule through
        # ``evaluate.prefill`` before the first evaluation, and then
        # request exactly the announced points, in order.
        calls = []
        announce = DesignEvaluator.announce
        evaluate = DesignEvaluator.evaluate

        def spy_announce(self, points):
            calls.append(("prefill", [dict(point) for point in points]))
            return announce(self, points)

        def spy_evaluate(self, point, **kwargs):
            calls.append(("evaluate", dict(point)))
            return evaluate(self, point, **kwargs)

        monkeypatch.setattr(DesignEvaluator, "announce", spy_announce)
        monkeypatch.setattr(DesignEvaluator, "evaluate", spy_evaluate)
        space = small_space()
        tune(Session(), workload, searcher=searcher, budget=4, seed=5)
        (kind, announced), *evaluations = calls
        assert kind == "prefill"
        assert evaluations == [("evaluate", point) for point in announced]
        if searcher == "grid":
            assert announced == list(space.grid())
        else:
            rng = random.Random(5)
            assert announced == [space.sample(rng) for _ in range(4)]

    def test_random_announces_from_a_copy_of_its_generator(self):
        # The announcement must not advance the walk's generator: every
        # checkpoint records that generator's state.
        rng = random.Random(5)
        space = small_space()
        evaluated = []

        def evaluate(point):
            evaluated.append(point)
            return point

        evaluate.prefill = lambda points: None
        get_searcher("random").search(
            space, evaluate, (), budget=4, rng=rng
        )
        replay = random.Random(5)
        assert evaluated == [space.sample(replay) for _ in range(4)]
        assert rng.getstate() == replay.getstate()
