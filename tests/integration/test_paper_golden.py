"""The paper's numbers, pinned: every figure, table and headline point.

``tests/data/paper_golden.json`` was generated by
``tests/data/make_paper_golden.py``.  JSON keeps each float's ``repr``,
so the recomputed document must equal the committed one exactly — a
refactor that shifts any number, even in the last bit, fails here.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_paper_golden", DATA / "make_paper_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA / "paper_golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def recomputed():
    return _load_generator().golden_document()


@pytest.mark.parametrize(
    "section", ["sweeps", "table1", "headline", "models", "studies"]
)
def test_section_matches_golden(golden, recomputed, section):
    assert recomputed[section] == golden[section]


def test_golden_covers_every_section(golden, recomputed):
    assert set(recomputed) == set(golden)
    assert len(golden["headline"]) == 9
    assert [result["strategy"] for result in golden["table1"]["results"]] == [
        "single_chip",
        "weight_replicated",
        "pipeline_parallel",
        "tensor_parallel",
    ]


def test_headline_ratios_stay_in_the_paper_band():
    # Separate from the exact pin: a re-pin may move a number, but every
    # Measured/Paper ratio of the nine headline values must stay within
    # 30% of the paper (0.76-1.14 when this band was set).
    from repro import Study
    from repro.analysis import headline_metrics
    from repro.spec import get_study

    metrics = headline_metrics(Study(get_study("headline")).run())
    assert len(metrics) == 9
    outside = {
        metric.name: metric.ratio
        for metric in metrics
        if not 0.70 <= metric.ratio <= 1.30
    }
    assert outside == {}
