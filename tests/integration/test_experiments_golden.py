"""The text of ``repro experiments``, pinned for every ``--only`` value.

``tests/data/experiments_golden.json`` was generated by
``tests/data/make_experiments_golden.py``.  Each figure and table is
rendered from its shipped study's results, so a change to a study, a
renderer or a number shows up here as changed text.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import build_parser, main

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "data" / "experiments_golden.json")
    .read_text(encoding="utf-8")
)


@pytest.mark.parametrize("only", sorted(GOLDEN))
def test_experiment_text_matches_golden(capsys, only):
    assert main(["experiments", "--only", only, "--no-cache"]) == 0
    assert capsys.readouterr().out == GOLDEN[only]


def test_golden_covers_every_only_value():
    assert sorted(GOLDEN) == [
        "all", "dse", "fig4", "fig5", "fig6", "headline", "serving", "table1",
    ]
    parser = build_parser()
    for only in GOLDEN:
        assert parser.parse_args(["experiments", "--only", only]).only == only
