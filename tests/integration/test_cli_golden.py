"""The bytes of the evaluating commands, pinned across commits.

``tests/data/cli_golden.json`` was generated by
``tests/data/make_cli_golden.py``: the ``--emit-spec`` stdout of a flag
matrix covering every long flag of ``evaluate``, ``sweep``, ``compare``,
``serve``, ``fleet`` and ``tune``; the ``--json --no-cache`` stdout of
cheap runs, plus the ``repro models`` table, JSON and detail view and
the five plugin-registry listings; the exit status and ``error:``
line of malformed flags, of flag values the spec types reject, and of
unknown model, strategy, searcher, objective, platform, router and
policy names; and the ``--help`` text of every subcommand at
``COLUMNS=100``.  Each command is rerun in-process and compared with
``==``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.cli import build_parser

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))

#: The commands whose every long flag the ``--emit-spec`` matrix sets.
EVALUATING = ("evaluate", "sweep", "compare", "serve", "fleet", "tune")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_cli_golden", DATA / "make_cli_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


@pytest.mark.parametrize("command", sorted(GOLDEN["emit_spec"]))
def test_emit_spec_matches_golden(command):
    assert GENERATOR.stdout_of(command) == GOLDEN["emit_spec"][command]


@pytest.mark.parametrize("command", sorted(GOLDEN["json"]))
def test_json_run_matches_golden(command):
    assert GENERATOR.stdout_of(command) == GOLDEN["json"][command]


@pytest.mark.parametrize("command", sorted(GOLDEN["errors"]))
def test_error_matches_golden(command):
    expected = GOLDEN["errors"][command]
    assert GENERATOR.error_of(command) == expected
    assert expected["status"] == 2
    assert expected["stderr"].startswith("error: ")
    assert expected["stderr"].count("\n") == 1


@pytest.mark.parametrize("command", sorted(GOLDEN["help"]))
def test_help_matches_golden(command):
    assert GENERATOR.help_of(command) == GOLDEN["help"][command]


def test_golden_holds_exactly_the_generator_commands():
    assert sorted(GOLDEN["emit_spec"]) == sorted(GENERATOR.EMIT_SPEC)
    assert sorted(GOLDEN["json"]) == sorted(GENERATOR.JSON_RUNS)
    assert sorted(GOLDEN["errors"]) == sorted(GENERATOR.ERRORS)
    assert sorted(GOLDEN["help"]) == sorted(GENERATOR.HELP)


def test_help_covers_every_subcommand():
    subparsers = build_parser()._subparsers._group_actions[0]
    assert sorted(GENERATOR.HELP) == sorted(
        f"{command} --help" for command in subparsers.choices
    )


def _long_flags(command: str):
    subparsers = build_parser()._subparsers._group_actions[0]
    return {
        flag
        for action in subparsers.choices[command]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


@pytest.mark.parametrize("command", EVALUATING)
def test_emit_spec_matrix_sets_every_long_flag(command):
    used = {
        word
        for line in GENERATOR.EMIT_SPEC
        if line.split()[0] == command
        for word in line.split()
        if word.startswith("--")
    }
    assert _long_flags(command) - used == set()
