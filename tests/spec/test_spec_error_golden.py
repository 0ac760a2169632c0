"""What malformed spec documents decode to, pinned.

``tests/data/spec_error_golden.json`` was generated by
``tests/data/make_spec_error_golden.py``: every committed spec document
plus three hand-built ones, each decoded as is and under single faults
(a field set to a wrong-typed value, deleted, or an unknown field added),
and the bare-string shorthands.  Each entry is ``OK <sha256>`` of the
canonical document or the exact exception, so a change to any accepted
document's bytes or to any error message fails here.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_spec_error_golden", DATA / "make_spec_error_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads(
        (DATA / "spec_error_golden.json").read_text(encoding="utf-8")
    )


@pytest.fixture(scope="module")
def recomputed():
    return _load_generator().golden_document()


def test_recomputed_outcomes_match_the_golden(golden, recomputed):
    assert recomputed == golden


def test_every_failure_is_a_spec_error(golden):
    # The decoder's contract: a document decodes, or it raises SpecError
    # with the JSON path of the offending value.
    for key, outcome in golden.items():
        assert outcome.startswith(("OK ", "SpecError: $")), key


def test_base_documents_decode(golden):
    bases = {key: value for key, value in golden.items() if key.endswith("(base)")}
    assert len(bases) == 27  # 24 shipped documents plus three hand-built
    assert all(value.startswith("OK ") for value in bases.values())
