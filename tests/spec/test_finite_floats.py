"""Every float a spec document carries must be finite.

``NaN`` and the infinities pass range checks unnoticed (``nan < 0`` is
false), and a spec that holds one writes ``NaN`` or ``Infinity`` into its
document, which is not JSON.  For every registered kind, each field
annotated ``float``, ``Optional[float]`` or a tuple of floats is set to
each non-finite value at a node of that kind taken from the spec-error
golden's base documents; the document must fail to decode with a
:class:`~repro.errors.SpecError` that starts with the node's path.
"""

from __future__ import annotations

import copy
import importlib.util
import math
import pathlib
import typing
from typing import Union

import pytest

import repro.arch  # noqa: F401 - registers the architecture kinds
import repro.fleet  # noqa: F401 - registers the fleet kinds
from repro.errors import SpecError
from repro.spec import spec_from_dict
from repro.spec.base import _KINDS, _field_types

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_spec_error_golden", DATA / "make_spec_error_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _load_generator()


def _float_shape(hint):
    """``"scalar"`` or ``"tuple"`` for a float-valued annotation, else ``None``.

    ``axis.choices`` holds scalars of any type, so it is not a float tuple.
    """
    options = [hint]
    if typing.get_origin(hint) is Union:
        options = [o for o in typing.get_args(hint) if o is not type(None)]
    if len(options) != 1:
        return None
    (inner,) = options
    if inner is float:
        return "scalar"
    if typing.get_origin(inner) is tuple and typing.get_args(inner)[0] is float:
        return "tuple"
    return None


FLOAT_FIELDS = sorted(
    (kind, name, shape)
    for kind, cls in _KINDS.items()
    for name, hint, _ in _field_types(cls)
    if (shape := _float_shape(hint)) is not None
)


def _node(kind, name):
    """(document, location) of the first node of ``kind`` carrying ``name``.

    Falls back to the first node of the kind; axis nodes must be float axes.
    """
    first = None
    for _, document in GOLDEN.base_documents():
        for location, node in GOLDEN.kind_nodes(document):
            if node["kind"] != kind:
                continue
            if kind == "axis" and node.get("axis") != "float":
                continue
            if name in node:
                return document, location
            first = first or (document, location)
    return first


def test_the_float_fields_are_found():
    kinds = {kind for kind, _, _ in FLOAT_FIELDS}
    assert {"trace", "serve", "fleet", "axis", "slo_class", "retry",
            "autoscaler", "serving_scenario", "fault_event", "faults"} <= kinds
    assert ("axis", "choices", "tuple") not in FLOAT_FIELDS
    assert ("trace", "spike_starts_s", "tuple") in FLOAT_FIELDS


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize(
    "kind, name, shape",
    FLOAT_FIELDS,
    ids=[f"{kind}.{name}" for kind, name, _ in FLOAT_FIELDS],
)
def test_a_non_finite_float_fails_at_its_node(kind, name, shape, value):
    found = _node(kind, name)
    assert found is not None, f"no {kind} node in the base documents"
    base, location = found
    document = copy.deepcopy(base)
    GOLDEN.node_at(document, location)[name] = [value] if shape == "tuple" else value
    with pytest.raises(SpecError) as error:
        spec_from_dict(document)
    assert str(error.value).startswith(GOLDEN.json_path(location)), str(error.value)
