"""Property: every CLI shorthand parser answers any text cleanly.

The five fleet shorthands live on their types: ``--platform``
(:meth:`FleetPlatform.parse`), ``--class`` (:meth:`SLOClass.parse`),
``--autoscale`` (:meth:`AutoscalerConfig.parse`), ``--faults``
(:meth:`FaultModel.parse`) and ``--retry`` (:meth:`RetryPolicy.parse`);
tune's ``--constraint`` is :func:`~repro.dse.parse_constraint`.
Given arbitrary text, each returns an instance of its type or raises a
:class:`~repro.errors.ReproError` — which the CLI reports as one
``error:`` line — and never any other exception, within one second.
A parsed constraint's bound is finite, and its rendered text parses
again.

Tune's space flags (``--chips``, ``--link-gbps``, ``--l2-kib``,
``--freq-mhz``, ``--strategies``), given any values of their argument
types, either raise a :class:`~repro.errors.ReproError` or yield a spec
whose every axis value materialises, so an emitted spec can run.
"""

from __future__ import annotations

import argparse
import math
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _tune_spec_from_args, build_parser
from repro.dse import Constraint, parse_constraint
from repro.dse.space import materialise
from repro.errors import ReproError
from repro.fleet import (
    AutoscalerConfig,
    FaultModel,
    FleetPlatform,
    RetryPolicy,
    SLOClass,
)

#: Flag -> (parser of one flag value, the type it returns).
PARSERS = {
    "--autoscale": (AutoscalerConfig.parse, AutoscalerConfig),
    "--class": (SLOClass.parse, SLOClass),
    "--faults": (lambda text: FaultModel.parse([text]), FaultModel),
    "--platform": (FleetPlatform.parse, FleetPlatform),
    "--retry": (RetryPolicy.parse, RetryPolicy),
}

#: Pieces of the shorthand grammars, so that many examples get past the
#: first split and reach the number parsing and range checks.
TOKENS = st.one_of(
    st.sampled_from(
        [
            ":", "@", "+", "x", "random:", "crash:", "slow:", "brownout",
            "siracusa-mipi", "prefill", "decode", "any", "nan", "inf",
            "-inf", "-1", "0", "1e400", "99999999999999999999", " ",
        ]
    ),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=3),
)

TEXT = st.one_of(st.text(), st.lists(TOKENS, max_size=10).map("".join))

#: ``<objective><op><number>`` texts, so that most examples reach the
#: bound's float conversion and range check.
CONSTRAINT_TEXT = st.one_of(
    TEXT,
    st.tuples(
        st.sampled_from(["latency", "slo", " energy ", "x1", ""]),
        st.sampled_from(["<=", ">=", "<", "=="]),
        st.one_of(
            st.sampled_from(["1e400", "-1e400", "1e-400", "-0", ".", "e5"]),
            st.floats().map(repr),
            st.integers().map(str),
            st.text(alphabet="0123456789.eE+-", max_size=12),
        ),
    ).map("".join),
)


#: ``repro tune``'s parsed default arguments.
TUNE_DEFAULTS = build_parser().parse_args(["tune"])

#: Tune's space flags -> (argparse destination, values of the flag's type).
TUNE_AXIS_FLAGS = {
    "--chips": ("chips", st.integers()),
    "--freq-mhz": ("freq_mhz", st.floats()),
    "--l2-kib": ("l2_kib", st.integers()),
    "--link-gbps": ("link_gbps", st.floats()),
    "--strategies": (
        "strategies",
        st.one_of(
            st.sampled_from(
                ["paper", "ours", "sequence_parallel", "pipeline_parallel", "nope", ""]
            ),
            st.text(max_size=8),
        ),
    ),
}


@pytest.mark.parametrize("flag", sorted(PARSERS))
@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(text=TEXT)
def test_parser_returns_an_instance_or_raises_a_repro_error(flag, text):
    parse, cls = PARSERS[flag]
    try:
        parsed = parse(text)
    except ReproError:
        return
    assert isinstance(parsed, cls)


@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(text=CONSTRAINT_TEXT)
def test_constraint_parses_to_a_finite_bound_or_raises_a_repro_error(text):
    try:
        parsed = parse_constraint(text)
    except ReproError:
        return
    assert isinstance(parsed, Constraint)
    assert math.isfinite(parsed.bound)
    assert isinstance(parse_constraint(parsed.render()), Constraint)


@pytest.mark.parametrize("flag", sorted(TUNE_AXIS_FLAGS))
@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(data=st.data())
def test_tune_axis_flag_yields_a_runnable_space_or_raises_a_repro_error(
    flag, data
):
    destination, values = TUNE_AXIS_FLAGS[flag]
    args = argparse.Namespace(**vars(TUNE_DEFAULTS))
    setattr(args, destination, data.draw(st.lists(values, min_size=1, max_size=3)))
    try:
        spec = _tune_spec_from_args(args)
    except ReproError:
        return
    for axis in spec.space.build().axes:
        for value in axis.values():
            materialise({axis.name: value})
