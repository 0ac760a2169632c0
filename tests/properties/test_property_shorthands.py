"""Property: every fleet shorthand parser answers any text cleanly.

The five CLI shorthands live on their types: ``--platform``
(:meth:`FleetPlatform.parse`), ``--class`` (:meth:`SLOClass.parse`),
``--autoscale`` (:meth:`AutoscalerConfig.parse`), ``--faults``
(:meth:`FaultModel.parse`) and ``--retry`` (:meth:`RetryPolicy.parse`).
Given arbitrary text, each returns an instance of its type or raises a
:class:`~repro.errors.ReproError` — which the CLI reports as one
``error:`` line — and never any other exception, within one second.
"""

from __future__ import annotations

from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

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
