"""The fleet's per-request path against the plain forms it replaced.

Each rewrite of the path keeps its old form here, and a property holds
the two to the same bytes:

* :meth:`LatencySummary.of` sorts once; the old form took three
  :func:`percentile` calls, each sorting its own copy.
* ``_least_loaded`` picks in one pass; the old form was
  ``min(replicas, key=lambda r: (r.queue_depth, r.replica_id))``.
* :class:`SLOCounter` does one bisect per completion; the old form
  walked every target.
* :class:`Request` stores its fields straight into the instance dict;
  the old form was the frozen dataclass's generated ``__init__`` plus a
  ``__post_init__`` with the checks.

The sums of the serving metrics add left to right on every interpreter;
the last tests use values whose compensated sum (``sum`` from Python
3.12 on) differs.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
from dataclasses import dataclass
from functools import reduce
from operator import add
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AnalysisError, ConfigurationError
from repro.fleet.metrics import SLOCounter
from repro.fleet.routers import _least_loaded
from repro.serving import DiurnalTrace, ServingMetrics, ServingResult
from repro.serving.metrics import LatencySummary, percentile
from repro.serving.request import Request, RequestRecord
from repro.spec.base import SpecBase

FINITE = st.floats(allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# LatencySummary.of
# ----------------------------------------------------------------------
def reference_summary(values):
    return LatencySummary(
        mean=reduce(add, values, 0) / len(values),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        max=max(values),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(FINITE, min_size=1, max_size=60),
        # Few distinct values: runs of duplicates around every rank.
        st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.5]), min_size=1, max_size=60),
    )
)
@example([0.5])
@example([2.0, 2.0, 2.0])
def test_summary_matches_three_percentile_calls(values):
    assert repr(LatencySummary.of(values)) == repr(reference_summary(values))


@pytest.mark.parametrize(
    "values, q, message",
    [
        ([], 50, "cannot take a percentile of no values"),
        ([1.0], 101, "percentile 101 outside [0, 100]"),
        ([1.0], -0.5, "percentile -0.5 outside [0, 100]"),
    ],
)
def test_percentile_keeps_its_checks(values, q, message):
    with pytest.raises(AnalysisError) as excinfo:
        percentile(values, q)
    assert str(excinfo.value) == message


# ----------------------------------------------------------------------
# least-loaded routing
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=8
    ),
    st.randoms(),
)
def test_least_loaded_matches_min_with_a_key(shape, rng):
    # Few depths and ids: tied depths, and even tied ids, are common.
    pool = [SimpleNamespace(queue_depth=d, replica_id=i) for d, i in shape]
    rng.shuffle(pool)
    expected = min(pool, key=lambda r: (r.queue_depth, r.replica_id))
    assert _least_loaded(pool) is expected


# ----------------------------------------------------------------------
# SLO attainment
# ----------------------------------------------------------------------
def reference_curve(targets, samples):
    hits = [0] * len(targets)
    for ttft_s in samples:
        for position, target in enumerate(targets):
            if ttft_s <= target:
                hits[position] += 1
    count = len(samples)
    return tuple(
        (target, hits[position] / count if count else 0.0)
        for position, target in enumerate(targets)
    )


@st.composite
def targets_and_samples(draw):
    targets = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.1, 0.5, 1, 1.0, 2.0]),  # repeats, int and float
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=8,
        )
    )
    sample = st.floats(min_value=0.0, max_value=12.0)
    if targets:  # a TTFT equal to a target is met
        sample = st.one_of(sample, st.sampled_from(targets))
    return targets, draw(st.lists(sample, max_size=40))


@settings(max_examples=300, deadline=None)
@given(targets_and_samples())
@example(([1.0, 0.5, 1.0, 0.1], [1.0, 0.5, 0.1, 0.0, 2.0]))
@example(([0.5, float("nan"), 0.2], [0.1, 0.3]))
@example(((), [0.3]))
def test_slo_counter_matches_the_per_target_loop(case):
    targets, samples = case
    counter = SLOCounter(targets)
    for ttft_s in samples:
        counter.add(ttft_s)
    assert counter.count == len(samples)
    assert repr(counter.curve()) == repr(reference_curve(targets, samples))


# ----------------------------------------------------------------------
# Request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OldRequest(SpecBase):
    """The dataclass-generated constructor that ``Request`` replaced."""

    kind = "request"

    request_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    priority: int = 0
    client_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ConfigurationError("request_id must be non-negative")
        if not math.isfinite(self.arrival_s):
            raise ConfigurationError(f"arrival_s must be finite, got {self.arrival_s}")
        if self.arrival_s < 0:
            raise ConfigurationError("arrival_s must be non-negative")
        if self.prompt_tokens <= 0:
            raise ConfigurationError("prompt_tokens must be positive")
        if self.output_tokens <= 0:
            raise ConfigurationError("output_tokens must be positive")
        if self.priority < 0:
            raise ConfigurationError("priority must be non-negative")


FIELDS = st.fixed_dictionaries(
    {
        "request_id": st.integers(-2, 4),
        "arrival_s": st.one_of(
            st.sampled_from([0.0, -0.0, 1.5, -1.0, math.nan, math.inf, -math.inf]),
            st.floats(min_value=-5.0, max_value=5.0),
        ),
        "prompt_tokens": st.integers(-1, 3),
        "output_tokens": st.integers(-1, 3),
        "priority": st.integers(-1, 2),
        "client_id": st.one_of(st.none(), st.integers(0, 3)),
    }
)


def outcome(build, *args, **kwargs):
    """What ``build`` returns, or its configuration error as text."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as error:
        return f"{type(error).__name__}: {error}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("request_id", -1, "request_id must be non-negative"),
        ("arrival_s", math.nan, "arrival_s must be finite, got nan"),
        ("arrival_s", -math.inf, "arrival_s must be finite, got -inf"),
        ("arrival_s", -1.0, "arrival_s must be non-negative"),
        ("prompt_tokens", 0, "prompt_tokens must be positive"),
        ("output_tokens", 0, "output_tokens must be positive"),
        ("priority", -1, "priority must be non-negative"),
    ],
)
def test_each_invalid_field_has_its_message(field, value, message):
    valid = dict(request_id=0, arrival_s=0.0, prompt_tokens=1, output_tokens=1)
    with pytest.raises(ConfigurationError) as excinfo:
        Request(**{**valid, field: value})
    assert excinfo.type is ConfigurationError
    assert str(excinfo.value) == message


@settings(max_examples=400, deadline=None)
@given(FIELDS, FIELDS)
def test_request_matches_the_generated_constructor(fields, other_fields):
    new, old = outcome(Request, **fields), outcome(OldRequest, **fields)
    document = {k: v for k, v in fields.items() if v is not None}
    decoded = outcome(Request.from_dict, document)
    assert repr(decoded) == repr(outcome(OldRequest.from_dict, document)).replace(
        "OldRequest", "Request", 1
    )
    if isinstance(old, str):  # the first failing check wins
        assert new == old
        return
    assert repr(new) == repr(old).replace("OldRequest", "Request", 1)
    assert new.__dict__ == old.__dict__
    assert list(new.__dict__) == list(old.__dict__)
    assert hash(new) == hash(old)
    assert new == Request(**fields) == decoded and new != old
    other, other_old = outcome(Request, **other_fields), outcome(OldRequest, **other_fields)
    if not isinstance(other_old, str):
        assert (new == other) == (old == other_old)
    clone = pickle.loads(pickle.dumps(new))
    assert clone == new and clone.__dict__ == new.__dict__
    assert dataclasses.replace(new) == new
    for name, value in other_fields.items():
        assert outcome(dataclasses.replace, new, **{name: value}) == outcome(
            Request, **{**fields, name: value}
        )
    assert Request.from_dict(new.to_dict()) == new


def test_request_keeps_its_dataclass_shape():
    def shape(cls):
        return [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(cls)]

    assert shape(Request) == shape(OldRequest)
    assert list(inspect.signature(Request).parameters.values()) == list(
        inspect.signature(OldRequest).parameters.values()
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        Request(0, 0.0, 1, 1).priority = 2  # type: ignore[misc]


# ----------------------------------------------------------------------
# Left-to-right sums
# ----------------------------------------------------------------------
def test_the_mean_adds_left_to_right():
    # Left to right the 1.0 before -1e16 is lost: 1.0 / 4.  A compensated
    # sum keeps it: 2.0 / 4.
    assert LatencySummary.of([1e16, 1.0, -1e16, 1.0]).mean == 0.25


def test_the_total_energy_adds_left_to_right():
    energies = [1.0, 1e16, 1.0]  # compensated: 1e16 + 2
    records = tuple(
        RequestRecord(
            request=Request(index, 0.0, 1, 1),
            first_scheduled_s=0.0,
            first_token_s=1.0,
            finish_s=1.0,
            energy_joules=energy,
        )
        for index, energy in enumerate(energies)
    )
    result = ServingResult(policy="fifo", records=records, makespan_s=1.0, busy_s=1.0)
    metrics = ServingMetrics.from_result(result)
    assert metrics.total_energy_joules == 1e16
    assert metrics.energy_per_request_joules == 1e16 / 3


def test_the_peak_rate_adds_left_to_right():
    spikes = tuple((0.0, 1.0, extra) for extra in (1.0, 1e16, 1.0))
    trace = DiurnalTrace(rate_rps=1.0, amplitude=0.0, spikes=spikes)
    assert trace.peak_rate_rps == 1e16

