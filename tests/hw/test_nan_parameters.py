"""NaN and infinity are not parameter values: every model check rejects them.

A ``<= 0`` or ``< 0`` check is false for NaN, so each check is written
as the negation of the valid range.  A NaN link bandwidth used to reach
an :class:`~repro.api.EvalResult` as a NaN ``block_cycles``, which a
persistent store kept.  Infinity passes a range check, so each range
check has a "must be finite" check beside it: an infinite link energy
used to evaluate to an infinite ``block_energy_joules``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Session
from repro.dse import materialise
from repro.errors import AnalysisError, ConfigurationError
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m

NAN = float("nan")
INF = float("inf")


def _link(**changes):
    return replace(siracusa_platform(1).link, **changes)


def _cluster(**changes):
    return replace(siracusa_platform(1).chip.cluster, **changes)


def _l3_l2_dma(**changes):
    return replace(siracusa_platform(1).chip.dma.l3_l2, **changes)


def _l2(**changes):
    return replace(siracusa_platform(1).chip.memory.l2, **changes)


def _result(**changes):
    workload = autoregressive(tinyllama_42m(), 128)
    return replace(Session().run(workload, chips=1), **changes)


#: Each checked field: its builder, the error it raises, the message of
#: its range check (which NaN fails) and of its finite check (which
#: infinity fails).
CHECKS = [
    (_link, "bandwidth_bytes_per_s", ConfigurationError,
     "link bandwidth must be positive", "link bandwidth must be finite"),
    (_link, "energy_pj_per_byte", ConfigurationError,
     "link energy must be non-negative", "link energy must be finite"),
    (_cluster, "macs_per_core_per_cycle", ConfigurationError,
     "MAC throughput must be positive", "MAC throughput must be finite"),
    (_cluster, "power_per_core_w", ConfigurationError,
     "core power must be non-negative", "core power must be finite"),
    (_cluster, "l1_bytes_per_core_per_cycle", ConfigurationError,
     "L1 port bandwidth must be positive", "L1 port bandwidth must be finite"),
    (_l3_l2_dma, "bytes_per_cycle", ConfigurationError,
     "DMA 'L3<->L2' bandwidth must be positive",
     "DMA 'L3<->L2' bandwidth must be finite"),
    (_l2, "access_energy_pj_per_byte", ConfigurationError,
     "L2 access energy must be non-negative", "L2 access energy must be finite"),
    (_result, "block_cycles", AnalysisError,
     "block_cycles must be positive", "block_cycles must be finite"),
    (_result, "block_energy_joules", AnalysisError,
     "energy and traffic cannot be negative", "energy and traffic must be finite"),
    (_result, "l3_bytes_per_block", AnalysisError,
     "energy and traffic cannot be negative", "energy and traffic must be finite"),
]


@pytest.mark.parametrize(
    "build,field,error,message",
    [(build, field, error, nan) for build, field, error, nan, _ in CHECKS],
)
def test_nan_is_rejected_with_the_range_message(build, field, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build(**{field: NAN})


def test_a_nan_design_axis_is_rejected():
    with pytest.raises(ConfigurationError, match="^link energy must be non-negative$"):
        materialise({"chips": 8, "link_pj_per_byte": NAN})


@pytest.mark.parametrize(
    "build,field,error,message",
    [(build, field, error, inf) for build, field, error, _, inf in CHECKS],
)
def test_infinity_is_rejected_as_not_finite(build, field, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build(**{field: INF})


def test_an_infinite_design_axis_is_rejected():
    with pytest.raises(ConfigurationError, match="^link energy must be finite$"):
        materialise({"chips": 8, "link_pj_per_byte": INF})
