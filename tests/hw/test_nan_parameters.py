"""NaN is not a parameter value: every model check rejects it.

A ``<= 0`` or ``< 0`` check is false for NaN, so each check is written
as the negation of the valid range.  A NaN link bandwidth used to reach
an :class:`~repro.api.EvalResult` as a NaN ``block_cycles``, which a
persistent store kept.
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


@pytest.mark.parametrize(
    "build,field,error,message",
    [
        (_link, "bandwidth_bytes_per_s", ConfigurationError,
         "link bandwidth must be positive"),
        (_link, "energy_pj_per_byte", ConfigurationError,
         "link energy must be non-negative"),
        (_cluster, "macs_per_core_per_cycle", ConfigurationError,
         "MAC throughput must be positive"),
        (_cluster, "power_per_core_w", ConfigurationError,
         "core power must be non-negative"),
        (_cluster, "l1_bytes_per_core_per_cycle", ConfigurationError,
         "L1 port bandwidth must be positive"),
        (_l3_l2_dma, "bytes_per_cycle", ConfigurationError,
         "DMA 'L3<->L2' bandwidth must be positive"),
        (_l2, "access_energy_pj_per_byte", ConfigurationError,
         "L2 access energy must be non-negative"),
        (_result, "block_cycles", AnalysisError,
         "block_cycles must be positive"),
        (_result, "block_energy_joules", AnalysisError,
         "energy and traffic cannot be negative"),
        (_result, "l3_bytes_per_block", AnalysisError,
         "energy and traffic cannot be negative"),
    ],
)
def test_nan_is_rejected_with_the_range_message(build, field, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build(**{field: NAN})


def test_a_nan_design_axis_is_rejected():
    with pytest.raises(ConfigurationError, match="^link energy must be non-negative$"):
        materialise({"chips": 8, "link_pj_per_byte": NAN})
