"""The public surface: every exported name resolves, removed names stay gone.

:class:`~repro.api.EvalResult` is the one result schema; the legacy
result types, their converters and the seed's shims were removed.
:func:`repro.sim.simulate_block` is the one block simulator; the event
engine moved to the tests as their oracle (see the removal table in
``docs/API.md``).
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect

import pytest

import repro.sim.fastpath
from repro.api import EvalResult, EvalSweep

PUBLIC_MODULES = (
    "repro",
    "repro.api",
    "repro.analysis",
    "repro.baselines",
    "repro.sim",
    "repro.spec",
)

#: Module -> names it no longer exports.
REMOVED_NAMES = {
    "repro": (
        "ChipCountSweep",
        "MultiChipSimulator",
        "SweepResult",
        "chip_count_sweep",
    ),
    "repro.analysis": ("ChipCountSweep", "SweepResult", "chip_count_sweep"),
    "repro.baselines": (
        "BaselineResult",
        "compare_approaches",
        "evaluate_single_chip",
        "evaluate_tensor_parallel",
    ),
    "repro.sim": (
        "AllOf",
        "Environment",
        "Event",
        "MultiChipSimulator",
        "Process",
        "Timeout",
        "simulate_block_fast",
    ),
    "repro.spec": ("study_description",),
}

REMOVED_MODULES = (
    "repro.analysis.sweep",
    "repro.baselines.types",
    "repro.baselines.single_chip",
    "repro.baselines.tensor_parallel",
    "repro.experiments",
    "repro.sim.engine",
    "repro.sim.simulator",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exported_names_resolve_and_removed_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    for name in REMOVED_NAMES.get(module_name, ()):
        assert name not in module.__all__
        assert not hasattr(module, name)


def test_removed_modules_and_converters_are_gone():
    for name in REMOVED_MODULES:
        assert importlib.util.find_spec(name) is None, name
    assert not hasattr(EvalResult, "to_baseline_result")
    assert not hasattr(EvalResult, "from_baseline_result")
    assert not hasattr(EvalSweep, "to_sweep_result")


def test_simulate_block_has_one_engine():
    assert not hasattr(repro.sim.fastpath, "UnsupportedProgramError")
    assert repro.sim.simulate_block is repro.sim.fastpath.simulate_block
    parameters = inspect.signature(repro.sim.simulate_block).parameters
    assert list(parameters) == ["program", "record_events"]
    assert parameters["record_events"].default is False
