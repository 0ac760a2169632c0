"""The public surface: every exported name resolves, removed names stay gone.

:class:`~repro.api.EvalResult` is the one result schema; the legacy
result types, their converters and the seed's shims were removed.
:func:`repro.sim.simulate_block` is the one block simulator; the event
engine moved to the tests as their oracle.  Each fleet and DSE setting is
one type: the runtime class is its own spec kind, and the ``*Spec``
mirrors are gone (see the removal table in ``docs/API.md``).
:func:`repro.spec.execute` is the one way to run a spec; ``Session``'s
methods take imperative arguments only.  Each model is one shipped
document; its hand-coded configuration and zoo factory are gone.
:class:`repro.fleet.FleetSimulator` is the one serving engine: ``serve``
runs as a one-replica fleet, and the single-platform engine moved to the
tests as their oracle.  Every result type serialises itself, so the free
encoders of :mod:`repro.analysis.export` are gone.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
from dataclasses import fields
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.api.session
import repro.sim.fastpath
import repro.spec.runner
from repro.api import EvalResult, EvalSweep, Session
from repro.dse import SearchState, ServingScenario
from repro.fleet import (
    AdmissionController,
    AutoscalerConfig,
    FaultEvent,
    FaultModel,
    FleetPlatform,
    RetryPolicy,
    SLOClass,
)
from repro.serving import ServingResult
from repro.spec import spec_from_dict

PUBLIC_MODULES = (
    "repro",
    "repro.api",
    "repro.analysis",
    "repro.arch",
    "repro.arch.zoo",
    "repro.baselines",
    "repro.dse",
    "repro.fleet",
    "repro.fleet.metrics",
    "repro.hw",
    "repro.models",
    "repro.serving",
    "repro.sim",
    "repro.spec",
)

#: The model factories and constants that each shipped model document
#: replaced.
ZOO_FACTORIES = (
    "ZOO",
    "build_zoo_model",
    "encdec_small",
    "gqa_1b",
    "gqa_moe_tiny",
    "longctx_4k",
    "moe_8x",
    "mqa_270m",
)

#: Module -> names it no longer exports.
REMOVED_NAMES = {
    "repro": (
        "ChipCountSweep",
        "MultiChipSimulator",
        "SweepResult",
        "chip_count_sweep",
        "default_session",
    ),
    "repro.api": ("default_session", "set_default_session"),
    "repro.arch": ZOO_FACTORIES,
    "repro.arch.zoo": (*ZOO_FACTORIES, "LONGCTX_SEQ_LEN", "LONGCTX_WINDOW"),
    "repro.models": (
        "MOBILEBERT_SEQ_LEN",
        "TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN",
        "TINYLLAMA_PROMPT_SEQ_LEN",
        "TINYLLAMA_SCALED_NUM_HEADS",
    ),
    "repro.analysis": (
        "ChipCountSweep",
        "SweepResult",
        "chip_count_sweep",
        "comparison_to_json",
        "eval_result_to_dict",
        "eval_sweep_to_json",
        "fleet_report_to_dict",
        "fleet_report_to_json",
        "report_to_dict",
        "search_state_to_dict",
        "search_state_to_json",
        "sweep_to_json",
        "sweep_to_records",
    ),
    "repro.analysis.export": (
        "comparison_to_dict",
        "comparison_to_json",
        "eval_result_to_dict",
        "eval_sweep_to_dict",
        "eval_sweep_to_json",
        "report_to_dict",
        "sweep_to_json",
        "sweep_to_records",
        "tune_result_to_dict",
        "tune_result_to_json",
    ),
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
    "repro.hw": ("ChipInstance", "siracusa_big_l2_platform", "siracusa_fast_link_platform"),
    "repro.hw.presets": (
        "siracusa_big_l2_platform",
        "siracusa_fast_link_platform",
        "siracusa_low_power_platform",
    ),
    "repro.hw.interconnect": ("mipi_link",),
    "repro.dse.space": ("_design_chip", "_design_link"),
    "repro.fleet.metrics": ("DEFAULT_FLEET_SLO_TARGETS_S",),
    "repro.serving": ("ServingSimulator", "utilisation_timeline"),
    "repro.spec": (
        "AutoscalerSpec",
        "FaultEventSpec",
        "FaultSpec",
        "FleetPlatformSpec",
        "RetryPolicySpec",
        "SLOClassSpec",
        "ScenarioSpec",
        "SearchStateSpec",
        "study_description",
    ),
}

#: Minimal valid document of each merged kind -> the runtime class it
#: decodes to.
MERGED_KINDS = (
    ({"kind": "fleet_platform"}, FleetPlatform),
    ({"kind": "slo_class"}, SLOClass),
    ({"kind": "autoscaler"}, AutoscalerConfig),
    ({"kind": "fault_event", "replica": 0}, FaultEvent),
    ({"kind": "faults"}, FaultModel),
    ({"kind": "retry"}, RetryPolicy),
    ({"kind": "serving_scenario"}, ServingScenario),
    (
        {
            "kind": "search_state", "searcher": "grid", "seed": 0,
            "budget": 1, "workload": "w", "axes": [], "space_size": None,
            "objectives": [], "constraints": [], "evaluations_requested": 0,
            "rng_state": None, "candidates": [], "front": [],
        },
        SearchState,
    ),
)

REMOVED_MODULES = (
    "repro.analysis.sweep",
    "repro.baselines.types",
    "repro.baselines.single_chip",
    "repro.baselines.tensor_parallel",
    "repro.experiments",
    "repro.models.mobilebert",
    "repro.models.tinyllama",
    "repro.serving.simulator",
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


@pytest.mark.parametrize(
    "module_name", sorted(set(REMOVED_NAMES) - set(PUBLIC_MODULES))
)
def test_removed_names_of_inner_modules_are_gone(module_name):
    module = importlib.import_module(module_name)
    for name in REMOVED_NAMES[module_name]:
        assert not hasattr(module, name)


def test_removed_hardware_members_are_gone():
    from repro.hw import (
        ChipModel,
        ClusterModel,
        DmaChannelModel,
        DmaModel,
        MemoryHierarchy,
        MemoryLevel,
        MultiChipPlatform,
    )

    removed = {
        DmaModel: ("default",),
        DmaChannelModel: ("transfers_for",),
        MultiChipPlatform: (
            "aggregate_l2_bytes",
            "aggregate_on_chip_bytes",
            "group_leader",
            "group_of",
            "is_single_chip",
            "num_tree_levels",
            "_check_chip_id",
        ),
        MemoryHierarchy: ("level", "on_chip_bytes"),
        MemoryLevel: ("check_fits", "fits"),
        ChipModel: ("access_energy_joules",),
        ClusterModel: (
            "compute_energy_joules",
            "cycles_to_seconds",
            "l1_bandwidth_bytes_per_cycle",
            "seconds_to_cycles",
        ),
    }
    for cls, names in removed.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)


def test_every_result_serialises_itself_with_at_most_a_cache_option():
    from repro.api import Comparison
    from repro.dse import TuneResult
    from repro.fleet import FleetReport
    from repro.serving import ServingReport

    takes_cache = (EvalSweep, ServingReport, FleetReport, TuneResult)
    for cls in (EvalResult, EvalSweep, Comparison, ServingReport, FleetReport, TuneResult):
        for method in (cls.to_dict, cls.to_json):
            parameters = list(inspect.signature(method).parameters)
            expected = ["self", "cache"] if cls in takes_cache else ["self"]
            assert parameters == expected, (cls.__name__, method.__name__)


def test_removed_modules_and_converters_are_gone():
    for name in REMOVED_MODULES:
        assert importlib.util.find_spec(name) is None, name
    assert not hasattr(EvalResult, "to_baseline_result")
    assert not hasattr(EvalResult, "from_baseline_result")
    assert not hasattr(EvalSweep, "to_sweep_result")
    assert not hasattr(AdmissionController, "index_of")
    assert [field.name for field in fields(ServingResult)] == [
        "policy",
        "records",
        "makespan_s",
        "busy_s",
    ]


def test_the_fleet_timeline_window_is_not_an_option():
    from repro.fleet import FleetSimulator
    from repro.fleet.simulator import TIMELINE_WINDOW_S

    assert TIMELINE_WINDOW_S == 60.0
    for constructor in (FleetSimulator, Session.serve_fleet):
        assert "timeline_window_s" not in inspect.signature(constructor).parameters


def test_execute_is_the_one_way_to_run_a_spec():
    assert "execute" in repro.spec.__all__
    assert repro.spec.execute is repro.spec.runner.execute
    assert not hasattr(Session, "_as_spec")
    tree = ast.parse(pathlib.Path(repro.api.session.__file__).read_text())
    imported = [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert not [name for name in imported if "spec" in name.split(".")]
    for method in (Session.serve, Session.serve_fleet):
        trace = inspect.signature(method).parameters["trace"]
        assert trace.default is inspect.Parameter.empty


def test_run_is_the_one_request_case_of_run_many():
    parameters = inspect.signature(Session.run_many).parameters
    assert list(parameters) == ["self", "requests", "record_events", "parallel"]
    assert parameters["record_events"].kind is inspect.Parameter.KEYWORD_ONLY
    assert parameters["record_events"].default is False
    assert parameters["parallel"].kind is inspect.Parameter.KEYWORD_ONLY
    assert parameters["parallel"].default is None
    source = inspect.getsource(Session.run)
    assert "self.run_many(" in source
    assert "impl.evaluate" not in source
    from repro.analysis.evaluate import evaluate_block, evaluate_blocks

    assert "evaluate_blocks(" in inspect.getsource(evaluate_block)
    assert "simulate_block(" not in inspect.getsource(evaluate_block)
    assert list(inspect.signature(evaluate_blocks).parameters)[:2] == [
        "workload",
        "platforms",
    ]


def test_simulate_block_has_one_engine():
    assert not hasattr(repro.sim.fastpath, "UnsupportedProgramError")
    assert repro.sim.simulate_block is repro.sim.fastpath.simulate_block
    parameters = inspect.signature(repro.sim.simulate_block).parameters
    assert list(parameters) == ["program", "record_events"]
    assert parameters["record_events"].default is False


@pytest.mark.parametrize(
    "document, cls", MERGED_KINDS, ids=[doc["kind"] for doc, _ in MERGED_KINDS]
)
def test_each_fleet_and_dse_kind_decodes_to_its_runtime_class(document, cls):
    spec = spec_from_dict(document)
    assert type(spec) is cls
    assert cls.kind == document["kind"]
    assert not hasattr(cls, "build")


def test_fault_event_names_its_fault_and_keeps_kind_as_the_tag():
    event = FaultEvent.parse("crash:0@1")
    assert event.fault == "crash"
    assert event.kind == "fault_event"


@pytest.mark.parametrize(
    "code",
    [
        "import sys, repro\n"
        "loaded = {'repro.fleet', 'repro.serving'} & set(sys.modules)\n"
        "assert not loaded, loaded\n",
        "import repro.fleet\n",
        "import repro.dse\n",
    ],
    ids=["repro-leaves-fleet-and-serving-out", "fleet-first", "dse-first"],
)
def test_fresh_import_graph(code):
    # `import repro` must not pay for the fleet and serving layers, and
    # each layer that names spec kinds must import cleanly on its own.
    source = pathlib.Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
