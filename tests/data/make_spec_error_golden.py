"""Regenerate ``spec_error_golden.json``, the pinned outcome of malformed specs.

The corpus starts from valid base documents:

* every shipped model (``src/repro/arch/shipped/*.json``), then every
  shipped study (``src/repro/spec/shipped/*.json``);
* a hand-built, fully populated ``fleet`` (platforms, SLO classes, an
  autoscaler, faults with events, a retry policy, a diurnal trace);
* a ``tune`` with a three-axis space and a serving scenario;
* a ``search_state`` checkpoint.

Each base document is decoded as is, and then once per single fault.
Faults are applied at kind-tagged nodes, once per (kind, field): at the
first node of that kind that carries the field, else at the first node
of that kind.  Each such field is

* set to each of :data:`FAULT_VALUES`;
* deleted, when the node carries it;

and the first node of each kind gains one unknown field.  Good and bad
bare strings for the five kinds with a string shorthand are decoded too.
Last, the ``tune`` document's space axes are given values that decode
but can never run (a non-positive chip count, an unknown strategy, ...);
those documents are also validated.

Every entry records what the document decodes (and, in that last group,
validates) to: ``OK <sha256 of the canonical to_json()>``, or
``<ExceptionType>: <message>``.
``tests/spec/test_spec_error_golden.py`` recomputes the document and
compares it with ``==``.  Regenerate from the repository root with::

    PYTHONPATH=src python tests/data/make_spec_error_golden.py
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict, Iterator, List, Tuple

from repro.fleet import FaultEvent, FleetPlatform, RetryPolicy
from repro.spec import ModelSpec, PlatformSpec, spec_from_dict

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "spec_error_golden.json"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Directories of committed base documents, in corpus order.
SPEC_DIRS = (
    REPO_ROOT / "src" / "repro" / "arch" / "shipped",
    REPO_ROOT / "src" / "repro" / "spec" / "shipped",
)

#: (label, value) pairs each field is set to, one at a time.
FAULT_VALUES: Tuple[Tuple[str, Any], ...] = (
    ("null", None),
    ("3", 3),
    ("1.5", 1.5),
    ('"x"', "x"),
    ("true", True),
    ("[]", []),
    ("{}", {}),
    ("10**400", 10**400),
    ('["x"]', ["x"]),
    ("[null]", [None]),
    ("[1.5]", [1.5]),
    ('{"kind": "bogus"}', {"kind": "bogus"}),
)

FLEET: Dict[str, Any] = {
    "kind": "fleet",
    "model": {"kind": "model", "name": "tinyllama-42m"},
    "trace": {
        "kind": "trace",
        "source": "diurnal",
        "rate_rps": 2.0,
        "duration_s": 600.0,
        "amplitude": 0.5,
        "period_s": 600.0,
        "phase_s": 30.0,
        "spike_starts_s": [120.0, 360.0],
        "spike_duration_s": 30.0,
        "spike_rate_rps": 5.0,
        "priority_levels": 2,
    },
    "platforms": [
        {
            "kind": "fleet_platform",
            "preset": "siracusa-mipi",
            "chips": 8,
            "replicas": 2,
            "role": "prefill",
        },
        "siracusa-low-power:8@decode",
    ],
    "router": "least_loaded",
    "policy": "fifo",
    "strategy": "paper",
    "classes": [
        {
            "kind": "slo_class",
            "name": "interactive",
            "rate_rps": 4.0,
            "burst": 4,
            "priority": 1,
            "ttft_slo_s": 0.5,
            "timeout_s": 30.0,
        },
        {"kind": "slo_class", "name": "batch"},
    ],
    "autoscaler": {
        "kind": "autoscaler",
        "preset": "siracusa-mipi",
        "chips": 8,
        "max_extra": 2,
        "check_interval_s": 30.0,
        "scale_up_depth": 3.0,
        "scale_down_depth": 0.25,
        "ttft_slo_s": 1.0,
        "min_attainment": 0.9,
    },
    "faults": {
        "kind": "faults",
        "events": [
            {
                "kind": "fault_event",
                "fault": "slowdown",
                "replica": 0,
                "start_s": 60.0,
                "duration_s": 30.0,
                "factor": 3.0,
            },
            "crash:1@120+60",
        ],
        "crash_mtbf_s": 900.0,
        "crash_mttr_s": 20.0,
        "horizon_s": 600.0,
        "seed": 3,
        "shed_below": 0.5,
        "shed_keep": 2,
    },
    "retry": {
        "kind": "retry",
        "max_retries": 3,
        "backoff_s": 0.5,
        "backoff_multiplier": 1.5,
        "timeout_s": 45.0,
        "hedge_after_s": 2.0,
    },
    "seed": 7,
    "max_context": 512,
    "slo_targets": [0.2, 0.5],
    "record_threshold": 100,
}

TUNE: Dict[str, Any] = {
    "kind": "tune",
    "workload": {
        "kind": "workload",
        "model": "mobilebert",
        "mode": "encoder",
        "seq_len": 64,
        "label": "probe",
    },
    "space": {
        "kind": "space",
        "axes": [
            {"kind": "axis", "axis": "choice", "name": "chips",
             "choices": [1, 2, 4]},
            {"kind": "axis", "axis": "int", "name": "cores", "low": 2,
             "high": 8, "step": 2},
            {"kind": "axis", "axis": "float", "name": "link_gbps",
             "low": 0.25, "high": 1.0, "levels": [0.25, 0.5, 1.0]},
        ],
    },
    "searcher": "grid",
    "budget": 12,
    "seed": 3,
    "objectives": ["latency", "energy", "hw_cost"],
    "constraints": ["latency<=0.01"],
    "serving": {
        "kind": "serving_scenario",
        "rate_rps": 1.5,
        "duration_s": 10.0,
        "policy": "fifo",
        "seed": 1,
        "ttft_slo_s": 0.5,
        "max_context": 512,
    },
    "prefetch": "blocking",
    "parallel": 2,
    "checkpoint_every": 4,
}

SEARCH_STATE: Dict[str, Any] = {
    "kind": "search_state",
    "searcher": "random",
    "seed": 0,
    "budget": 4,
    "workload": "tinyllama-42m/autoregressive",
    "axes": ["chips"],
    "space_size": 2,
    "objectives": ["latency"],
    "constraints": [],
    "evaluations_requested": 3,
    "rng_state": [3, [1, 2], None],
    "candidates": [
        {"point": {"chips": 1}, "feasible": True},
        {"point": {"chips": 2}, "feasible": False},
    ],
    "front": [0],
}

#: Good and bad bare strings of every kind with a string shorthand.
SHORTHANDS = (
    (ModelSpec, ("mobilebert", "")),
    (PlatformSpec, ("siracusa-fast-link", "")),
    (FleetPlatform, (
        "siracusa-mipi", "siracusa-mipi:8x2@decode", ":8", "siracusa-mipi:x",
        "siracusa-mipi:0", "siracusa-mipi:8x0", "siracusa-mipi@nowhere",
    )),
    (FaultEvent, (
        "crash:0@120+180", "slow:1@90+60x4", "brownout@420+60x2", "crash:0",
        "melt:0@1", "brownout:1@5+1x2", "crash:x@1", "slow:0@1+2xq",
        "crash:0@-5",
    )),
    (RetryPolicy, (
        "30:3:0.5:2", ":3", "", "1:2:3:4:5", "x", "30:-1", "::-1",
    )),
)


#: (axis index, fields replaced on that axis of the ``tune`` document's
#: space): values every design axis must reject when validated, and a
#: strategy alias and a model axis it must accept.
AXIS_VALUE_FAULTS: Tuple[Tuple[int, Dict[str, Any]], ...] = (
    (0, {"choices": [0, 2]}),
    (0, {"choices": [-3]}),
    (0, {"name": "l2_kib", "choices": [1024, 0]}),
    (0, {"name": "strategy", "choices": ["paper", "nope"]}),
    (0, {"name": "strategy", "choices": ["ours", "pipeline_parallel"]}),
    (0, {"name": "kv_heads", "choices": [0]}),
    (1, {"low": 0}),
    (1, {"name": "group_size", "low": 1}),
    (2, {"low": 0.0, "levels": None}),
    (2, {"low": -1.0, "levels": [-1.0, 0.5]}),
    (2, {"name": "freq_mhz", "low": -200.0, "high": 500.0,
         "levels": [300.0, -200.0]}),
    (2, {"name": "freq_mhz", "low": -200.0, "high": 500.0,
         "levels": [300.0, 500.0]}),
    (2, {"name": "freq_mhz", "low": 300.0, "high": 1e308,
         "levels": [300.0, 1e308]}),
)


def base_documents() -> List[Tuple[str, Dict[str, Any]]]:
    """(source label, document) for every base document, in a fixed order."""
    documents = [
        (path.relative_to(REPO_ROOT).as_posix(),
         json.loads(path.read_text(encoding="utf-8")))
        for directory in SPEC_DIRS
        for path in sorted(directory.glob("*.json"))
    ]
    documents += [
        ("fleet", FLEET), ("tune", TUNE), ("search_state", SEARCH_STATE),
    ]
    return documents


Location = Tuple[Any, ...]


def kind_nodes(
    node: Any, location: Location = ()
) -> Iterator[Tuple[Location, Dict[str, Any]]]:
    """Every kind-tagged mapping under ``node``, depth first, with its location."""
    if isinstance(node, dict):
        if "kind" in node:
            yield location, node
        for key, value in node.items():
            yield from kind_nodes(value, location + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from kind_nodes(value, location + (index,))


def node_at(document: Any, location: Location) -> Any:
    for step in location:
        document = document[step]
    return document


def json_path(location: Location) -> str:
    return "$" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in location
    )


def outcome(decode) -> str:
    """``OK <sha256>`` of the decoded spec's document, or the exception."""
    try:
        text = decode().to_json()
    except Exception as error:  # noqa: BLE001 - every failure mode is recorded
        return f"{type(error).__name__}: {error}"
    return "OK " + hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_document() -> Dict[str, str]:
    """Recompute every entry of the golden from the current code."""
    entries: Dict[str, str] = {}
    bases = base_documents()
    first: Dict[str, Tuple[int, Location]] = {}
    targets: Dict[Tuple[str, str], Tuple[int, Location]] = {}
    field_names: Dict[str, Tuple[str, ...]] = {}
    for number, (source, document) in enumerate(bases):
        entries[f"{source} (base)"] = outcome(lambda: spec_from_dict(document))
        for location, node in kind_nodes(document):
            kind = node["kind"]
            if kind not in field_names:
                field_names[kind] = tuple(
                    field.name
                    for field in dataclasses.fields(type(spec_from_dict(node)))
                )
                first[kind] = (number, location)
            for name in field_names[kind]:
                if name in node:
                    targets.setdefault((kind, name), (number, location))
    for kind, names in field_names.items():
        for name in names:
            targets.setdefault((kind, name), first[kind])

    def faulted(number: int, location: Location, mutate) -> str:
        document = copy.deepcopy(bases[number][1])
        mutate(node_at(document, location))
        return outcome(lambda: spec_from_dict(document))

    for (_, name), (number, location) in targets.items():
        prefix = f"{bases[number][0]} {json_path(location)}.{name}"
        for label, value in FAULT_VALUES:
            entries[f"{prefix} = {label}"] = faulted(
                number, location,
                lambda node: node.__setitem__(name, copy.deepcopy(value)),
            )
        if name in node_at(bases[number][1], location):
            entries[f"{prefix} deleted"] = faulted(
                number, location, lambda node: node.pop(name)
            )
    for number, location in first.values():
        prefix = f"{bases[number][0]} {json_path(location)}"
        entries[f"{prefix}.unknown_field = 1"] = faulted(
            number, location, lambda node: node.__setitem__("unknown_field", 1)
        )
    for spec_class, texts in SHORTHANDS:
        for text in texts:
            entries[f"shorthand {spec_class.kind} {json.dumps(text)}"] = outcome(
                lambda: spec_class.from_dict(text, "$")
            )
    for index, fields in AXIS_VALUE_FAULTS:
        document = copy.deepcopy(TUNE)
        document["space"]["axes"][index].update(copy.deepcopy(fields))
        label = json.dumps(fields, sort_keys=True)
        entries[f"tune validated $.space.axes[{index}] with {label}"] = outcome(
            lambda: validated(spec_from_dict(document))
        )
    return entries


def validated(spec):
    """``spec`` after its ``validate()`` passed."""
    spec.validate()
    return spec


def render(document: Dict[str, str]) -> str:
    """The committed text form: sorted keys, one entry per line."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> None:
    """Write the golden document next to this script."""
    GOLDEN_PATH.write_text(render(golden_document()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
