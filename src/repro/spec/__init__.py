"""Declarative spec layer: every experiment as data.

This package turns each of the library's verbs into a typed, frozen,
JSON-serialisable spec — :class:`EvalSpec`, :class:`SweepSpec`,
:class:`CompareSpec`, :class:`ServingSpec`, :class:`FleetSpec`,
:class:`TuneSpec` — plus the
leaf specs they compose (:class:`ModelSpec`, :class:`WorkloadSpec`,
:class:`PlatformSpec`, :class:`TraceSpec`, :class:`SpaceSpec`, ...), and
:class:`StudySpec`, a named pipeline of stages with cross-stage
references.  The fleet and DSE settings a spec holds are spec kinds in
their home packages (:class:`repro.fleet.FleetPlatform`,
:class:`repro.fleet.FaultModel`, :class:`repro.dse.ServingScenario`,
...), and so is a tune's checkpoint (:class:`repro.dse.SearchState`).
A spec can be saved, diffed, shared, validated
(:meth:`~repro.spec.specs.StudySpec.validate`, with precise document
paths), and replayed bit-for-bit:

* run one spec on a :class:`repro.api.Session` with :func:`execute`
  (``execute(session, EvalSpec(...))``), the one path every evaluating
  CLI command takes,
* run a whole pipeline with :class:`repro.api.Study` or
  ``repro study run <spec.json>``,
* capture any CLI invocation as a spec with ``--emit-spec``.

See ``docs/SPECS.md`` for the schema reference and
:mod:`repro.spec.studies` for the shipped studies, whose JSON documents
live in this package's ``shipped/`` directory.
"""

from .base import SPEC_SCHEMA_VERSION, SpecBase
from .specs import (
    AxisSpec,
    CompareSpec,
    DEFAULT_SEQ_LEN,
    EvalSpec,
    FleetSpec,
    ModelSpec,
    PlatformSpec,
    RUNNABLE_KINDS,
    RunnableSpec,
    ServingSpec,
    SpaceSpec,
    StageSpec,
    StudySpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    WorkloadSpec,
    load_spec,
    loads,
    spec_from_dict,
)
from .runner import execute
from .studies import get_study, list_studies, register_study

__all__ = [
    "AxisSpec",
    "CompareSpec",
    "DEFAULT_SEQ_LEN",
    "EvalSpec",
    "FleetSpec",
    "ModelSpec",
    "PlatformSpec",
    "RUNNABLE_KINDS",
    "RunnableSpec",
    "SPEC_SCHEMA_VERSION",
    "ServingSpec",
    "SpaceSpec",
    "SpecBase",
    "StageSpec",
    "StudySpec",
    "SweepSpec",
    "TraceSpec",
    "TuneSpec",
    "WorkloadSpec",
    "execute",
    "get_study",
    "list_studies",
    "load_spec",
    "loads",
    "register_study",
    "spec_from_dict",
]
