"""Property-based tests of the declarative spec layer.

The contract under test: *any* well-formed spec survives
``to_dict -> json -> from_dict`` losslessly, and its ``build()`` resolves
through the live registries into the objects the imperative API consumes.
No simulator runs here — ``build()`` constructs workloads, platforms,
traces, and spaces, never evaluates them — so the properties stay fast
and purely combinatorial.

Every registered kind has a strategy here or in ``test_property_arch.py``,
and the same strategies seed the decoder fuzz: one field of a valid
document replaced by arbitrary JSON must decode or raise a path-prefixed
:class:`~repro.errors.SpecError`, never anything else.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st
from test_property_arch import arch_specs, block_groups

from repro.dse import SearchState, ServingScenario
from repro.dse.space import SearchSpace
from repro.errors import SpecError
from repro.fleet import (
    AutoscalerConfig,
    FaultEvent,
    FaultModel,
    FleetPlatform,
    RetryPolicy,
    SLOClass,
)
from repro.graph.workload import Workload
from repro.hw.platform import MultiChipPlatform
from repro.serving.traces import TrafficTrace
from repro.spec import (
    AxisSpec,
    CompareSpec,
    EvalSpec,
    FleetSpec,
    ModelSpec,
    PlatformSpec,
    ServingSpec,
    SpaceSpec,
    StageSpec,
    StudySpec,
    SweepSpec,
    TraceSpec,
    TuneSpec,
    WorkloadSpec,
    loads,
    spec_from_dict,
)
from repro.spec.base import _KINDS

MODELS = ("tinyllama-42m", "tinyllama-42m-64h", "mobilebert")
PRESETS = ("siracusa-mipi", "siracusa-fast-link", "siracusa-big-l2")
STRATEGIES = (
    "paper", "single_chip", "weight_replicated", "pipeline_parallel",
    "tensor_parallel",
)
PREFETCH = ("hidden", "blocking", "overlap")


# ----------------------------------------------------------------------
# Spec strategies
# ----------------------------------------------------------------------
def workload_specs():
    # MobileBERT is encoder-only in this library's registry defaults; any
    # model accepts any mode here because build() only shapes the
    # workload, it never simulates it.
    return st.builds(
        WorkloadSpec,
        model=st.builds(ModelSpec, name=st.sampled_from(MODELS)),
        mode=st.sampled_from(["autoregressive", "prompt", "encoder"]),
        seq_len=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
        label=st.one_of(st.none(), st.sampled_from(["a", "probe", "x1"])),
    )


def platform_specs():
    return st.builds(
        PlatformSpec,
        preset=st.sampled_from(PRESETS),
        chips=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )


def eval_specs():
    return st.builds(
        EvalSpec,
        workload=workload_specs(),
        strategy=st.sampled_from(STRATEGIES),
        platform=platform_specs(),
        prefetch=st.sampled_from(PREFETCH),
    )


def sweep_specs():
    return st.builds(
        SweepSpec,
        workload=workload_specs(),
        chips=st.lists(
            st.integers(min_value=1, max_value=16),
            min_size=1, max_size=4, unique=True,
        ).map(tuple),
        strategy=st.sampled_from(STRATEGIES),
        platform=st.builds(PlatformSpec, preset=st.sampled_from(PRESETS)),
        parallel=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    )


def compare_specs():
    return st.builds(
        CompareSpec,
        workload=workload_specs(),
        strategies=st.lists(
            st.sampled_from(STRATEGIES), min_size=1, max_size=4, unique=True
        ).map(tuple),
        platform=platform_specs(),
    )


def trace_specs():
    return st.one_of(
        st.builds(
            TraceSpec,
            source=st.just("poisson"),
            rate_rps=st.floats(min_value=0.1, max_value=16.0),
            duration_s=st.floats(min_value=1.0, max_value=120.0),
            priority_levels=st.integers(min_value=1, max_value=3),
        ),
        st.builds(
            TraceSpec,
            source=st.just("bursty"),
            rate_rps=st.floats(min_value=0.1, max_value=4.0),
            burst_rate_rps=st.one_of(
                st.none(), st.floats(min_value=16.0, max_value=64.0)
            ),
            duration_s=st.floats(min_value=1.0, max_value=60.0),
        ),
        st.builds(
            TraceSpec,
            source=st.just("closed"),
            clients=st.integers(min_value=1, max_value=8),
            requests_per_client=st.integers(min_value=1, max_value=8),
            mean_think_s=st.floats(min_value=0.1, max_value=4.0),
        ),
    )


def serving_specs():
    return st.builds(
        ServingSpec,
        model=st.builds(ModelSpec, name=st.sampled_from(MODELS)),
        trace=trace_specs(),
        policy=st.sampled_from(["fifo", "shortest_prompt", "continuous"]),
        strategy=st.sampled_from(STRATEGIES),
        platform=platform_specs(),
        seed=st.integers(min_value=0, max_value=1000),
        max_context=st.integers(min_value=64, max_value=4096),
        slo_targets=st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=1, max_size=3, unique=True,
            ).map(tuple),
        ),
    )


def axis_specs():
    return st.one_of(
        st.builds(
            AxisSpec,
            axis=st.just("choice"),
            name=st.just("chips"),
            choices=st.lists(
                st.integers(min_value=1, max_value=16),
                min_size=1, max_size=4, unique=True,
            ).map(tuple),
        ),
        st.builds(
            AxisSpec,
            axis=st.just("int"),
            name=st.just("cores"),
            low=st.integers(min_value=1, max_value=4),
            high=st.integers(min_value=8, max_value=16),
            step=st.integers(min_value=1, max_value=3),
        ),
        st.builds(
            AxisSpec,
            axis=st.just("float"),
            name=st.just("link_gbps"),
            low=st.just(0.125),
            high=st.just(2.0),
            levels=st.one_of(
                st.none(), st.just((0.125, 0.5, 2.0)), st.just((0.25, 1.0))
            ),
        ),
    )


def tune_specs():
    return st.builds(
        TuneSpec,
        workload=workload_specs(),
        space=st.one_of(
            st.none(),
            st.builds(
                SpaceSpec,
                axes=st.lists(
                    axis_specs(), min_size=1, max_size=3,
                    unique_by=lambda axis: axis.name,
                ).map(tuple),
            ),
        ),
        searcher=st.sampled_from(["random", "grid", "anneal", "evolution"]),
        budget=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
        objectives=st.lists(
            st.sampled_from(["latency", "energy", "hw_cost"]),
            min_size=1, max_size=3, unique=True,
        ).map(tuple),
        constraints=st.one_of(
            st.just(()), st.just(("latency<=0.01",)),
            st.just(("latency<=0.01", "hw_cost<=100")),
        ),
        serving=st.one_of(
            st.none(),
            st.builds(
                ServingScenario,
                rate_rps=st.floats(min_value=0.5, max_value=4.0),
                duration_s=st.floats(min_value=1.0, max_value=30.0),
                seed=st.integers(min_value=0, max_value=10),
            ),
        ),
    )


def runnable_specs():
    return st.one_of(
        eval_specs(), sweep_specs(), compare_specs(), serving_specs(),
        tune_specs(),
    )


def study_specs():
    return st.builds(
        StudySpec,
        name=st.sampled_from(["s1", "probe-study", "a_b"]),
        description=st.sampled_from(["", "generated"]),
        stages=st.lists(
            st.builds(
                StageSpec,
                name=st.sampled_from(["one", "two", "three", "four"]),
                spec=runnable_specs(),
            ),
            min_size=1, max_size=3,
            unique_by=lambda stage: stage.name,
        ).map(tuple),
    )


ROUTERS = ("round_robin", "least_loaded", "prefill_decode", "session_affinity")
ROLES = ("any", "prefill", "decode")


def fleet_platform_specs():
    return st.builds(
        FleetPlatform,
        preset=st.sampled_from(PRESETS),
        chips=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        replicas=st.integers(min_value=1, max_value=3),
        role=st.sampled_from(ROLES),
    )


def slo_class_specs():
    positive = st.floats(min_value=0.01, max_value=100.0)
    return st.builds(
        SLOClass,
        name=st.sampled_from(["default", "interactive", "batch", "bulk"]),
        rate_rps=st.one_of(st.none(), positive),
        burst=st.integers(min_value=1, max_value=16),
        priority=st.integers(min_value=0, max_value=3),
        ttft_slo_s=st.one_of(st.none(), positive),
        timeout_s=st.one_of(st.none(), positive),
    )


@st.composite
def autoscaler_specs(draw):
    scale_down = draw(st.floats(min_value=0.0, max_value=2.0))
    return AutoscalerConfig(
        preset=draw(st.sampled_from(PRESETS)),
        chips=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8))),
        max_extra=draw(st.integers(min_value=1, max_value=6)),
        check_interval_s=draw(st.floats(min_value=1.0, max_value=600.0)),
        scale_up_depth=scale_down + draw(st.floats(min_value=0.5, max_value=8.0)),
        scale_down_depth=scale_down,
        ttft_slo_s=draw(
            st.one_of(st.none(), st.floats(min_value=0.01, max_value=10.0))
        ),
        min_attainment=draw(st.floats(min_value=0.01, max_value=1.0)),
    )


#: Fault times and factors stay in plain decimal notation, so their
#: ``repr`` is valid inside the ``@START+DURATIONxFACTOR`` shorthand.
FAULT_TIMES = st.floats(min_value=0.0, max_value=10_000.0)
FAULT_DURATIONS = st.floats(min_value=0.5, max_value=1_000.0)
FAULT_FACTORS = st.floats(min_value=1.5, max_value=8.0)


def fault_event_specs(replicas: int = 4):
    replica = st.integers(min_value=0, max_value=replicas - 1)
    return st.one_of(
        st.builds(
            FaultEvent,
            fault=st.just("crash"),
            replica=replica,
            start_s=FAULT_TIMES,
            duration_s=st.one_of(st.none(), FAULT_DURATIONS),
        ),
        st.builds(
            FaultEvent,
            fault=st.just("slowdown"),
            replica=replica,
            start_s=FAULT_TIMES,
            duration_s=FAULT_DURATIONS,
            factor=FAULT_FACTORS,
        ),
        st.builds(
            FaultEvent,
            fault=st.just("brownout"),
            start_s=FAULT_TIMES,
            duration_s=FAULT_DURATIONS,
            factor=FAULT_FACTORS,
        ),
    )


@st.composite
def fault_specs(draw, replicas: int = 4):
    mtbf = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e6)))
    horizon = draw(st.floats(min_value=1.0, max_value=1e5))
    return FaultModel(
        events=draw(st.lists(fault_event_specs(replicas), max_size=3).map(tuple)),
        crash_mtbf_s=mtbf,
        crash_mttr_s=draw(st.floats(min_value=0.1, max_value=600.0)),
        horizon_s=horizon if mtbf is not None else draw(
            st.one_of(st.none(), st.just(horizon))
        ),
        seed=draw(st.integers(min_value=0, max_value=100)),
        shed_below=draw(
            st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0))
        ),
        shed_keep=draw(st.integers(min_value=1, max_value=3)),
    )


def retry_specs():
    positive = st.floats(min_value=0.01, max_value=600.0)
    return st.builds(
        RetryPolicy,
        max_retries=st.integers(min_value=0, max_value=5),
        backoff_s=st.floats(min_value=0.0, max_value=10.0),
        backoff_multiplier=st.floats(min_value=1.0, max_value=4.0),
        timeout_s=st.one_of(st.none(), positive),
        hedge_after_s=st.one_of(st.none(), positive),
    )


@st.composite
def fleet_specs(draw):
    platforms = tuple(draw(st.lists(fleet_platform_specs(), min_size=1, max_size=3)))
    replicas = sum(platform.replicas for platform in platforms)
    return FleetSpec(
        model=draw(st.builds(ModelSpec, name=st.sampled_from(MODELS))),
        trace=draw(
            st.one_of(
                st.builds(
                    TraceSpec,
                    source=st.just("diurnal"),
                    rate_rps=st.floats(min_value=0.1, max_value=16.0),
                    duration_s=st.floats(min_value=1.0, max_value=600.0),
                    spike_starts_s=st.lists(
                        st.floats(min_value=0.0, max_value=600.0), max_size=2
                    ).map(tuple),
                ),
                trace_specs().filter(lambda trace: trace.source != "closed"),
            )
        ),
        platforms=platforms,
        router=draw(st.sampled_from(ROUTERS)),
        policy=draw(st.sampled_from(["fifo", "shortest_prompt", "continuous"])),
        strategy=draw(st.sampled_from(STRATEGIES)),
        classes=tuple(
            draw(
                st.lists(
                    slo_class_specs(), max_size=3, unique_by=lambda cls: cls.name
                )
            )
        ),
        autoscaler=draw(st.one_of(st.none(), autoscaler_specs())),
        faults=draw(st.one_of(st.none(), fault_specs(replicas))),
        retry=draw(st.one_of(st.none(), retry_specs())),
        seed=draw(st.integers(min_value=0, max_value=1000)),
        max_context=draw(st.integers(min_value=64, max_value=4096)),
        slo_targets=draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.floats(min_value=0.01, max_value=10.0), min_size=1,
                    max_size=3,
                ).map(tuple),
            )
        ),
        record_threshold=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=10_000))
        ),
    )


#: JSON-native values (lists, not tuples), as a checkpoint's free-form
#: fields hold them after a round trip.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def search_state_specs(draw):
    candidates = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "point": st.dictionaries(
                        st.sampled_from(["chips", "l2_kib", "strategy"]),
                        st.integers(min_value=1, max_value=8),
                    ),
                    "feasible": st.booleans(),
                }
            ),
            max_size=4,
        ).map(tuple)
    )
    front = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(len(candidates) - 1, 0)),
            max_size=len(candidates), unique=True,
        ).map(tuple)
    )
    return SearchState(
        searcher=draw(st.sampled_from(["random", "grid", "surrogate"])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
        budget=draw(st.integers(min_value=1, max_value=64)),
        workload=draw(st.sampled_from(["tinyllama-42m/autoregressive", "w"])),
        axes=tuple(draw(st.lists(st.sampled_from(["chips", "l2_kib"]), max_size=2))),
        space_size=draw(st.one_of(st.none(), st.integers(min_value=1))),
        objectives=tuple(
            draw(st.lists(st.sampled_from(["latency", "energy"]), min_size=1))
        ),
        constraints=tuple(draw(st.lists(st.just("latency<=0.01"), max_size=1))),
        evaluations_requested=draw(st.integers(min_value=0, max_value=100)),
        rng_state=draw(
            st.recursive(JSON_LEAVES, st.lists, max_leaves=6)
        ),
        candidates=candidates,
        front=front,
    )


#: One strategy per registered kind (the two architecture kinds come from
#: ``test_property_arch.py``).
KIND_STRATEGIES = {
    "model": st.builds(ModelSpec, name=st.sampled_from(MODELS)),
    "workload": workload_specs(),
    "platform": platform_specs(),
    "evaluate": eval_specs(),
    "sweep": sweep_specs(),
    "compare": compare_specs(),
    "trace": trace_specs(),
    "serve": serving_specs(),
    "fleet_platform": fleet_platform_specs(),
    "slo_class": slo_class_specs(),
    "autoscaler": autoscaler_specs(),
    "fault_event": fault_event_specs(),
    "faults": fault_specs(),
    "retry": retry_specs(),
    "fleet": fleet_specs(),
    "axis": axis_specs(),
    "space": st.builds(
        SpaceSpec,
        axes=st.lists(
            axis_specs(), min_size=1, max_size=3, unique_by=lambda axis: axis.name
        ).map(tuple),
    ),
    "serving_scenario": st.builds(
        ServingScenario,
        rate_rps=st.floats(min_value=0.5, max_value=4.0),
        duration_s=st.floats(min_value=1.0, max_value=30.0),
        seed=st.integers(min_value=0, max_value=10),
    ),
    "tune": tune_specs(),
    "search_state": search_state_specs(),
    "stage": study_specs().map(lambda study: study.stages[0]),
    "study": study_specs(),
    "arch": arch_specs(),
    "block_group": block_groups(),
}


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(spec=st.one_of(runnable_specs(), study_specs()))
def test_to_dict_json_from_dict_build_roundtrip(spec):
    """Any generated spec survives to_dict -> json -> from_dict -> build."""
    text = json.dumps(spec.to_dict(), sort_keys=True)
    parsed = spec_from_dict(json.loads(text))
    assert parsed == spec
    # ... and the names all resolve through the live registries.
    parsed.validate()
    _build_everything(parsed)


@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(runnable_specs(), study_specs()))
def test_to_json_document_is_canonical(spec):
    """The document form round-trips and re-serialises byte-identically."""
    document = spec.to_json()
    parsed = loads(document)
    assert parsed == spec
    assert parsed.to_json() == document


def _build_everything(spec) -> None:
    """Build every buildable object a spec references (no simulation)."""
    if isinstance(spec, StudySpec):
        for stage in spec.stages:
            _build_everything(stage.spec)
        return
    workload = getattr(spec, "workload", None)
    if workload is not None:
        assert isinstance(workload.build(), Workload)
    platform = getattr(spec, "platform", None)
    if platform is not None:
        assert isinstance(platform.build(), MultiChipPlatform)
    trace = getattr(spec, "trace", None)
    if trace is not None:
        assert isinstance(trace.build(), TrafficTrace)
    space = getattr(spec, "space", None)
    if space is not None:
        assert isinstance(space.build(), SearchSpace)
    serving = getattr(spec, "serving", None)
    if serving is not None:
        assert isinstance(serving.trace(), TrafficTrace)


def test_every_registered_kind_has_a_strategy():
    assert set(KIND_STRATEGIES) == set(_KINDS)


@settings(max_examples=150, deadline=None)
@given(
    spec=st.one_of(
        fleet_specs(), fleet_platform_specs(), slo_class_specs(),
        autoscaler_specs(), fault_specs(), fault_event_specs(), retry_specs(),
        search_state_specs(),
    )
)
def test_fleet_and_checkpoint_specs_roundtrip(spec):
    """Fleet and checkpoint specs survive to_dict -> json -> from_dict."""
    parsed = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
    assert parsed == spec
    assert loads(spec.to_json()).to_json() == spec.to_json()


def _fleet_platform_text(spec):
    text = spec.preset
    if spec.chips is not None:
        text += f":{spec.chips}"
        if spec.replicas != 1:
            text += f"x{spec.replicas}"
    if spec.role != "any":
        text += f"@{spec.role}"
    return text


def _fault_event_text(spec):
    head = {"crash": "crash", "slowdown": "slow", "brownout": "brownout"}[spec.fault]
    if spec.replica is not None:
        head += f":{spec.replica}"
    text = f"{head}@{spec.start_s!r}"
    if spec.duration_s is not None:
        text += f"+{spec.duration_s!r}"
    if spec.fault != "crash":
        text += f"x{spec.factor!r}"
    return text


def _retry_text(spec):
    return ":".join(
        (
            "" if spec.timeout_s is None else repr(spec.timeout_s),
            str(spec.max_retries),
            repr(spec.backoff_s),
            "" if spec.hedge_after_s is None else repr(spec.hedge_after_s),
        )
    )


@settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(
        st.tuples(
            st.just(FleetPlatform),
            # The shorthand states a replica count only after a chip count.
            fleet_platform_specs().filter(
                lambda spec: spec.chips is not None or spec.replicas == 1
            ),
        ),
        st.tuples(st.just(FaultEvent), fault_event_specs()),
        st.tuples(
            st.just(RetryPolicy),
            retry_specs().map(
                lambda spec: dataclasses.replace(spec, backoff_multiplier=2.0)
            ),
        ),
    )
)
def test_shorthand_string_decodes_equal_to_its_mapping(case):
    """A bare shorthand string decodes to the spec its mapping form gives."""
    cls, spec = case
    render = {
        FleetPlatform: _fleet_platform_text,
        FaultEvent: _fault_event_text,
        RetryPolicy: _retry_text,
    }[cls]
    from_text = cls.from_dict(render(spec), "$")
    assert from_text == cls.from_dict(spec.to_dict(), "$") == spec


#: Arbitrary JSON, including integers beyond float range, nan/inf, and
#: mappings that carry a registered kind tag.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=10**308, max_value=10**400),
        st.floats(),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(sorted(_KINDS))},
            optional={"name": children, "chips": children, "axis": children},
        ),
    ),
    max_leaves=8,
)


@st.composite
def single_field_faults(draw):
    kind = draw(st.sampled_from(sorted(KIND_STRATEGIES)))
    spec = draw(KIND_STRATEGIES[kind])
    document = spec.to_dict()
    field = draw(st.sampled_from([f.name for f in dataclasses.fields(spec)]))
    document[field] = draw(JSON_VALUES)
    return document


@settings(max_examples=400, deadline=None)
@given(document=single_field_faults())
def test_any_single_field_fault_decodes_or_raises_a_spec_error(document):
    """No value in any field makes the decoder crash or lose the path."""
    try:
        spec_from_dict(document)
    except SpecError as error:
        assert str(error).startswith("$"), str(error)
