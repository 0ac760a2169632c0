"""The six plugin registries: strategies, policies, routers, searchers,
objectives and platform presets.

Each kind is looked up by name through one :class:`repro.registry.Registry`.
The message table pins every registration and lookup error of every kind
with its exact bytes; the remaining tests pin the rules the kinds share
and the :class:`~repro.registry.Registry` itself.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import pytest

from repro.api import get_strategy, register_strategy, unregister_strategy
from repro.dse import (
    Sense,
    get_objective,
    get_searcher,
    register_objective,
    register_searcher,
    unregister_objective,
    unregister_searcher,
)
from repro.errors import (
    ConfigurationError,
    UnknownObjectiveError,
    UnknownPlatformPresetError,
    UnknownPolicyError,
    UnknownRouterError,
    UnknownSearcherError,
    UnknownStrategyError,
)
from repro.fleet import get_router, register_router, unregister_router
from repro.hw.presets import (
    PlatformPreset,
    get_platform_preset,
    list_platform_presets,
    register_platform_preset,
    siracusa_platform,
)
from repro.registry import Registry
from repro.serving import get_policy, register_policy, unregister_policy


def members(**attrs) -> Callable[..., type]:
    """A maker of plugin classes with ``attrs`` plus the given extras."""
    return lambda **extra: type("Plugin", (), {**attrs, **extra})


def preset(**extra) -> PlatformPreset:
    return PlatformPreset(
        **{"description": "test", "factory": siracusa_platform, **extra}
    )


class Kind(NamedTuple):
    register: Callable
    unregister: Optional[Callable]
    get: Callable
    error: type
    plugin: Callable  # keyword attributes -> a registrable plugin
    shipped: str  # a name every run registers


KINDS = {
    "strategy": Kind(
        register_strategy, unregister_strategy, get_strategy,
        UnknownStrategyError,
        members(label="L", evaluate=lambda self, workload, platform, options: None),
        "paper",
    ),
    "policy": Kind(
        register_policy, unregister_policy, get_policy, UnknownPolicyError,
        members(label="L", decode_quantum=None,
                select=lambda self, ready, now_s: ready[0]),
        "fifo",
    ),
    "router": Kind(
        register_router, unregister_router, get_router, UnknownRouterError,
        members(label="L",
                route=lambda self, request, replicas, now_s: replicas[0]),
        "round_robin",
    ),
    "searcher": Kind(
        register_searcher, unregister_searcher, get_searcher,
        UnknownSearcherError,
        members(label="L", search=lambda self, *args, **kwargs: []),
        "grid",
    ),
    "objective": Kind(
        register_objective, unregister_objective, get_objective,
        UnknownObjectiveError,
        members(label="L", sense=Sense.MIN, requires_serving=False,
                value=lambda self, measurement: 0.0),
        "latency",
    ),
    "preset": Kind(
        register_platform_preset, None, get_platform_preset,
        UnknownPlatformPresetError, preset, "siracusa-mipi",
    ),
}


def nameless(kind: Kind) -> None:
    kind.register(kind.plugin())


def empty_name(kind: Kind) -> None:
    kind.register(kind.plugin(name=""))


def incomplete(kind: Kind) -> None:
    kind.register(type("Incomplete", (), {"name": "incomplete"}))


def taken(kind: Kind) -> None:
    kind.register(kind.plugin(name=kind.shipped))


def unknown(kind: Kind) -> None:
    kind.get("nope")


def unregister_unknown(kind: Kind) -> None:
    kind.unregister("nope")


def instance(kind: Kind) -> None:
    kind.register(kind.get(kind.shipped))


def uncallable_order_key(kind: Kind) -> None:
    kind.register(kind.plugin(name="bad_key", order_key=5))


def zero_quantum(kind: Kind) -> None:
    kind.register(kind.plugin(name="bad_quantum", decode_quantum=0))


def string_sense(kind: Kind) -> None:
    kind.register(kind.plugin(name="bad_sense", sense="min"))


#: (kind, action, error type, exact message).  Presets have no protocol
#: check and no ``unregister``; the last rows are the rules of one kind
#: each.
MESSAGES = [
    ("strategy", nameless, ConfigurationError,
     "a strategy must define a non-empty string `name` attribute"),
    ("strategy", incomplete, ConfigurationError,
     "strategy 'incomplete' does not implement the PartitionStrategy "
     "protocol (name, label, evaluate)"),
    ("strategy", taken, ConfigurationError,
     "strategy name 'paper' already registered"),
    ("strategy", unknown, UnknownStrategyError,
     "unknown partitioning strategy 'nope'; registered: paper, "
     "pipeline_parallel, single_chip, tensor_parallel, weight_replicated"),
    ("strategy", unregister_unknown, UnknownStrategyError,
     "unknown partitioning strategy 'nope'; registered: paper, "
     "pipeline_parallel, single_chip, tensor_parallel, weight_replicated"),
    ("policy", nameless, ConfigurationError,
     "a policy must define a non-empty string `name` attribute"),
    ("policy", incomplete, ConfigurationError,
     "policy 'incomplete' does not implement the SchedulingPolicy "
     "protocol (name, label, decode_quantum, select)"),
    ("policy", taken, ConfigurationError,
     "policy name 'fifo' already registered"),
    ("policy", unknown, UnknownPolicyError,
     "unknown scheduling policy 'nope'; registered: continuous, fifo, "
     "priority, shortest_prompt"),
    ("policy", unregister_unknown, UnknownPolicyError,
     "unknown scheduling policy 'nope'; registered: continuous, fifo, "
     "priority, shortest_prompt"),
    ("router", nameless, ConfigurationError,
     "a router must define a non-empty string `name` attribute"),
    ("router", incomplete, ConfigurationError,
     "router 'incomplete' does not implement the RoutingPolicy protocol "
     "(name, label, route)"),
    ("router", taken, ConfigurationError,
     "router name 'round_robin' already registered"),
    ("router", unknown, UnknownRouterError,
     "unknown router 'nope'; registered: least_loaded, prefill_decode, "
     "round_robin, session_affinity"),
    ("router", unregister_unknown, UnknownRouterError,
     "unknown router 'nope'; registered: least_loaded, prefill_decode, "
     "round_robin, session_affinity"),
    ("searcher", nameless, ConfigurationError,
     "a searcher must define a non-empty string `name` attribute"),
    ("searcher", incomplete, ConfigurationError,
     "searcher 'incomplete' does not implement the SearchAlgorithm "
     "protocol (name, label, search)"),
    ("searcher", taken, ConfigurationError,
     "searcher name 'grid' already registered"),
    ("searcher", unknown, UnknownSearcherError,
     "unknown searcher 'nope'; registered: anneal, evolution, grid, "
     "halving, random, surrogate"),
    ("searcher", unregister_unknown, UnknownSearcherError,
     "unknown searcher 'nope'; registered: anneal, evolution, grid, "
     "halving, random, surrogate"),
    ("objective", nameless, ConfigurationError,
     "an objective must define a non-empty string `name` attribute"),
    ("objective", incomplete, ConfigurationError,
     "objective 'incomplete' does not implement the Objective protocol "
     "(name, label, sense, requires_serving, value)"),
    ("objective", taken, ConfigurationError,
     "objective name 'latency' already registered"),
    ("objective", unknown, UnknownObjectiveError,
     "unknown objective 'nope'; registered: energy, energy_per_request, "
     "hw_cost, latency, slo"),
    ("objective", unregister_unknown, UnknownObjectiveError,
     "unknown objective 'nope'; registered: energy, energy_per_request, "
     "hw_cost, latency, slo"),
    ("preset", empty_name, ConfigurationError,
     "a platform preset must define a non-empty string `name` attribute"),
    ("preset", taken, ConfigurationError,
     "platform preset 'siracusa-mipi' already registered"),
    ("preset", unknown, UnknownPlatformPresetError,
     "unknown platform preset 'nope'; registered: siracusa-big-l2, "
     "siracusa-fast-link, siracusa-low-power, siracusa-mipi"),
    ("router", instance, ConfigurationError,
     "register_router takes a router class (routers are stateful, so the "
     "registry instantiates them per run)"),
    ("policy", uncallable_order_key, ConfigurationError,
     "policy 'bad_key' has a non-callable order_key 5"),
    ("policy", zero_quantum, ConfigurationError,
     "policy 'bad_quantum' has invalid decode_quantum 0"),
    ("objective", string_sense, ConfigurationError,
     "objective 'bad_sense' has invalid sense 'min'"),
]


@pytest.mark.parametrize(
    "kind, action, error, message",
    MESSAGES,
    ids=[f"{kind}-{action.__name__}" for kind, action, _, _ in MESSAGES],
)
def test_message_table(kind, action, error, message):
    with pytest.raises(ConfigurationError) as excinfo:
        action(KINDS[kind])
    assert excinfo.type is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "aliases", ["lifo", ("ok", 3), ("",)], ids=["string", "non-string", "empty"]
)
@pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS)
def test_aliases_must_be_a_tuple_of_names(kind, aliases):
    # A string would register one alias per character.
    with pytest.raises(ConfigurationError) as excinfo:
        kind.register(kind.plugin(name="lifo_test", aliases=aliases))
    assert excinfo.type is ConfigurationError
    assert "'lifo_test'" in str(excinfo.value)
    assert "aliases" in str(excinfo.value)
    for name in ("lifo_test", "lifo", "l", "ok"):
        with pytest.raises(kind.error):
            kind.get(name)


@pytest.mark.parametrize("name", ["", None], ids=["empty", "missing"])
def test_a_nameless_preset_leaves_the_registry_unchanged(name):
    before = list_platform_presets()
    with pytest.raises(ConfigurationError) as excinfo:
        register_platform_preset(preset(name=name))
    assert excinfo.type is ConfigurationError
    assert list_platform_presets() == before


UNREGISTERING = {name: kind for name, kind in KINDS.items() if kind.unregister}


@pytest.mark.parametrize("kind", UNREGISTERING.values(), ids=UNREGISTERING)
def test_register_returns_its_argument_and_unregister_takes_the_aliases(kind):
    plugin = kind.plugin(name="test_only", aliases=("test_alias",))
    assert kind.register(plugin) is plugin
    try:
        assert kind.get("test_alias").name == "test_only"
    finally:
        kind.unregister("test_alias")
    for name in ("test_only", "test_alias"):
        with pytest.raises(kind.error):
            kind.get(name)


class TestRegistry:
    def widgets(self) -> Registry:
        registry = Registry("widget", UnknownPolicyError)
        registry.add(SimpleNamespace(name="a", aliases=("b", "c")))
        registry.add(SimpleNamespace(name="d"), entry="the d entry")
        return registry

    def test_lookups_resolve_aliases_and_list_canonical_names(self):
        registry = self.widgets()
        assert registry.get("c") is registry.get("a")
        assert registry.get("d") == "the d entry"
        assert registry.names() == ["a", "d"]

    def test_aliases_go_with_their_entry(self):
        registry = self.widgets()
        registry.remove("b")
        assert registry.names() == ["d"]
        for name in ("a", "b", "c"):
            with pytest.raises(UnknownPolicyError):
                registry.get(name)
        registry.add(SimpleNamespace(name="b", aliases=("a",)))
        assert registry.get("a").name == "b"

    @pytest.mark.parametrize(
        "aliases",
        [("x", "c"), ("x", "a"), ("x", 3), "xy"],
        ids=["taken-alias", "taken-name", "non-string", "string"],
    )
    def test_a_rejected_registration_leaves_nothing_behind(self, aliases):
        registry = self.widgets()
        with pytest.raises(ConfigurationError):
            registry.add(SimpleNamespace(name="new", aliases=aliases))
        assert registry.names() == ["a", "d"]
        for name in ("new", "x", "y"):
            with pytest.raises(UnknownPolicyError):
                registry.get(name)
        assert registry.get("c").name == "a"

    def test_an_empty_registry_lists_none(self):
        registry = Registry("widget", UnknownPolicyError, "widget id")
        with pytest.raises(UnknownPolicyError) as excinfo:
            registry.remove("x")
        assert str(excinfo.value) == "unknown widget 'x'; registered: <none>"
        registry.add(SimpleNamespace(name="x"))
        with pytest.raises(ConfigurationError) as excinfo:
            registry.add(SimpleNamespace(name="x"))
        assert str(excinfo.value) == "widget id 'x' already registered"
