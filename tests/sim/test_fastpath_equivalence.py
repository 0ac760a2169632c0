"""Equivalence of the block simulator and the event-engine oracle.

:func:`repro.sim.simulate_block` compiles and prices each program
(:mod:`repro.sim.fastpath`).  The generator-based event engine it
replaced lives on in ``tests/sim_oracle.py`` as an independent
implementation of the same semantics.  These suites check
**bit-identical** results (no tolerance) on every program the scheduler
can emit, on every zoo model, and on adversarial hand-built programs:
total cycles, per-chip runtime breakdowns, per-level traffic counters
and finish cycles; every chip's traced spans; and identical error
messages (deadlocks must deadlock on both).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition import partition_block
from repro.core.placement import MemoryPlan, PrefetchAccounting, WeightResidency
from repro.core.schedule import (
    BlockProgram,
    ChipSchedule,
    ComputeStep,
    DmaChannelName,
    DmaStep,
    PrefetchJoinStep,
    PrefetchStep,
    RecvStep,
    SendStep,
    Step,
)
from repro.cli import main
from repro.core.scheduler import BlockScheduler
from repro.errors import PartitioningError, SimulationError
from repro.graph.transformer import InferenceMode, TransformerConfig
from repro.graph.workload import Workload, autoregressive, prompt
from repro.hw.presets import siracusa_platform
from repro.models import get_model, list_models
from repro.models import tinyllama_42m
from repro.sim import simulate_block

import sim_oracle


def assert_identical_results(first, second) -> None:
    """Bit-identical totals, breakdowns, traffic, and finish cycles."""
    assert first.total_cycles == second.total_cycles
    assert set(first.chip_traces) == set(second.chip_traces)
    for chip_id, trace in first.chip_traces.items():
        other = second.chip_traces[chip_id]
        assert trace.cycles == other.cycles
        assert trace.l3_l2_bytes == other.l3_l2_bytes
        assert trace.l2_l1_bytes == other.l2_l1_bytes
        assert trace.c2c_bytes_sent == other.c2c_bytes_sent
        assert trace.finish_cycle == other.finish_cycle
    assert first.breakdown_average() == second.breakdown_average()
    assert first.total_l3_l2_bytes == second.total_l3_l2_bytes
    assert first.total_l2_l1_bytes == second.total_l2_l1_bytes
    assert first.total_c2c_bytes == second.total_c2c_bytes


def _outcome(simulate, program, record_events):
    try:
        return simulate(program, record_events), None
    except SimulationError as error:
        return None, str(error)


def assert_matches_oracle(program) -> None:
    """Plain and traced runs equal the oracle's traced run, errors included."""
    oracle, oracle_error = _outcome(sim_oracle.simulate_block, program, True)
    for record_events in (False, True):
        result, error = _outcome(simulate_block, program, record_events)
        assert error == oracle_error
        if oracle is None:
            continue
        assert_identical_results(oracle, result)
        for chip_id, trace in oracle.chip_traces.items():
            expected = trace.events if record_events else []
            assert result.chip_traces[chip_id].events == expected


# ----------------------------------------------------------------------
# Scheduler-emitted programs (the shapes production code simulates)
# ----------------------------------------------------------------------
@st.composite
def scheduled_programs(draw):
    """A block program built by the real scheduler on a random workload."""
    num_heads = draw(st.sampled_from([2, 4, 8, 16]))
    config = TransformerConfig(
        name="hypothesis-fastpath",
        embed_dim=draw(st.sampled_from([128, 256, 512])),
        ffn_dim=draw(st.sampled_from([256, 1024, 2048])),
        num_heads=num_heads,
        num_layers=draw(st.integers(min_value=1, max_value=8)),
        vocab_size=1000,
    )
    mode = draw(st.sampled_from(list(InferenceMode)))
    workload = Workload(
        config=config, mode=mode, seq_len=draw(st.sampled_from([1, 16, 128, 300]))
    )
    num_chips = draw(st.sampled_from([1, 2, num_heads]))
    accounting = draw(st.sampled_from(list(PrefetchAccounting)))
    scheduler = BlockScheduler(
        platform=siracusa_platform(num_chips), prefetch_accounting=accounting
    )
    return scheduler.build(workload)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=scheduled_programs())
def test_fastpath_matches_event_engine_on_scheduled_programs(program):
    assert_matches_oracle(program)


@pytest.mark.parametrize("name", list_models())
def test_fastpath_matches_event_engine_on_zoo_models(name):
    """Every zoo model at 1/2/4/8 chips, autoregressive and prompt."""
    config = get_model(name)
    built = 0
    for chips in (1, 2, 4, 8):
        for workload in (autoregressive(config, 128), prompt(config, 64)):
            scheduler = BlockScheduler(platform=siracusa_platform(chips))
            try:
                program = scheduler.build(workload)
            except PartitioningError:
                continue  # e.g. four heads cannot cover eight chips
            assert_matches_oracle(program)
            built += 1
    assert built >= 2


# ----------------------------------------------------------------------
# One compiled sweep, priced on other clocks and links
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=scheduled_programs(),
    frequency_hz=st.floats(min_value=50e6, max_value=1e9),
    bandwidth=st.floats(min_value=1e7, max_value=1e10),
    latency_cycles=st.integers(min_value=0, max_value=20_000),
    energy_pj_per_byte=st.floats(min_value=0.0, max_value=500.0),
)
def test_compiled_sweep_prices_a_rebound_program_like_a_fresh_build(
    program, frequency_hz, bandwidth, latency_cycles, energy_pj_per_byte
):
    """A's compiled sweep, priced on B, equals the event engine on a B build."""
    platform = program.platform
    other = replace(
        platform,
        chip=replace(
            platform.chip,
            cluster=replace(platform.chip.cluster, frequency_hz=frequency_hz),
        ),
        link=replace(
            platform.link,
            bandwidth_bytes_per_s=bandwidth,
            latency_cycles=latency_cycles,
            energy_pj_per_byte=energy_pj_per_byte,
        ),
    )
    object.__setattr__(program, "_compiled_sweep", [None])
    simulate_block(program)
    compiled = program._compiled_sweep[0]
    scheduler = BlockScheduler(
        platform=other, prefetch_accounting=program.prefetch_accounting
    )
    rebound = scheduler.rebind(program, program.workload)
    priced = simulate_block(rebound, record_events=True)
    assert rebound._compiled_sweep[0] is compiled
    event = sim_oracle.simulate_block(scheduler.build(program.workload), True)
    assert_identical_results(event, priced)
    for chip_id, trace in event.chip_traces.items():
        assert priced.chip_traces[chip_id].events == trace.events


# ----------------------------------------------------------------------
# Adversarial hand-built programs (random messaging topologies)
# ----------------------------------------------------------------------
def _make_program(schedules):
    num_chips = len(schedules)
    platform = siracusa_platform(num_chips)
    workload = autoregressive(tinyllama_42m(), 128)
    partition = partition_block(workload.config, min(num_chips, 8))
    plans = {
        chip_id: MemoryPlan(
            chip_id=chip_id,
            residency=WeightResidency.STREAMED,
            l2_budget_bytes=1024,
            required_bytes=512,
            block_weight_bytes=4096,
            l3_weight_bytes_per_block=4096,
        )
        for chip_id in schedules
    }
    return BlockProgram(
        workload=workload,
        platform=platform,
        partition=partition,
        memory_plans=plans,
        schedules=schedules,
    )


@st.composite
def synthetic_programs(draw):
    """Random local steps plus randomly interleaved rendezvous pairs.

    Message endpoints are inserted at arbitrary schedule positions, so
    some generated programs deadlock — which is part of the property:
    both engines must agree on success *and* on failure.
    """
    num_chips = draw(st.integers(min_value=2, max_value=5))
    steps = {chip_id: [] for chip_id in range(num_chips)}

    def local_step(index):
        kind = draw(st.integers(min_value=0, max_value=4))
        cycles = draw(st.floats(min_value=0.0, max_value=5000.0))
        num_bytes = draw(st.integers(min_value=0, max_value=200_000))
        if kind == 0:
            return ComputeStep(
                name=f"c{index}",
                compute_cycles=cycles,
                l2_l1_bytes=float(num_bytes),
                overlap_dma=draw(st.booleans()),
            )
        if kind == 1:
            return DmaStep(
                name=f"d{index}",
                channel=draw(st.sampled_from(list(DmaChannelName))),
                num_bytes=float(num_bytes),
                num_transfers=draw(st.integers(min_value=1, max_value=4)),
            )
        if kind == 2:
            return PrefetchStep(name=f"p{index}", num_bytes=float(num_bytes))
        if kind == 3:
            return PrefetchJoinStep(name=f"j{index}")
        return ComputeStep(name=f"z{index}", compute_cycles=0.0)

    for chip_id in range(num_chips):
        for index in range(draw(st.integers(min_value=0, max_value=5))):
            steps[chip_id].append(local_step(f"{chip_id}.{index}"))

    num_messages = draw(st.integers(min_value=0, max_value=8))
    for message in range(num_messages):
        src = draw(st.integers(min_value=0, max_value=num_chips - 1))
        dst = draw(
            st.integers(min_value=0, max_value=num_chips - 1).filter(
                lambda chip: chip != src
            )
        )
        payload = draw(st.integers(min_value=0, max_value=100_000))
        tag = f"m{message}"
        send = SendStep(name=f"s{message}", dst=dst, num_bytes=payload, tag=tag)
        recv = RecvStep(name=f"r{message}", src=src, num_bytes=payload, tag=tag)
        src_steps = steps[src]
        dst_steps = steps[dst]
        src_steps.insert(
            draw(st.integers(min_value=0, max_value=len(src_steps))), send
        )
        dst_steps.insert(
            draw(st.integers(min_value=0, max_value=len(dst_steps))), recv
        )

    schedules = {
        chip_id: ChipSchedule(chip_id=chip_id, steps=tuple(chip_steps))
        for chip_id, chip_steps in steps.items()
    }
    return _make_program(schedules)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=synthetic_programs())
def test_fastpath_matches_event_engine_on_synthetic_programs(program):
    assert_matches_oracle(program)


# ----------------------------------------------------------------------
# simulate_block's options and errors
# ----------------------------------------------------------------------
class TestSimulateBlock:
    def test_record_events_keeps_identical_totals(self, four_chip_platform):
        program = BlockScheduler(platform=four_chip_platform).build(
            autoregressive(tinyllama_42m(), 128)
        )
        traced = simulate_block(program, record_events=True)
        plain = simulate_block(program)
        assert traced.chip_trace(0).events  # per-step spans were kept
        assert not plain.chip_trace(0).events
        assert_identical_results(traced, plain)

    def test_unknown_step_is_a_simulation_error(self):
        class ExoticStep(Step):
            pass

        schedules = {
            0: ChipSchedule(chip_id=0, steps=(ExoticStep(name="weird"),)),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        program = _make_program(schedules)
        message = "chip 0: unknown step type ExoticStep"
        for record_events in (False, True):
            with pytest.raises(SimulationError) as raised:
                simulate_block(program, record_events=record_events)
            assert str(raised.value) == message
        with pytest.raises(SimulationError, match=f"^{message}$"):
            sim_oracle.simulate_block(program)


def test_grid_tune_prints_the_same_bytes_on_the_oracle(capsys, monkeypatch):
    """Six structures, each priced at 20 clock x link points.

    The package re-prices one compiled sweep per structure; the oracle
    simulates every point afresh.  The JSON documents must match byte
    for byte.
    """
    argv = [
        "tune", "--searcher", "grid", "--budget", "120",
        "--chips", "1", "2", "4", "8", "--freq-mhz", "200", "300", "400", "500",
        "--json", "--no-cache",
    ]
    assert main(argv) == 0
    package = capsys.readouterr().out
    calls = []

    def oracle(program, record_events=False):
        calls.append(program)
        return sim_oracle.simulate_block(program, record_events)

    for module in sim_oracle.CALL_SITES:
        monkeypatch.setattr(f"{module}.simulate_block", oracle)
    assert main(argv) == 0
    assert capsys.readouterr().out == package
    assert calls


class TestProgramPickling:
    """Compact pickling must not lose information."""

    def test_scheduler_built_program_round_trips(self, eight_chip_platform):
        import pickle

        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive(tinyllama_42m(), 128)
        )
        clone = pickle.loads(pickle.dumps(program))
        # Schedules were dropped from the pickle and rebuilt on access.
        assert "schedules" not in clone.__dict__
        for chip_id in program.chip_ids:
            assert clone.schedule(chip_id) == program.schedule(chip_id)
        assert clone.memory_plans == program.memory_plans
        assert_identical_results(simulate_block(program), simulate_block(clone))

    def test_a_round_tripped_program_pickles_to_the_same_bytes(
        self, eight_chip_platform
    ):
        # What crosses a process boundary (a pool worker's result) is
        # stored again by the parent: its row must be the serial row.
        import pickle

        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive(tinyllama_42m(), 128)
        )
        data = pickle.dumps(program)
        clone = pickle.loads(data)
        assert pickle.dumps(clone) == data
        # Schedules and memory plans rebuilt on access change nothing.
        assert clone.schedule(0) == program.schedule(0)
        assert clone.memory_plans == program.memory_plans
        assert pickle.dumps(clone) == data

    def test_hand_built_program_keeps_schedules_verbatim(self):
        import pickle

        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(ComputeStep(name="custom-kernel", compute_cycles=123.0),),
            ),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        program = _make_program(schedules)
        clone = pickle.loads(pickle.dumps(program))
        # No canonical-schedule mark: the exact steps must survive, not
        # be replaced by what the default scheduler would build.
        assert "schedules" in clone.__dict__
        assert clone.schedule(0).steps[0].name == "custom-kernel"
        assert clone.schedules == program.schedules

    def test_content_hash_memo_stays_out_of_pickles(self):
        import pickle

        from repro.api.session import content_hash

        workload = autoregressive(tinyllama_42m(), 128)
        platform = siracusa_platform(4)
        content_hash(workload, platform)  # writes the per-instance memos
        assert "_repro_canonical_memo" in workload.__dict__
        for obj in (workload, workload.config, platform):
            clone = pickle.loads(pickle.dumps(obj))
            assert "_repro_canonical_memo" not in clone.__dict__
            assert clone == obj
