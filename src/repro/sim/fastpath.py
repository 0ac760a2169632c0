"""Fast-path analytic execution of a :class:`BlockProgram`: compile, then price.

Each chip's schedule is a *linear* step list whose only cross-chip
interaction is the send/receive rendezvous, so the event engine's
generality (:mod:`repro.sim.engine`) is not needed: a per-chip-clock
sweep executes the same semantics, in two passes.

**Compile** does not depend on timing.  Which chip runs next, and which
rendezvous completes when, is set by a runnable stack (last chip first; a
chip runs until it blocks on a rendezvous its partner has not reached,
and completing one re-queues the partner), never by a clock value.
Compile walks the schedules in that order and records the rendezvous in
completion order, every prefetch and join, the durations of the local
steps before each, and each chip's timing-independent counters.  It
resolves each distinct step object once from the chip's DMA models
(chips with equal slices share step objects).  It raises what the sweep
meets, where it meets it: :class:`UnsupportedProgramError` for an unknown
step; :class:`~repro.errors.SimulationError` for mismatched payload
sizes, a message posted twice, or a deadlock.

**Price** replays the record on one platform.  The only values it
computes from the platform are the link transfer cycles, one per distinct
payload size, so one compiled sweep prices every platform that differs
only in clock and link.  It applies the event engine's floating-point
operations per chip, in schedule order, so results are bit-identical
(``tests/sim/test_fastpath_equivalence.py``):

* local steps: ``clock += duration``; a category counter is incremented
  only by a nonzero value, byte counters always;
* a rendezvous: ``start = max(max(first, second), port_free_at[receiver])``
  and ``end = start + transfer_cycles``; each side adds ``idle = max(0.0,
  start - clock)`` and ``transfer = end - start``, then ``clock = end``;
* a prefetch: ``ready = max(clock, ready) + cycles``; a join waits
  ``ready - clock`` when ``ready > clock``.

A program may carry a one-slot ``_compiled_sweep`` list: the session's
program memo attaches it when it serves a structure a second time, every
rebind shares it, the first price fills it, and pickling drops it.
:func:`repro.sim.simulator.simulate_block` falls back to the event engine
on :class:`UnsupportedProgramError`.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.schedule import (
    BlockProgram,
    ComputeStep,
    DmaChannelName,
    DmaStep,
    PrefetchJoinStep,
    PrefetchStep,
    RecvStep,
    RuntimeCategory,
    SendStep,
)
from ..core.scheduler import L3_STREAM_TILE_BYTES
from ..errors import SimulationError
from .trace import ChipTrace, SimulationResult

__all__ = ["UnsupportedProgramError", "simulate_block_fast"]

#: Steps that end a run of local steps.
_POINT_STEPS = (SendStep, RecvStep, PrefetchStep, PrefetchJoinStep)

#: The breakdown categories, in the order a :class:`ChipTrace` lists them.
_CATEGORIES = tuple(RuntimeCategory)

#: Kinds of synchronisation point: the ops of a compiled sweep, plus an
#: unknown step, which compile raises on when the walk reaches it.
_RENDEZVOUS, _PREFETCH, _JOIN, _UNKNOWN = range(4)


class UnsupportedProgramError(SimulationError):
    """The program contains a step shape the fast path cannot execute.

    Callers (notably :func:`repro.sim.simulator.simulate_block`) treat
    this as "use the event engine instead", not as a user-facing error.
    """


class _CompiledSweep(NamedTuple):
    """The timing-independent record of one program's sweep.

    Chips are indexed by id (``0..n-1``); a *run* is the tuple of
    local-step durations a chip executes before an op or its end.

    Attributes:
        ops: ``(kind, chip, run, partner, partner_run, receiver, value)``
            in completion order.  A rendezvous names its first arrival
            ``chip`` and indexes its payload in ``sizes``; a prefetch
            carries its cycles, a join the chip's L3<->L2 DMA cycles since
            its previous join.
        sizes: The distinct rendezvous payload sizes.
        chips: Per chip ``(run, l3_l2_cycles, compute, l2_l1_cycles,
            l3_l2_bytes, l2_l1_bytes, c2c_bytes_sent)``: what follows its
            last op, then its finished counters.
    """

    ops: List[tuple]
    sizes: Tuple[int, ...]
    chips: Tuple[tuple, ...]


def simulate_block_fast(program: BlockProgram) -> SimulationResult:
    """Execute ``program`` analytically and return its trace.

    Raises:
        UnsupportedProgramError: If any schedule contains a step type the
            fast path does not implement (callers fall back to the event
            engine).
        SimulationError: If the program deadlocks, a rendezvous has
            mismatched payload sizes, or a message is posted twice.
    """
    holder = program.__dict__.get("_compiled_sweep")
    if holder is None:
        return _price(_compile(program), program)
    if holder[0] is None:
        holder[0] = _compile(program)
    return _price(holder[0], program)


def _compile(program: BlockProgram) -> _CompiledSweep:
    """Walk ``program`` in runnable-stack order and record its sweep."""
    dma = program.platform.chip.dma
    chip_ids = program.chip_ids
    resolved: Dict[int, Optional[tuple]] = {}
    segments, chips = [], []
    for chip in chip_ids:
        steps = program.schedules[chip].steps
        chip_segments, finish = _split(chip, steps, resolved, dma)
        segments.append(chip_segments)
        chips.append(finish)

    ops: List[tuple] = []
    sizes: Dict[int, int] = {}
    # Rendezvous key -> (role, chip, run, num_bytes) of the first arrival.
    pending: Dict[Tuple[int, int, str], tuple] = {}
    cursor = [0] * len(chip_ids)
    runnable = list(chip_ids)
    while runnable:
        chip = runnable.pop()
        chip_segments = segments[chip]
        index = cursor[chip]
        while index < len(chip_segments):
            run, point = chip_segments[index]
            kind = point[0]
            if kind == _RENDEZVOUS:
                _, key, role, receiver, num_bytes = point
                entry = pending.pop(key, None)
                if entry is None:
                    pending[key] = (role, chip, run, num_bytes)
                    break  # blocked until the partner arrives
                other_role, other, other_run, other_bytes = entry
                if other_bytes != num_bytes:
                    raise SimulationError(
                        f"message {key} size mismatch: "
                        f"{other_bytes} vs {num_bytes}"
                    )
                if other_role == role:
                    raise SimulationError(f"duplicate {role} for message {key}")
                size = sizes.setdefault(num_bytes, len(sizes))
                ops.append((kind, other, other_run, chip, run, receiver, size))
                cursor[other] += 1
                runnable.append(other)
            elif kind == _UNKNOWN:
                raise UnsupportedProgramError(point[1])
            else:
                ops.append((kind, chip, run, None, (), None, point[1]))
            index += 1
        cursor[chip] = index

    unfinished = [
        f"chip{chip_id}"
        for chip_id, index, chip_segments in zip(chip_ids, cursor, segments)
        if index < len(chip_segments)
    ]
    if unfinished:
        raise SimulationError(
            "simulation deadlocked; chips never finished: "
            + ", ".join(sorted(unfinished))
        )
    return _CompiledSweep(ops, tuple(sizes), tuple(chips))


def _split(chip_id: int, steps, resolved: Dict[int, Optional[tuple]], dma):
    """One chip's steps as ``(run, point)`` segments plus its finish.

    Local steps are resolved through ``resolved`` (``id(step)`` ->
    ``(duration, compute, l2_l1_cycles, l3_l2_cycles, num_bytes,
    bytes_on_l3)``) and their counters accumulated here, in schedule
    order.  An unknown step ends the chip: the walk raises on reaching it.
    """
    segments = []
    run: List[float] = []
    l3_run: List[float] = []
    compute_total = l2_l1_total = 0.0
    l3_l2_bytes = l2_l1_bytes = c2c_bytes_sent = 0.0
    for step in steps:
        record = resolved.get(id(step))
        if record is None and not isinstance(step, _POINT_STEPS):
            record = resolved[id(step)] = _resolve(step, dma)
        if record:
            duration, compute, l2_l1_cycles, l3_l2_cycles, num_bytes, on_l3 = record
            run.append(duration)
            if compute:
                compute_total += compute
            if l2_l1_cycles:
                l2_l1_total += l2_l1_cycles
            if l3_l2_cycles:
                l3_run.append(l3_l2_cycles)
            if on_l3:
                l3_l2_bytes += num_bytes
            else:
                l2_l1_bytes += num_bytes
            continue
        if isinstance(step, PrefetchStep):
            transfers = max(1, math.ceil(step.num_bytes / L3_STREAM_TILE_BYTES))
            cycles = dma.l3_l2.transfer_cycles(int(step.num_bytes), transfers)
            l3_l2_bytes += step.num_bytes
            point = (_PREFETCH, cycles)
        elif isinstance(step, PrefetchJoinStep):
            point = (_JOIN, tuple(l3_run))
            l3_run = []
        elif isinstance(step, SendStep):
            key = (chip_id, step.dst, step.tag)
            point = (_RENDEZVOUS, key, "send", step.dst, step.num_bytes)
            c2c_bytes_sent += step.num_bytes
        elif isinstance(step, RecvStep):
            key = (step.src, chip_id, step.tag)
            point = (_RENDEZVOUS, key, "recv", chip_id, step.num_bytes)
        else:
            message = f"chip {chip_id}: unknown step type {type(step).__name__}"
            segments.append(((), (_UNKNOWN, message)))
            break
        segments.append((tuple(run), point))
        run = []
    counters = (compute_total, l2_l1_total, l3_l2_bytes, l2_l1_bytes, c2c_bytes_sent)
    return segments, (tuple(run), tuple(l3_run)) + counters


def _resolve(step, dma) -> Optional[tuple]:
    """The local record of a compute or DMA step; ``None`` for any other."""
    if isinstance(step, ComputeStep):
        compute = step.compute_cycles
        dma_cycles = 0.0
        if step.l2_l1_bytes > 0:
            dma_cycles = dma.l2_l1.transfer_cycles(int(step.l2_l1_bytes))
        if step.overlap_dma:
            duration = max(compute, dma_cycles)
            exposed = max(0.0, dma_cycles - compute)
        else:
            duration = compute + dma_cycles
            exposed = dma_cycles
        return (duration, compute, exposed, 0.0, step.l2_l1_bytes, False)
    if isinstance(step, DmaStep):
        on_l3 = step.channel is DmaChannelName.L3_L2
        channel = dma.l3_l2 if on_l3 else dma.l2_l1
        cycles = channel.transfer_cycles(int(step.num_bytes), step.num_transfers)
        if on_l3:
            return (cycles, 0.0, 0.0, cycles, step.num_bytes, True)
        return (cycles, 0.0, cycles, 0.0, step.num_bytes, False)
    return None


def _price(sweep: _CompiledSweep, program: BlockProgram) -> SimulationResult:
    """Replay ``sweep`` on ``program``'s platform."""
    platform = program.platform
    link, frequency = platform.link, platform.frequency_hz
    link_cycles = [link.transfer_cycles(size, frequency) for size in sweep.sizes]
    num_chips = len(sweep.chips)
    clocks = [0.0] * num_chips
    ready = [0.0] * num_chips
    port_free_at = [0.0] * num_chips
    idle_cycles = [0.0] * num_chips
    c2c_cycles = [0.0] * num_chips
    l3_l2_cycles = [0.0] * num_chips
    for kind, chip, run, partner, partner_run, receiver, value in sweep.ops:
        clock = reduce(add, run, clocks[chip]) if run else clocks[chip]
        if kind == _RENDEZVOUS:
            other = clocks[partner]
            if partner_run:
                other = reduce(add, partner_run, other)
            # max(max(clock, other), port_free_at[receiver]) written out;
            # like max, each select keeps the earlier operand on a tie.
            start = other if other > clock else clock
            if port_free_at[receiver] > start:
                start = port_free_at[receiver]
            end = start + link_cycles[value]
            port_free_at[receiver] = end
            # max(0.0, start - clock) is nonzero exactly when start > clock.
            if start > clock:
                idle_cycles[chip] += start - clock
            if start > other:
                idle_cycles[partner] += start - other
            transfer = end - start
            if transfer:
                c2c_cycles[chip] += transfer
                c2c_cycles[partner] += transfer
            clocks[chip] = clocks[partner] = end
        elif kind == _PREFETCH:
            ready[chip] = max(clock, ready[chip]) + value
            clocks[chip] = clock
        else:
            l3 = reduce(add, value, l3_l2_cycles[chip])
            if ready[chip] > clock:
                wait = ready[chip] - clock
                l3 += wait
                clock += wait
            l3_l2_cycles[chip] = l3
            clocks[chip] = clock

    compute, dma_l3_l2, dma_l2_l1, chip_to_chip, idle = _CATEGORIES
    traces: Dict[int, ChipTrace] = {}
    for chip, finish in enumerate(sweep.chips):
        run, l3_run, compute_total, l2_l1_total, l3_bytes, l2_l1_bytes, c2c_bytes = finish
        cycles = {
            compute: compute_total,
            dma_l3_l2: reduce(add, l3_run, l3_l2_cycles[chip]),
            dma_l2_l1: l2_l1_total,
            chip_to_chip: c2c_cycles[chip],
            idle: idle_cycles[chip],
        }
        finish_cycle = reduce(add, run, clocks[chip])
        traces[chip] = ChipTrace(
            chip, cycles, l3_bytes, l2_l1_bytes, c2c_bytes, finish_cycle
        )
    total_cycles = max(trace.finish_cycle for trace in traces.values())
    return SimulationResult(
        program=program, total_cycles=total_cycles, chip_traces=traces
    )
