"""The block simulator: compile a :class:`BlockProgram`, then price it.

Each chip's schedule is a *linear* step list whose only cross-chip
interaction is the send/receive rendezvous, so no event queue is needed:
a per-chip-clock sweep executes the program, in two passes.

**Compile** does not depend on timing.  Which chip runs next, and which
rendezvous completes when, is set by a runnable stack (last chip first; a
chip runs until it blocks on a rendezvous its partner has not reached,
and completing one re-queues the partner), never by a clock value.
Compile walks the schedules in that order and records the rendezvous in
completion order, every prefetch and join, the durations of the local
steps before each, and each chip's timing-independent counters.  It
resolves each distinct step object once from the chip's DMA models
(chips with equal slices share step objects).  It raises a
:class:`~repro.errors.SimulationError` for what the sweep meets, where it
meets it: an unknown step type, mismatched payload sizes, a message
posted twice, or a deadlock.

**Price** replays the record on one platform.  The only values it
computes from the platform are the link transfer cycles, one per distinct
payload size, so one compiled sweep prices every platform that differs
only in clock and link.  Per chip, in schedule order:

* local steps: ``clock += duration``; a category counter is incremented
  only by a nonzero value, byte counters always;
* a rendezvous: ``start = max(max(first, second), port_free_at[receiver])``
  and ``end = start + transfer_cycles``; each side adds ``idle = max(0.0,
  start - clock)`` and ``transfer = end - start``, then ``clock = end``;
* a prefetch: ``ready = max(clock, ready) + cycles``; a join waits
  ``ready - clock`` when ``ready > clock``.

**Traced runs** (``record_events=True``) also keep each rendezvous's
``(start, end)`` window, per chip, while pricing, then walk every
schedule once more with the same clock operations to emit each step's
:class:`~repro.sim.trace.TraceEvent` spans, following
:meth:`~repro.sim.trace.ChipTrace.add`: a span is kept only when its
cycles are nonzero and its step is named.  A compute step's exposed
L2<->L1 span starts, like its compute span, at the step's start.

Results, spans included, are bit-identical to a generator-based
discrete-event engine, which the test suite keeps as its oracle
(``tests/sim_oracle.py``, checked by
``tests/sim/test_fastpath_equivalence.py``).

A program may carry a one-slot ``_compiled_sweep`` list: the session's
program memo attaches it when it serves a structure a second time, every
rebind shares it, the first price fills it, and pickling drops it.
"""

from __future__ import annotations

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
from ..core.scheduler import l3_transfers
from ..errors import SimulationError
from .trace import ChipTrace, SimulationResult, TraceEvent

__all__ = ["simulate_block"]

#: Steps that end a run of local steps.
_POINT_STEPS = (SendStep, RecvStep, PrefetchStep, PrefetchJoinStep)

#: The breakdown categories, in the order a :class:`ChipTrace` lists them.
_CATEGORIES = tuple(RuntimeCategory)

#: Kinds of synchronisation point: the ops of a compiled sweep, plus an
#: unknown step, which compile raises on when the walk reaches it.
_RENDEZVOUS, _PREFETCH, _JOIN, _UNKNOWN = range(4)


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


def simulate_block(
    program: BlockProgram, record_events: bool = False
) -> SimulationResult:
    """Simulate one block program and return its trace.

    Args:
        program: The block program to execute.
        record_events: Also fill every chip's ``events`` with its
            per-step :class:`~repro.sim.trace.TraceEvent` spans.

    Raises:
        SimulationError: If a schedule holds an unknown step type, the
            program deadlocks, a rendezvous has mismatched payload sizes,
            or a message is posted twice.
    """
    holder = program.__dict__.get("_compiled_sweep")
    if holder is None:
        sweep = _compile(program)
    elif holder[0] is None:
        sweep = holder[0] = _compile(program)
    else:
        sweep = holder[0]
    if not record_events:
        return _price(sweep, program)
    windows: List[List[Tuple[float, float]]] = [[] for _ in sweep.chips]
    result = _price(sweep, program, windows)
    _record_events(program, windows, result.chip_traces)
    return result


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
                raise SimulationError(point[1])
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
            l3_l2_bytes += step.num_bytes
            point = (_PREFETCH, _prefetch_cycles(step, dma))
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


def _prefetch_cycles(step: PrefetchStep, dma) -> float:
    """L3->L2 cycles of a prefetch, streamed in L3 tiles."""
    return dma.l3_l2.transfer_cycles(int(step.num_bytes), l3_transfers(step.num_bytes))


def _price(
    sweep: _CompiledSweep,
    program: BlockProgram,
    windows: Optional[List[List[Tuple[float, float]]]] = None,
) -> SimulationResult:
    """Replay ``sweep`` on ``program``'s platform.

    ``windows``, when given, receives each rendezvous's ``(start, end)``
    on both chips' lists, in each chip's schedule order.
    """
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
            if windows is not None:
                windows[chip].append((start, end))
                windows[partner].append((start, end))
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


def _record_events(
    program: BlockProgram,
    windows: List[List[Tuple[float, float]]],
    traces: Dict[int, ChipTrace],
) -> None:
    """Fill each chip's ``events`` by walking its schedule once more.

    The walk repeats :func:`_price`'s clock operations, taking every
    rendezvous's ``(start, end)`` from ``windows``, and keeps a span under
    :meth:`ChipTrace.add`'s rule: nonzero cycles and a named step.
    """
    dma = program.platform.chip.dma
    compute, dma_l3_l2, dma_l2_l1, chip_to_chip, idle = _CATEGORIES
    for chip in program.chip_ids:
        spans = []  # (step, category, start, cycles)
        chip_windows = iter(windows[chip])
        clock = ready = 0.0
        for step in program.schedules[chip].steps:
            if isinstance(step, (SendStep, RecvStep)):
                start, end = next(chip_windows)
                spans.append((step, idle, clock, max(0.0, start - clock)))
                spans.append((step, chip_to_chip, start, end - start))
                clock = end
            elif isinstance(step, PrefetchStep):
                ready = max(clock, ready) + _prefetch_cycles(step, dma)
            elif isinstance(step, PrefetchJoinStep):
                if ready > clock:
                    wait = ready - clock
                    spans.append((step, dma_l3_l2, clock, wait))
                    clock += wait
            else:
                duration, cycles, l2_l1, l3_l2 = _resolve(step, dma)[:4]
                spans.append((step, compute, clock, cycles))
                spans.append((step, dma_l2_l1, clock, l2_l1))
                spans.append((step, dma_l3_l2, clock, l3_l2))
                clock += duration
        traces[chip].events.extend(
            TraceEvent(chip, step.name, category, start, start + cycles)
            for step, category, start, cycles in spans
            if cycles and step.name
        )
