"""The event-engine oracle: the block simulator the fast path must equal.

:mod:`repro.sim.fastpath` is the package's only block simulator.  This
module keeps the generator-based discrete-event engine it replaced, as an
independent second implementation of the same :class:`BlockProgram`
semantics.  The equivalence suite (``tests/sim/test_fastpath_equivalence.py``)
checks the fast path against it bit for bit, traced spans included, and
``benchmarks/run_all.py`` times the fast path against it.

The engine is a deterministic, generator-based discrete-event kernel in the
style of SimPy, reduced to the features the multi-chip simulator needs:

* :class:`Environment` — the event queue and the simulation clock,
* :class:`Event` — a one-shot occurrence processes can wait on,
* :class:`Process` — a Python generator driven by the environment; every
  value it yields must be an :class:`Event`, and the process resumes when
  that event fires,
* ``Environment.timeout`` — an event that fires after a delay,
* :class:`AllOf` — an event that fires when several events have all fired.

Simultaneous events are processed in the order they were scheduled, so
repeated runs of the same program produce identical traces.

:class:`MultiChipSimulator` turns every chip of the platform into one
simulation process that walks its schedule step by step:

* kernel steps advance time by the kernel's compute cycles (with the
  L2<->L1 staging either double-buffered against the computation or
  serialised with it, depending on the weight-residency regime),
* blocking DMA steps advance time by the channel's transfer time,
* prefetch steps start a background transfer on the off-chip DMA channel
  and only consume time if a later join step has to wait for them,
* send/receive pairs rendezvous over the chip-to-chip link; transfers that
  converge on the same receiver serialise at that receiver's ingress port.

:func:`simulate_block` has the package function's signature, and
:func:`install` puts it where the package looks its simulator up (the
modules in :data:`CALL_SITES`), so a whole command can run on the oracle.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.core.schedule import (
    BlockProgram,
    ChipSchedule,
    ComputeStep,
    DmaChannelName,
    DmaStep,
    PrefetchJoinStep,
    PrefetchStep,
    RecvStep,
    RuntimeCategory,
    SendStep,
)
from repro.core.scheduler import L3_STREAM_TILE_BYTES
from repro.errors import SimulationError
from repro.sim.trace import ChipTrace, SimulationResult

#: The modules that call ``simulate_block`` by their own global name.
CALL_SITES = ("repro.analysis.evaluate", "repro.baselines.pipeline_parallel")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (scheduled to fire at some simulation time), and *processed* (its
    callbacks have run).  Callbacks added after the event has been
    processed are invoked at the current simulation time via a small proxy
    event, so latecomers never deadlock.
    """

    def __init__(self, env: "Environment", name: str = "event") -> None:
        self.env = env
        self.name = name
        self.triggered = False
        self.processed = False
        self.value: object = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event at the current simulation time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        self.env._schedule(self, delay=0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback invoked when the event fires.

        If the event has already been processed the callback is invoked at
        the current simulation time (through a proxy event), preserving the
        run loop's determinism.
        """
        if self.processed:
            # The proxy reuses this event's name: building a derived
            # f-string per late callback is measurable on the hot path
            # and the name is only ever read while debugging.
            proxy = Event(self.env, name=self.name)
            proxy._callbacks.append(callback)
            proxy.triggered = True
            proxy.value = self.value
            self.env._schedule(proxy, delay=0.0)
        else:
            self._callbacks.append(callback)

    def _process_callbacks(self) -> None:
        self.processed = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    def __init__(self, env: "Environment", delay: float, name: str = "timeout") -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(env, name=name)
        self.delay = delay
        self.triggered = True
        env._schedule(self, delay=delay)


class AllOf(Event):
    """An event that fires once all constituent events have fired."""

    def __init__(
        self, env: "Environment", events: Iterable[Event], name: str = "all_of"
    ) -> None:
        super().__init__(env, name=name)
        self._pending = 0
        for event in events:
            if event.processed:
                continue
            self._pending += 1
            event.add_callback(self._on_child)
        if self._pending == 0:
            self.succeed()

    def _on_child(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed()


class Process(Event):
    """A generator-based simulation process.

    The process itself is an event that fires when the generator finishes,
    so processes can wait for each other.
    """

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, object, None],
        name: str = "process",
    ) -> None:
        super().__init__(env, name=name)
        self._generator = generator
        # The bootstrap shares the process name; a per-process f-string
        # buys nothing (the name is only read while debugging).
        bootstrap = Event(env, name=name)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        target.add_callback(self._resume)


class Environment:
    """The simulation clock and event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List = []
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "event") -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, name: str = "timeout") -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, name=name)

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> AllOf:
        """Create an event firing when all ``events`` have fired."""
        return AllOf(self, events, name=name)

    def process(
        self, generator: Generator[Event, object, None], name: str = "process"
    ) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self.now + delay, next(self._sequence), event))

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or until the given time).

        Returns:
            The final simulation time.

        Raises:
            SimulationError: If ``until`` lies in the past.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}, current time is already {self.now}"
            )
        while self._queue:
            scheduled_time, sequence, event = heapq.heappop(self._queue)
            if until is not None and scheduled_time > until:
                heapq.heappush(self._queue, (scheduled_time, sequence, event))
                self.now = until
                return self.now
            self.now = scheduled_time
            event._process_callbacks()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue."""
        return len(self._queue)


@dataclass
class _PendingMessage:
    """Book-keeping for one send/receive rendezvous."""

    num_bytes: int
    arrivals: Dict[str, float] = field(default_factory=dict)
    events: Dict[str, Event] = field(default_factory=dict)


@dataclass
class MultiChipSimulator:
    """Simulates one block program on its platform.

    Attributes:
        program: The block program to execute.
        record_events: Whether to keep per-step trace events (useful for
            debugging and for fine-grained tests; adds memory overhead).
    """

    program: BlockProgram
    record_events: bool = False

    def run(self) -> SimulationResult:
        """Execute the program and return its trace.

        Raises:
            SimulationError: If the program deadlocks (a chip waits forever
                on a message that is never sent).
        """
        env = Environment()
        traces = {
            chip_id: ChipTrace(chip_id=chip_id) for chip_id in self.program.chip_ids
        }
        pending: Dict[Tuple[int, int, str], _PendingMessage] = {}
        port_free_at: Dict[int, float] = {}
        processes = []
        for chip_id in self.program.chip_ids:
            schedule = self.program.schedule(chip_id)
            generator = self._chip_process(
                env, chip_id, schedule, traces[chip_id], pending, port_free_at
            )
            processes.append(env.process(generator, name=f"chip{chip_id}"))
        env.run()
        unfinished = [process.name for process in processes if not process.processed]
        if unfinished:
            raise SimulationError(
                "simulation deadlocked; chips never finished: "
                + ", ".join(sorted(unfinished))
            )
        total_cycles = max(trace.finish_cycle for trace in traces.values())
        return SimulationResult(
            program=self.program, total_cycles=total_cycles, chip_traces=traces
        )

    # ------------------------------------------------------------------
    # Per-chip process
    # ------------------------------------------------------------------
    def _chip_process(
        self,
        env: Environment,
        chip_id: int,
        schedule: ChipSchedule,
        trace: ChipTrace,
        pending: Dict[Tuple[int, int, str], _PendingMessage],
        port_free_at: Dict[int, float],
    ) -> Generator[Event, object, None]:
        chip = self.program.platform.chip
        link = self.program.platform.link
        frequency = self.program.platform.frequency_hz
        prefetch_ready_at = 0.0

        for step in schedule.steps:
            if isinstance(step, ComputeStep):
                yield from self._run_compute(env, chip, step, trace)
            elif isinstance(step, DmaStep):
                yield from self._run_dma(env, chip, step, trace)
            elif isinstance(step, PrefetchStep):
                prefetch_ready_at = self._start_prefetch(
                    env, chip, step, trace, prefetch_ready_at
                )
            elif isinstance(step, PrefetchJoinStep):
                yield from self._join_prefetch(env, step, trace, prefetch_ready_at)
            elif isinstance(step, (SendStep, RecvStep)):
                yield from self._run_message(
                    env, chip_id, step, trace, pending, port_free_at, link, frequency
                )
            else:
                raise SimulationError(
                    f"chip {chip_id}: unknown step type {type(step).__name__}"
                )
        trace.finish_cycle = env.now

    # ------------------------------------------------------------------
    # Step handlers
    # ------------------------------------------------------------------
    def _run_compute(self, env, chip, step: ComputeStep, trace: ChipTrace):
        dma_cycles = 0.0
        if step.l2_l1_bytes > 0:
            dma_cycles = chip.dma.l2_l1.transfer_cycles(int(step.l2_l1_bytes))
        if step.overlap_dma:
            duration = max(step.compute_cycles, dma_cycles)
            exposed_dma = max(0.0, dma_cycles - step.compute_cycles)
        else:
            duration = step.compute_cycles + dma_cycles
            exposed_dma = dma_cycles
        start = env.now
        self._attribute(trace, RuntimeCategory.COMPUTE, step.compute_cycles, step, start)
        self._attribute(trace, RuntimeCategory.DMA_L2_L1, exposed_dma, step, start)
        trace.l2_l1_bytes += step.l2_l1_bytes
        if duration > 0:
            yield env.timeout(duration)

    def _run_dma(self, env, chip, step: DmaStep, trace: ChipTrace):
        if step.channel is DmaChannelName.L3_L2:
            channel = chip.dma.l3_l2
            category = RuntimeCategory.DMA_L3_L2
            trace.l3_l2_bytes += step.num_bytes
        else:
            channel = chip.dma.l2_l1
            category = RuntimeCategory.DMA_L2_L1
            trace.l2_l1_bytes += step.num_bytes
        cycles = channel.transfer_cycles(int(step.num_bytes), step.num_transfers)
        self._attribute(trace, category, cycles, step, env.now)
        if cycles > 0:
            yield env.timeout(cycles)

    def _start_prefetch(
        self, env, chip, step: PrefetchStep, trace: ChipTrace, prefetch_ready_at: float
    ) -> float:
        transfers = max(1, math.ceil(step.num_bytes / L3_STREAM_TILE_BYTES))
        cycles = chip.dma.l3_l2.transfer_cycles(int(step.num_bytes), transfers)
        start = max(env.now, prefetch_ready_at)
        trace.l3_l2_bytes += step.num_bytes
        return start + cycles

    def _join_prefetch(self, env, step, trace: ChipTrace, prefetch_ready_at: float):
        if prefetch_ready_at > env.now:
            wait = prefetch_ready_at - env.now
            self._attribute(trace, RuntimeCategory.DMA_L3_L2, wait, step, env.now)
            yield env.timeout(wait)

    def _run_message(
        self,
        env,
        chip_id: int,
        step,
        trace: ChipTrace,
        pending: Dict[Tuple[int, int, str], _PendingMessage],
        port_free_at: Dict[int, float],
        link,
        frequency: float,
    ):
        if isinstance(step, SendStep):
            key = (chip_id, step.dst, step.tag)
            role = "send"
            receiver = step.dst
        else:
            key = (step.src, chip_id, step.tag)
            role = "recv"
            receiver = chip_id

        message = pending.get(key)
        if message is None:
            message = _PendingMessage(num_bytes=step.num_bytes)
            pending[key] = message
        elif message.num_bytes != step.num_bytes:
            raise SimulationError(
                f"message {key} size mismatch: {message.num_bytes} vs {step.num_bytes}"
            )
        if role in message.arrivals:
            raise SimulationError(f"duplicate {role} for message {key}")
        message.arrivals[role] = env.now
        # Event names are only read by traces and error messages, so the
        # f-string is skipped on the hot path.
        completion = env.event(
            name=f"msg.{key}.{role}" if self.record_events else "msg"
        )
        message.events[role] = completion

        if len(message.arrivals) == 2:
            start = max(max(message.arrivals.values()), port_free_at.get(receiver, 0.0))
            duration = link.transfer_cycles(message.num_bytes, frequency)
            end = start + duration
            port_free_at[receiver] = end
            del pending[key]
            self._fire_at(env, message.events["send"], end, (start, end))
            self._fire_at(env, message.events["recv"], end, (start, end))

        value = yield completion
        start, end = value
        arrival = message.arrivals[role]
        idle = max(0.0, start - arrival)
        transfer = end - start
        self._attribute(trace, RuntimeCategory.IDLE, idle, step, arrival)
        self._attribute(trace, RuntimeCategory.CHIP_TO_CHIP, transfer, step, start)
        if role == "send":
            trace.c2c_bytes_sent += step.num_bytes

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fire_at(self, env: Environment, event: Event, when: float, value) -> None:
        """Trigger ``event`` with ``value`` at absolute simulation time ``when``."""
        delay = max(0.0, when - env.now)
        name = f"{event.name}.timer" if self.record_events else "timer"
        timer = env.timeout(delay, name=name)
        timer.add_callback(lambda _timer: event.succeed(value))

    def _attribute(
        self,
        trace: ChipTrace,
        category: RuntimeCategory,
        cycles: float,
        step,
        start: float,
    ) -> None:
        if self.record_events:
            trace.add(category, cycles, name=step.name, start_cycle=start)
        else:
            trace.add(category, cycles)


def simulate_block(
    program: BlockProgram, record_events: bool = False
) -> SimulationResult:
    """Simulate ``program`` on the event engine."""
    return MultiChipSimulator(program=program, record_events=record_events).run()


def install() -> None:
    """Make every call site in :data:`CALL_SITES` simulate on the oracle.

    Benchmark children call this before any pool forks, so the workers
    inherit it; tests patch the same sites with ``monkeypatch`` instead.
    """
    for name in CALL_SITES:
        importlib.import_module(name).simulate_block = simulate_block
