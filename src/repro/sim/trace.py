"""Simulation traces: runtime breakdowns and traffic counters.

The simulator produces, for every chip, the same quantities the paper
extracts from GVSoC: how many cycles were spent computing, waiting on
L3<->L2 DMA, waiting on L2<->L1 DMA, and communicating over the
chip-to-chip link, plus the number of bytes that crossed each memory level.
These feed the analytical energy model and the figure-reproduction
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional

from ..core.schedule import BlockProgram, RuntimeCategory
from ..errors import SimulationError
from ..interning import shared_rows


#: A breakdown dict's values in :data:`RuntimeCategory` order, as a tuple.
_category_values = itemgetter(*RuntimeCategory)


@dataclass
class TraceEvent:
    """One attributed span of time on one chip (for debugging and tests)."""

    chip_id: int
    name: str
    category: RuntimeCategory
    start_cycle: float
    end_cycle: float

    @property
    def duration(self) -> float:
        """Length of the span in cycles."""
        return self.end_cycle - self.start_cycle


@dataclass
class ChipTrace:
    """Accumulated activity of one chip over a simulated block."""

    chip_id: int
    cycles: Dict[RuntimeCategory, float] = field(
        default_factory=lambda: {category: 0.0 for category in RuntimeCategory}
    )
    l3_l2_bytes: float = 0.0
    l2_l1_bytes: float = 0.0
    c2c_bytes_sent: float = 0.0
    finish_cycle: float = 0.0
    events: List[TraceEvent] = field(default_factory=list)

    def add(
        self,
        category: RuntimeCategory,
        cycles: float,
        *,
        name: str = "",
        start_cycle: Optional[float] = None,
    ) -> None:
        """Attribute ``cycles`` of activity to a breakdown category."""
        if cycles < 0:
            raise SimulationError(
                f"chip {self.chip_id}: cannot attribute negative cycles to "
                f"{category.value}"
            )
        if cycles == 0:
            return
        self.cycles[category] += cycles
        if name and start_cycle is not None:
            self.events.append(
                TraceEvent(
                    chip_id=self.chip_id,
                    name=name,
                    category=category,
                    start_cycle=start_cycle,
                    end_cycle=start_cycle + cycles,
                )
            )

    @property
    def compute_cycles(self) -> float:
        """Cluster-busy cycles (used by the energy model)."""
        return self.cycles[RuntimeCategory.COMPUTE]

    @property
    def busy_cycles(self) -> float:
        """All attributed cycles except idle waiting."""
        return sum(
            value
            for category, value in self.cycles.items()
            if category is not RuntimeCategory.IDLE
        )


@dataclass
class SimulationResult:
    """Outcome of simulating one :class:`BlockProgram`.

    Attributes:
        program: The simulated program.
        total_cycles: Wall-clock cycles until the last chip finished.
        chip_traces: Per-chip activity traces.
    """

    program: BlockProgram
    total_cycles: float
    chip_traces: Dict[int, ChipTrace]

    def __post_init__(self) -> None:
        if self.total_cycles < 0:
            raise SimulationError("total cycle count cannot be negative")
        expected = set(self.program.chip_ids)
        if set(self.chip_traces) != expected:
            raise SimulationError("simulation result must cover every chip")

    # ------------------------------------------------------------------
    # Compact pickling
    # ------------------------------------------------------------------
    # One trace per chip is persisted for every cached evaluation, so
    # the enum-keyed breakdown dicts are flattened to one value row per
    # chip (in :data:`RuntimeCategory` order; chips with equal counters
    # share one row) and only materialised back into :class:`ChipTrace`
    # objects when the traces are actually read; per-step events (when
    # recorded) keep full fidelity, as one tuple per chip, so a chip
    # without events costs the shared empty tuple rather than a list.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        traces = state.pop("chip_traces", None)
        if traces is not None:
            rows = shared_rows(
                (
                    _category_values(trace.cycles),
                    trace.l3_l2_bytes,
                    trace.l2_l1_bytes,
                    trace.c2c_bytes_sent,
                    trace.finish_cycle,
                )
                for trace in traces.values()
            )
            state["_packed_chip_traces"] = tuple(
                (trace.chip_id, row, tuple(trace.events))
                for trace, row in zip(traces.values(), rows)
            )
        return state

    def __getattr__(self, name: str):
        if name == "chip_traces":
            packed = self.__dict__.get("_packed_chip_traces")
            if packed is not None:
                categories = tuple(RuntimeCategory)
                traces = {}
                for chip_id, (values, l3_l2, l2_l1, c2c, finish), events in packed:
                    trace = ChipTrace.__new__(ChipTrace)
                    trace.__dict__.update(
                        chip_id=chip_id,
                        cycles=dict(zip(categories, values)),
                        l3_l2_bytes=l3_l2,
                        l2_l1_bytes=l2_l1,
                        c2c_bytes_sent=c2c,
                        finish_cycle=finish,
                        events=list(events),
                    )
                    traces[chip_id] = trace
                object.__setattr__(self, "chip_traces", traces)
                return traces
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Runtime views
    # ------------------------------------------------------------------
    @property
    def num_chips(self) -> int:
        """Number of chips in the simulated system."""
        return self.program.platform.num_chips

    @property
    def frequency_hz(self) -> float:
        """Cluster clock frequency of the platform."""
        return self.program.platform.frequency_hz

    @property
    def runtime_seconds(self) -> float:
        """Block runtime in seconds."""
        return self.total_cycles / self.frequency_hz

    def chip_trace(self, chip_id: int) -> ChipTrace:
        """Trace of one chip."""
        if chip_id not in self.chip_traces:
            raise SimulationError(f"no trace for chip {chip_id}")
        return self.chip_traces[chip_id]

    def breakdown_average(self) -> Dict[RuntimeCategory, float]:
        """Mean cycles per category across chips (the figure's stacked bars)."""
        result = {category: 0.0 for category in RuntimeCategory}
        for trace in self.chip_traces.values():
            for category, value in trace.cycles.items():
                result[category] += value
        return {
            category: value / self.num_chips for category, value in result.items()
        }

    def breakdown_of_critical_chip(self) -> Dict[RuntimeCategory, float]:
        """Breakdown of the chip that finished last."""
        critical = max(self.chip_traces.values(), key=lambda trace: trace.finish_cycle)
        return dict(critical.cycles)

    # ------------------------------------------------------------------
    # Traffic views (inputs of the energy model)
    # ------------------------------------------------------------------
    @property
    def total_l3_l2_bytes(self) -> float:
        """Bytes moved between L3 and L2, summed over chips."""
        return sum(trace.l3_l2_bytes for trace in self.chip_traces.values())

    @property
    def total_l2_l1_bytes(self) -> float:
        """Bytes moved between L2 and L1, summed over chips."""
        return sum(trace.l2_l1_bytes for trace in self.chip_traces.values())

    @property
    def total_c2c_bytes(self) -> float:
        """Bytes moved over chip-to-chip links (counted once, at the sender)."""
        return sum(trace.c2c_bytes_sent for trace in self.chip_traces.values())

    @property
    def total_compute_cycles(self) -> float:
        """Cluster-busy cycles summed over chips."""
        return sum(trace.compute_cycles for trace in self.chip_traces.values())
