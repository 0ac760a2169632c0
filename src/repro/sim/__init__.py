"""Multi-chip simulation (the GVSoC substitute).

:func:`simulate_block` executes a :class:`~repro.core.schedule.BlockProgram`
by compiling its per-chip schedules into a timing-independent sweep and
pricing that sweep on the program's platform (:mod:`repro.sim.fastpath`).
It returns a :class:`SimulationResult`: the block runtime, each chip's
runtime breakdown and traffic counters, and, when asked for, each chip's
per-step :class:`TraceEvent` spans.
"""

from .fastpath import simulate_block
from .trace import ChipTrace, SimulationResult, TraceEvent

__all__ = [
    "ChipTrace",
    "SimulationResult",
    "TraceEvent",
    "simulate_block",
]
