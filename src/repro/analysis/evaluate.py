"""Evaluation engine of the paper's partitioning scheme.

:func:`evaluate_block` takes a workload and a platform, partitions one
Transformer block with the paper's scheme, schedules it, simulates it, and
applies the energy model.  The resulting :class:`BlockReport` carries
everything the examples, benchmarks, and figure harnesses need: runtime,
runtime breakdown, traffic, energy, energy-delay product, and the
weight-residency regime of every chip.

:func:`evaluate_block` is the engine of the simulator-backed strategies in
:mod:`repro.api` (``"paper"``, ``"single_chip"``, ``"tensor_parallel"``),
which attach its report to the one result schema,
:class:`~repro.api.EvalResult`.  Evaluate through a session to get that
schema and memoisation::

    from repro.api import Session

    result = Session().run(workload, strategy="paper", chips=8)
    report = result.report
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..core.placement import PrefetchAccounting, WeightResidency
from ..core.schedule import BlockProgram, RuntimeCategory
from ..core.scheduler import BlockScheduler
from ..energy.model import EnergyModel, EnergyReport
from ..graph.workload import Workload
from ..hw.chip import ChipModel
from ..hw.platform import MultiChipPlatform
from ..kernels.library import KernelLibrary
from ..sim import simulate_block
from ..sim.trace import SimulationResult


@dataclass(frozen=True)
class BlockReport:
    """Complete evaluation of one Transformer block on one platform.

    Attributes:
        workload: The evaluated workload.
        platform: The platform it ran on.
        program: The scheduled block program.
        simulation: The simulation trace.
        energy: The energy report derived from the trace.
    """

    workload: Workload
    platform: MultiChipPlatform
    program: BlockProgram
    simulation: SimulationResult
    energy: EnergyReport

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    @property
    def num_chips(self) -> int:
        """Number of chips used."""
        return self.platform.num_chips

    @property
    def block_cycles(self) -> float:
        """Runtime of one Transformer block in cycles."""
        return self.simulation.total_cycles

    @property
    def block_runtime_seconds(self) -> float:
        """Runtime of one Transformer block in seconds."""
        return self.simulation.runtime_seconds

    @property
    def inference_cycles(self) -> float:
        """Estimated runtime of a full forward pass (all blocks) in cycles.

        The paper reports per-block numbers; the full pass is the per-block
        cost times the layer count (embedding lookup and the LM head are
        outside the scope of the partitioning scheme and are not modelled).
        """
        return self.block_cycles * self.workload.config.num_layers

    @property
    def inference_runtime_seconds(self) -> float:
        """Estimated runtime of a full forward pass in seconds."""
        return self.inference_cycles / self.platform.frequency_hz

    def runtime_breakdown(self) -> Dict[RuntimeCategory, float]:
        """Average per-chip cycles by category (the Fig. 4 stacked bars)."""
        return self.simulation.breakdown_average()

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    @property
    def block_energy_joules(self) -> float:
        """Energy of one Transformer block in joules."""
        return self.energy.total_joules

    @property
    def inference_energy_joules(self) -> float:
        """Estimated energy of a full forward pass in joules."""
        return self.block_energy_joules * self.workload.config.num_layers

    @property
    def energy_delay_product(self) -> float:
        """Per-block energy-delay product in joule-seconds."""
        return self.energy.energy_delay_product

    # ------------------------------------------------------------------
    # Memory placement
    # ------------------------------------------------------------------
    def residencies(self) -> Dict[int, WeightResidency]:
        """Weight-residency regime selected for every chip."""
        return {
            chip_id: plan.residency
            for chip_id, plan in self.program.memory_plans.items()
        }

    @property
    def runs_from_on_chip_memory(self) -> bool:
        """Whether every chip executes the block with on-chip weights."""
        return all(
            residency.is_on_chip for residency in self.residencies().values()
        )

    @property
    def total_l3_bytes(self) -> float:
        """Off-chip traffic of one block, summed over chips."""
        return self.simulation.total_l3_l2_bytes

    @property
    def total_c2c_bytes(self) -> float:
        """Chip-to-chip traffic of one block."""
        return self.simulation.total_c2c_bytes

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workload.name} on {self.num_chips} chip(s): "
            f"{self.block_cycles:.0f} cycles/block, "
            f"{self.block_energy_joules * 1e3:.3f} mJ/block, "
            f"on-chip={self.runs_from_on_chip_memory}"
        )


#: The program memo of the session whose engine call is running, if any
#: (set by :meth:`ProgramMemo.active`); :func:`evaluate_block` consults it.
_ACTIVE_PROGRAMS: ContextVar[Optional["ProgramMemo"]] = ContextVar(
    "repro_active_programs", default=None
)


class ProgramMemo:
    """Scheduled block programs of one session, shared by structure.

    :meth:`BlockScheduler.build` reads the workload, the chip count, the
    group size, the chip model except its cluster clock, the kernel
    library and the prefetch accounting — nothing else.  Link bandwidth,
    link energy and the clock only *price* a program, in the simulator
    and the energy model, so design points differing only in them share
    one program: built once, then rebound to each caller's platform
    (:meth:`BlockScheduler.rebind`).  A program served more than once
    also shares its compiled simulator sweep (:mod:`repro.sim.fastpath`)
    across its rebinds; one served once keeps none.

    The memo also holds the per-chip blocks of the weight-replicated
    baseline (:meth:`replicated_block`), which depend on the workload,
    the rows each chip processes and the chip model only.

    A :class:`~repro.api.Session` owns one memo and activates it around
    each engine call.  It lives in memory only and is never persisted.
    """

    def __init__(self) -> None:
        self._programs: Dict[str, BlockProgram] = {}
        self._replicated: Dict[str, tuple] = {}
        # id(chip) -> (chip, the chip at a neutral clock).  Holding the
        # chip keeps its id from being reused while the entry exists.
        self._unpriced: Dict[int, Tuple[ChipModel, ChipModel]] = {}

    def __len__(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        """Forget every program and block, and drop each compiled sweep."""
        for program in self._programs.values():
            holder = program.__dict__.get("_compiled_sweep")
            if holder is not None:
                holder[0] = None
        self._programs.clear()
        self._replicated.clear()
        self._unpriced.clear()

    @contextmanager
    def active(self) -> Iterator["ProgramMemo"]:
        """Make :func:`evaluate_block` consult this memo inside the block."""
        token = _ACTIVE_PROGRAMS.set(self)
        try:
            yield self
        finally:
            _ACTIVE_PROGRAMS.reset(token)

    def program(self, scheduler: BlockScheduler, workload: Workload) -> BlockProgram:
        """``scheduler.build(workload)``, built once per structure."""
        from ..api.session import content_hash  # repro.api imports this module

        platform = scheduler.platform
        key = content_hash(
            workload,
            platform.num_chips,
            platform.group_size,
            self._unpriced_chip(platform.chip),
            scheduler.kernel_library,
            scheduler.prefetch_accounting,
        )
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = scheduler.build(workload)
            return program
        if "_compiled_sweep" not in program.__dict__:
            # Reused: the first price fills the slot, rebinds share it.
            object.__setattr__(program, "_compiled_sweep", [None])
        return scheduler.rebind(program, workload)

    def replicated_block(
        self,
        workload: Workload,
        rows_per_chip: int,
        chip: ChipModel,
        build: Callable[[Workload, int, ChipModel], tuple],
    ) -> tuple:
        """``build(workload, rows_per_chip, chip)``, built once per input."""
        from ..api.session import content_hash  # repro.api imports this module

        key = content_hash(workload, rows_per_chip, chip)
        block = self._replicated.get(key)
        if block is None:
            block = self._replicated[key] = build(workload, rows_per_chip, chip)
        return block

    def _unpriced_chip(self, chip: ChipModel) -> ChipModel:
        entry = self._unpriced.get(id(chip))
        if entry is None:
            unpriced = replace(chip, cluster=replace(chip.cluster, frequency_hz=1.0))
            entry = self._unpriced[id(chip)] = (chip, unpriced)
        return entry[1]


def active_program_memo() -> Optional[ProgramMemo]:
    """The program memo of the session whose engine call is running, if any."""
    return _ACTIVE_PROGRAMS.get()


def evaluate_block(
    workload: Workload,
    platform: MultiChipPlatform,
    *,
    kernel_library: Optional[KernelLibrary] = None,
    prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN,
    record_events: bool = False,
    energy_model: Optional[EnergyModel] = None,
) -> BlockReport:
    """Partition, schedule, simulate, and measure one Transformer block.

    Args:
        workload: The model/mode/sequence-length combination to evaluate.
        platform: The multi-chip platform to run on.
        kernel_library: Optional custom kernel cost models.
        prefetch_accounting: How double-buffered weight prefetches are
            charged to runtime (the paper's accounting is ``HIDDEN``).
        record_events: Keep per-step trace events for debugging.
        energy_model: Optional custom energy model; defaults to the paper's
            analytical model on ``platform``.

    Returns:
        A :class:`BlockReport` with runtime, energy, and placement details.
    """
    scheduler = BlockScheduler(
        platform=platform,
        kernel_library=kernel_library,
        prefetch_accounting=prefetch_accounting,
    )
    programs = _ACTIVE_PROGRAMS.get()
    program = (
        scheduler.build(workload)
        if programs is None
        else programs.program(scheduler, workload)
    )
    simulation = simulate_block(program, record_events=record_events)
    if energy_model is None:
        energy_model = EnergyModel(platform)
    energy = energy_model.from_simulation(simulation)
    return BlockReport(
        workload=workload,
        platform=platform,
        program=program,
        simulation=simulation,
        energy=energy,
    )
