"""Evaluation engine of the paper's partitioning scheme.

:func:`evaluate_block` takes a workload and a platform, partitions one
Transformer block with the paper's scheme, schedules it, simulates it, and
applies the energy model.  The resulting :class:`BlockReport` carries
everything the examples, benchmarks, and figure harnesses need: runtime,
runtime breakdown, traffic, energy, energy-delay product, and the
weight-residency regime of every chip.

:func:`evaluate_blocks` is the same for one workload on many platforms,
and :func:`evaluate_block` is its one-platform case.  It is the engine of
the simulator-backed strategies in :mod:`repro.api` (``"paper"``,
``"single_chip"``, ``"tensor_parallel"``), which attach its reports to the
one result schema, :class:`~repro.api.EvalResult`.  Evaluate through a
session to get that schema and memoisation::

    from repro.api import Session

    result = Session().run(workload, strategy="paper", chips=8)
    report = result.report
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.placement import PrefetchAccounting, WeightResidency
from ..core.schedule import BlockProgram, RuntimeCategory
from ..core.scheduler import BlockScheduler
from ..energy.model import EnergyModel, EnergyReport
from ..errors import ReproError, detached, value_or_raise
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
#: (set by :meth:`ProgramMemo.active`); :func:`evaluate_blocks` consults it.
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
    (:meth:`BlockScheduler.rebind`).  :meth:`programs` serves every
    platform of one structure from one lookup.  A program served more
    than once also shares its compiled simulator sweep
    (:mod:`repro.sim.fastpath`) across its rebinds; one served once
    keeps none.

    The builds share one step table too: a transfer of a synchronisation
    (stage, collective, round, sender, receiver, payload and the
    accumulation's price) is the same send, receive and accumulate steps
    at every chip count whose reduction tree contains it, so a sweep
    builds each edge once (see :meth:`BlockScheduler._append_transfers`).

    The memo also holds the per-chip blocks of the weight-replicated
    baseline (:meth:`replicated_block`), which depend on the workload,
    the rows each chip processes and the chip model only, and the
    pipeline baseline's stage workloads (:meth:`stage_workload`).

    A :class:`~repro.api.Session` owns one memo and activates it around
    each engine call.  It lives in memory only and is never persisted.
    """

    def __init__(self) -> None:
        self._programs: Dict[str, BlockProgram] = {}
        self._steps: Dict[tuple, tuple] = {}
        self._replicated: Dict[str, tuple] = {}
        # (id(workload), layers per stage) -> (workload, stage workload);
        # id(chip) -> (chip, the chip at a neutral clock).  Holding the
        # keyed object keeps its id from being reused while the entry
        # exists.  Chips equal but for their clock share one neutral
        # chip (``_neutral``), so its identity stands for the structure.
        self._stages: Dict[Tuple[int, int], Tuple[Workload, Workload]] = {}
        self._unpriced: Dict[int, Tuple[ChipModel, ChipModel]] = {}
        self._neutral: Dict[ChipModel, ChipModel] = {}

    def __len__(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        """Forget every table's entries, and drop each compiled sweep."""
        for program in self._programs.values():
            holder = program.__dict__.get("_compiled_sweep")
            if holder is not None:
                holder[0] = None
        self._programs.clear()
        self._steps.clear()
        self._replicated.clear()
        self._stages.clear()
        self._unpriced.clear()
        self._neutral.clear()

    @contextmanager
    def active(self) -> Iterator["ProgramMemo"]:
        """Make :func:`evaluate_blocks` consult this memo inside the block."""
        token = _ACTIVE_PROGRAMS.set(self)
        try:
            yield self
        finally:
            _ACTIVE_PROGRAMS.reset(token)

    def structure(self, platform: MultiChipPlatform) -> Tuple[int, int, int]:
        """What a build reads of ``platform``, as a cheap grouping key.

        Platforms with equal keys share a program for a given workload,
        kernel library and prefetch accounting (see :meth:`programs`).
        """
        return (
            platform.num_chips,
            platform.group_size,
            id(self._unpriced_chip(platform.chip)),
        )

    def programs(
        self, schedulers: Sequence[BlockScheduler], workload: Workload
    ) -> List[BlockProgram]:
        """``scheduler.build(workload)`` for schedulers of one structure.

        One lookup serves them all: the structure is built at most once,
        by the first scheduler, and every other scheduler gets a rebind.
        Raises what the build raises.
        """
        from ..api.session import content_hash  # repro.api imports this module

        first = schedulers[0]
        platform = first.platform
        key = content_hash(
            workload,
            platform.num_chips,
            platform.group_size,
            self._unpriced_chip(platform.chip),
            first.kernel_library,
            first.prefetch_accounting,
        )
        program = self._programs.get(key)
        if program is None:
            first._step_table = self._steps
            program = self._programs[key] = first.build(workload)
            built, rebound = [program], schedulers[1:]
        else:
            built, rebound = [], schedulers
        if rebound and "_compiled_sweep" not in program.__dict__:
            # Reused: the first price fills the slot, rebinds share it.
            object.__setattr__(program, "_compiled_sweep", [None])
        return built + [scheduler.rebind(program, workload) for scheduler in rebound]

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

    def stage_workload(
        self,
        workload: Workload,
        layers_per_stage: int,
        build: Callable[[Workload, int], Workload],
    ) -> Workload:
        """``build(workload, layers_per_stage)``, built once per workload object.

        One stage workload per caller's workload keeps its memoised
        canonical form, so :meth:`program` hashes each stage once.
        """
        key = (id(workload), layers_per_stage)
        entry = self._stages.get(key)
        if entry is None:
            entry = self._stages[key] = (workload, build(workload, layers_per_stage))
        return entry[1]

    def _unpriced_chip(self, chip: ChipModel) -> ChipModel:
        entry = self._unpriced.get(id(chip))
        if entry is None:
            unpriced = replace(chip, cluster=replace(chip.cluster, frequency_hz=1.0))
            unpriced = self._neutral.setdefault(unpriced, unpriced)
            entry = self._unpriced[id(chip)] = (chip, unpriced)
        return entry[1]


def active_program_memo() -> Optional[ProgramMemo]:
    """The program memo of the session whose engine call is running, if any."""
    return _ACTIVE_PROGRAMS.get()


def evaluate_blocks(
    workload: Workload,
    platforms: Sequence[MultiChipPlatform],
    *,
    kernel_library: Optional[KernelLibrary] = None,
    prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN,
    record_events: bool = False,
    energy: Optional[Callable[[MultiChipPlatform], EnergyModel]] = None,
) -> List[Union[BlockReport, ReproError]]:
    """:func:`evaluate_block` of one workload on each of many platforms.

    Under a session's program memo, the platforms of one program
    structure (they differ only in clock and link) share one memo lookup
    and at most one build, or one failed build; each platform is then
    rebound, simulated and priced on its own.  Without a memo every
    platform is built on its own, as :func:`evaluate_block` does.

    Args:
        workload: The model/mode/sequence-length combination to evaluate.
        platforms: The multi-chip platforms to run on.
        kernel_library: Optional custom kernel cost models.
        prefetch_accounting: How double-buffered weight prefetches are
            charged to runtime.
        record_events: Keep per-step trace events for debugging.
        energy: Optional energy-model factory applied to each platform;
            defaults to the paper's analytical model.

    Returns:
        One :class:`BlockReport` per platform, in order; a platform whose
        evaluation failed gets the :class:`ReproError` that
        :func:`evaluate_block` would raise in its place.
    """
    memo = _ACTIVE_PROGRAMS.get()
    structures: Dict[object, List[int]] = {}
    for index, platform in enumerate(platforms):
        key = index if memo is None else memo.structure(platform)
        structures.setdefault(key, []).append(index)
    outcomes: List = [None] * len(platforms)
    for indices in structures.values():
        schedulers = [
            BlockScheduler(
                platform=platforms[index],
                kernel_library=kernel_library,
                prefetch_accounting=prefetch_accounting,
            )
            for index in indices
        ]
        try:
            programs = (
                [schedulers[0].build(workload)]
                if memo is None
                else memo.programs(schedulers, workload)
            )
        except ReproError as error:
            for index in indices:
                outcomes[index] = detached(error)
            continue
        for index, program in zip(indices, programs):
            platform = platforms[index]
            try:
                simulation = simulate_block(program, record_events=record_events)
                model = EnergyModel(platform) if energy is None else energy(platform)
                outcomes[index] = BlockReport(
                    workload=workload,
                    platform=platform,
                    program=program,
                    simulation=simulation,
                    energy=model.from_simulation(simulation),
                )
            except ReproError as error:
                outcomes[index] = detached(error)
    return outcomes


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

    The one-platform case of :func:`evaluate_blocks`.

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
    reports = evaluate_blocks(
        workload,
        (platform,),
        kernel_library=kernel_library,
        prefetch_accounting=prefetch_accounting,
        record_events=record_events,
        energy=None if energy_model is None else lambda _: energy_model,
    )
    return value_or_raise(reports.pop())
