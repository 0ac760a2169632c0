"""Per-chip execution schedules.

A *schedule* is the ordered list of steps one chip executes for one
Transformer block: kernel invocations, blocking DMA loads, background
prefetches, and the point-to-point messages that make up the two
synchronisations.  Schedules are produced by
:class:`repro.core.scheduler.BlockScheduler` and executed by the
block simulator in :mod:`repro.sim`, which turns them into runtime,
a runtime breakdown, and per-memory-level traffic counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform
from ..interning import shared_rows
from .partition import BlockPartition
from .placement import MemoryPlan, PrefetchAccounting

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.library import KernelLibrary


class RuntimeCategory(str, enum.Enum):
    """Breakdown categories matching Fig. 4 of the paper."""

    COMPUTE = "compute"
    DMA_L3_L2 = "dma_l3_l2"
    DMA_L2_L1 = "dma_l2_l1"
    CHIP_TO_CHIP = "chip_to_chip"
    IDLE = "idle"


class DmaChannelName(str, enum.Enum):
    """The two DMA channels of a chip."""

    L3_L2 = "l3_l2"
    L2_L1 = "l2_l1"


@dataclass(frozen=True)
class Step:
    """Base class of all schedule steps."""

    name: str


@dataclass(frozen=True)
class ComputeStep(Step):
    """A kernel invocation on the cluster.

    Attributes:
        compute_cycles: Cluster-busy cycles of the kernel.
        l2_l1_bytes: Bytes the cluster DMA moves between L2 and L1 for this
            kernel (operands, results, and one weight pass).
        overlap_dma: Whether the L2<->L1 staging is double-buffered with the
            computation (true when weights are on-chip resident) or
            serialised with it (the streamed regime).
    """

    compute_cycles: float
    l2_l1_bytes: float = 0.0
    overlap_dma: bool = True

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.l2_l1_bytes < 0:
            raise SchedulingError(f"step {self.name!r} has negative cost")


@dataclass(frozen=True)
class DmaStep(Step):
    """A blocking DMA transfer (the chip waits for completion).

    Attributes:
        channel: Which DMA channel the transfer uses.
        num_bytes: Transfer size.
        num_transfers: Number of separately-programmed transfers (each pays
            the channel's setup cost).
    """

    channel: DmaChannelName
    num_bytes: float
    num_transfers: int = 1

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise SchedulingError(f"step {self.name!r} has negative size")
        if self.num_transfers <= 0:
            raise SchedulingError(f"step {self.name!r} needs >= 1 transfers")


@dataclass(frozen=True)
class PrefetchStep(Step):
    """A background L3->L2 prefetch of the next block's weight slice.

    The prefetch starts when the step is reached and runs concurrently with
    later steps.  Whether its completion is awaited (and the exposed part
    charged to runtime) depends on the prefetch accounting policy, realised
    by emitting (or omitting) a :class:`PrefetchJoinStep` at the end of the
    schedule.
    """

    num_bytes: float

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise SchedulingError(f"step {self.name!r} has negative size")


@dataclass(frozen=True)
class PrefetchJoinStep(Step):
    """Wait for all outstanding prefetches issued by this chip."""


@dataclass(frozen=True)
class SendStep(Step):
    """Send a message to another chip over the chip-to-chip link.

    Attributes:
        dst: Receiving chip id.
        num_bytes: Payload size.
        tag: Rendezvous tag; the receiver's matching :class:`RecvStep` must
            use the same tag.
    """

    dst: int
    num_bytes: int
    tag: str

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise SchedulingError(f"step {self.name!r} has negative size")


@dataclass(frozen=True)
class RecvStep(Step):
    """Receive a message from another chip.

    Attributes:
        src: Sending chip id.
        num_bytes: Expected payload size.
        tag: Rendezvous tag matching the sender's :class:`SendStep`.
    """

    src: int
    num_bytes: int
    tag: str

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise SchedulingError(f"step {self.name!r} has negative size")


@dataclass(frozen=True)
class ChipSchedule:
    """The ordered steps one chip executes for one block."""

    chip_id: int
    steps: Tuple[Step, ...]

    @property
    def num_steps(self) -> int:
        """Number of steps in the schedule."""
        return len(self.steps)

    def steps_of_type(self, step_type) -> List[Step]:
        """Return all steps of a given type, in order."""
        return [step for step in self.steps if isinstance(step, step_type)]


@dataclass(frozen=True)
class BlockProgram:
    """Everything needed to simulate one Transformer block on the platform.

    Attributes:
        workload: The workload the program was built for.
        platform: The multi-chip platform it targets.
        partition: The tensor-parallel partition of the block.
        memory_plans: Per-chip weight-placement decisions.
        schedules: Per-chip step schedules (keyed by chip id).
        prefetch_accounting: The prefetch runtime-accounting policy used.
        kernel_library: The custom kernel cost models the schedules were
            priced with, or ``None`` for the platform's default (kept so
            pickled programs can rebuild their schedules).
    """

    workload: Workload
    platform: MultiChipPlatform
    partition: BlockPartition
    memory_plans: Dict[int, MemoryPlan] = field(default_factory=dict)
    schedules: Dict[int, ChipSchedule] = field(default_factory=dict)
    prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN
    kernel_library: Optional["KernelLibrary"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        expected = set(range(self.platform.num_chips))
        if set(self.schedules) != expected:
            raise SchedulingError(
                "program must contain exactly one schedule per platform chip"
            )
        if set(self.memory_plans) != expected:
            raise SchedulingError(
                "program must contain exactly one memory plan per platform chip"
            )
        self._validate_messaging()

    def _validate_messaging(self) -> None:
        """Check that every send has exactly one matching receive."""
        sends: Dict[Tuple[int, int, str], int] = {}
        recvs: Dict[Tuple[int, int, str], int] = {}
        for chip_id, schedule in self.schedules.items():
            for step in schedule.steps:
                if isinstance(step, SendStep):
                    key = (chip_id, step.dst, step.tag)
                    sends[key] = sends.get(key, 0) + 1
                elif isinstance(step, RecvStep):
                    key = (step.src, chip_id, step.tag)
                    recvs[key] = recvs.get(key, 0) + 1
        if sends != recvs:
            unmatched_sends = {k: v for k, v in sends.items() if recvs.get(k) != v}
            unmatched_recvs = {k: v for k, v in recvs.items() if sends.get(k) != v}
            raise SchedulingError(
                "unmatched chip-to-chip messages: "
                f"sends without receives {unmatched_sends}, "
                f"receives without sends {unmatched_recvs}"
            )

    # ------------------------------------------------------------------
    # Compact pickling
    # ------------------------------------------------------------------
    # The step schedules dominate a pickled program (tens of kilobytes of
    # small step objects on large systems).  When the program was built
    # by the scheduler (which marks it — see BlockScheduler.build) they
    # are a pure deterministic function of the remaining fields, so they
    # are dropped from the pickle and rebuilt on first access; hand-built
    # programs keep their schedules verbatim.  The per-chip memory plans
    # are flattened to ``(chip id, value row)`` pairs, chips with equal
    # plans sharing one row, and rebuilt in one batch.  This is what
    # keeps the persistent evaluation cache (`repro.api.cache`) and
    # process-pool result transfers cheap.  A compiled simulator sweep
    # (see `repro.sim.fastpath`) is in-memory reuse state and is dropped.
    # The two markers always go last, in one order, so an unpickled
    # program pickles to the same bytes as the program it came from.
    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state.pop("_compiled_sweep", None)
        packed = state.pop("_packed_memory_plans", None)
        if state.pop("_schedules_are_canonical", False):
            state.pop("schedules", None)
            state["_schedules_are_canonical"] = True
        plans = state.pop("memory_plans", None)
        if plans is not None:
            rows = shared_rows(
                (
                    plan.residency,
                    plan.l2_budget_bytes,
                    plan.required_bytes,
                    plan.block_weight_bytes,
                    plan.l3_weight_bytes_per_block,
                )
                for plan in plans.values()
            )
            packed = tuple(zip((plan.chip_id for plan in plans.values()), rows))
        if packed is not None:
            state["_packed_memory_plans"] = packed
        return state

    def __getattr__(self, name: str):
        if name == "schedules":
            from .scheduler import BlockScheduler

            scheduler = BlockScheduler(
                platform=self.platform,
                kernel_library=self.kernel_library,
                prefetch_accounting=self.prefetch_accounting,
            )
            rebuilt = scheduler.build(self.workload, self.partition).schedules
            object.__setattr__(self, "schedules", rebuilt)
            return rebuilt
        if name == "memory_plans":
            packed = self.__dict__.get("_packed_memory_plans")
            if packed is not None:
                plans = {}
                for chip_id, (residency, budget, required, block, l3) in packed:
                    plan = MemoryPlan.__new__(MemoryPlan)
                    plan.__dict__.update(
                        chip_id=chip_id,
                        residency=residency,
                        l2_budget_bytes=budget,
                        required_bytes=required,
                        block_weight_bytes=block,
                        l3_weight_bytes_per_block=l3,
                    )
                    plans[chip_id] = plan
                object.__setattr__(self, "memory_plans", plans)
                return plans
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def chip_ids(self) -> List[int]:
        """Chip ids covered by the program, in order."""
        return sorted(self.schedules)

    def schedule(self, chip_id: int) -> ChipSchedule:
        """Return the schedule of one chip."""
        if chip_id not in self.schedules:
            raise SchedulingError(f"no schedule for chip {chip_id}")
        return self.schedules[chip_id]

    def memory_plan(self, chip_id: int) -> MemoryPlan:
        """Return the memory plan of one chip."""
        if chip_id not in self.memory_plans:
            raise SchedulingError(f"no memory plan for chip {chip_id}")
        return self.memory_plans[chip_id]

    @property
    def total_c2c_bytes(self) -> int:
        """Total chip-to-chip payload bytes of the program."""
        total = 0
        for schedule in self.schedules.values():
            for step in schedule.steps:
                if isinstance(step, SendStep):
                    total += step.num_bytes
        return total
