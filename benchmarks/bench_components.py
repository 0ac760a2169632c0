"""Micro-benchmarks of the library's own components.

These measure the tooling itself (partitioner, scheduler, the event-engine
oracle the block simulator is checked against, numerical verification)
rather than the modelled hardware, so regressions in the reproduction's
performance are caught early.  Unlike the figure benchmarks these use
several rounds, since the functions are cheap.
"""

from __future__ import annotations

from repro import autoregressive, encoder, mobilebert, partition_block, tinyllama_42m
from repro.core.scheduler import BlockScheduler
from repro.hw.presets import siracusa_platform
from repro.numerics import verify_partition_equivalence
from sim_oracle import MultiChipSimulator


def test_partitioner_throughput(benchmark):
    config = tinyllama_42m()
    result = benchmark(partition_block, config, 8)
    assert result.num_chips == 8


def test_scheduler_throughput(benchmark):
    platform = siracusa_platform(8)
    scheduler = BlockScheduler(platform=platform)
    workload = autoregressive(tinyllama_42m(), 128)
    program = benchmark(scheduler.build, workload)
    assert len(program.schedules) == 8


def test_simulator_throughput(benchmark):
    platform = siracusa_platform(8)
    scheduler = BlockScheduler(platform=platform)
    program = scheduler.build(autoregressive(tinyllama_42m(), 128))

    def simulate():
        return MultiChipSimulator(program=program).run()

    result = benchmark(simulate)
    assert result.total_cycles > 0


def test_simulator_throughput_large_sequence(benchmark):
    platform = siracusa_platform(4)
    scheduler = BlockScheduler(platform=platform)
    program = scheduler.build(encoder(mobilebert(), 268))

    def simulate():
        return MultiChipSimulator(program=program).run()

    result = benchmark(simulate)
    assert result.total_cycles > 0


def test_numerical_verification_throughput(benchmark):
    config = tinyllama_42m()
    report = benchmark.pedantic(
        verify_partition_equivalence,
        kwargs={"config": config, "num_chips": 8, "rows": 4},
        rounds=1,
        iterations=1,
    )
    assert report.is_equivalent(1e-9)
