"""Unit tests for the oracle's discrete-event kernel (``tests/sim_oracle.py``)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from sim_oracle import Environment


class TestTimeouts:
    def test_single_timeout_advances_clock(self):
        env = Environment()
        done = []

        def process():
            yield env.timeout(10)
            done.append(env.now)

        env.process(process())
        env.run()
        assert done == [10]
        assert env.now == 10

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        times = []

        def process():
            yield env.timeout(5)
            times.append(env.now)
            yield env.timeout(7)
            times.append(env.now)

        env.process(process())
        env.run()
        assert times == [5, 12]

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_timeout_fires_immediately(self):
        env = Environment()
        fired = []

        def process():
            yield env.timeout(0)
            fired.append(env.now)

        env.process(process())
        env.run()
        assert fired == [0]


class TestProcessInteraction:
    def test_processes_run_concurrently(self):
        env = Environment()
        log = []

        def worker(name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        env.process(worker("slow", 20))
        env.process(worker("fast", 5))
        env.run()
        assert log == [(5, "fast"), (20, "slow")]

    def test_process_waits_on_event(self):
        env = Environment()
        gate = env.event("gate")
        log = []

        def waiter():
            value = yield gate
            log.append((env.now, value))

        def opener():
            yield env.timeout(15)
            gate.succeed("open")

        env.process(waiter())
        env.process(opener())
        env.run()
        assert log == [(15, "open")]

    def test_process_can_wait_for_another_process(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(8)
            return "child-result"

        def parent():
            result = yield env.process(child(), name="child")
            log.append((env.now, result))

        env.process(parent())
        env.run()
        assert log == [(8, "child-result")]

    def test_waiting_on_already_processed_event_does_not_deadlock(self):
        env = Environment()
        early = env.event("early")
        early.succeed("done")
        log = []

        def late_waiter():
            yield env.timeout(5)
            value = yield early
            log.append((env.now, value))

        env.process(late_waiter())
        env.run()
        assert log == [(5, "done")]

    def test_yielding_non_event_raises(self):
        env = Environment()

        def broken():
            yield 42

        env.process(broken())
        with pytest.raises(SimulationError, match="must\\s+yield Event|yield Event"):
            env.run()


class TestEvents:
    def test_event_cannot_trigger_twice(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_all_of_waits_for_every_event(self):
        env = Environment()
        log = []
        first = env.timeout(3)
        second = env.timeout(9)

        def waiter():
            yield env.all_of([first, second])
            log.append(env.now)

        env.process(waiter())
        env.run()
        assert log == [9]

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        log = []

        def waiter():
            yield env.all_of([])
            log.append(env.now)

        env.process(waiter())
        env.run()
        assert log == [0]


class TestRunControl:
    def test_run_until_stops_early(self):
        env = Environment()
        log = []

        def process():
            yield env.timeout(100)
            log.append(env.now)

        env.process(process())
        env.run(until=50)
        assert log == []
        assert env.now == 50
        assert env.pending_events == 1
        env.run()
        assert log == [100]

    def test_run_until_in_the_past_rejected(self):
        env = Environment()
        env.timeout(5)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_determinism_of_simultaneous_events(self):
        """Events scheduled for the same time fire in scheduling order."""

        def run_once():
            env = Environment()
            order = []

            def worker(name):
                yield env.timeout(10)
                order.append(name)

            for name in ("a", "b", "c", "d"):
                env.process(worker(name))
            env.run()
            return order

        assert run_once() == run_once() == ["a", "b", "c", "d"]
