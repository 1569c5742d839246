"""Unit tests for the simulated-thread semaphore."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, Sleep
from repro.sim.fluid import UniformRateModel
from repro.sim.primitives import Semaphore


@pytest.fixture
def engine():
    return Engine(UniformRateModel(1.0))


class TestSemaphore:
    def test_acquire_available_does_not_block(self, engine):
        sem = Semaphore(engine, count=1)

        def proc():
            yield sem.acquire()
            return engine.now

        assert engine.run_process(proc()) == 0.0
        assert sem.value == 0

    def test_acquire_blocks_until_release(self, engine):
        sem = Semaphore(engine, count=0)
        log = []

        def waiter():
            yield sem.acquire()
            log.append(("acquired", engine.now))

        def releaser():
            yield Sleep(2.0)
            sem.release()

        engine.spawn(waiter())
        engine.spawn(releaser())
        engine.run()
        assert log == [("acquired", 2.0)]

    def test_waiters_served_fifo(self, engine):
        sem = Semaphore(engine, count=0)
        order = []

        def waiter(label):
            yield sem.acquire()
            order.append(label)

        def releaser():
            for _ in range(3):
                yield Sleep(1.0)
                sem.release()

        engine.spawn(waiter("first"))
        engine.spawn(waiter("second"))
        engine.spawn(waiter("third"))
        engine.spawn(releaser())
        engine.run()
        assert order == ["first", "second", "third"]

    def test_release_without_waiters_increments(self, engine):
        sem = Semaphore(engine, count=0)
        sem.release()
        assert sem.value == 1

    def test_negative_count_rejected(self, engine):
        with pytest.raises(ValueError):
            Semaphore(engine, count=-1)
