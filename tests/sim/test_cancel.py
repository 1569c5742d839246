"""Unit tests for process-tree cancellation (speculative loser teardown)."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, Join, Now, Sleep, Spawn
from repro.sim.fluid import FluidOp, UniformRateModel


def make_engine(rate: float = 1.0) -> Engine:
    return Engine(UniformRateModel(rate))


class TestCancelTree:
    def test_cancelled_join_resumes_with_none(self):
        engine = make_engine()

        def worker():
            yield FluidOp(100.0, kind="cpu")
            return "never"

        def driver():
            proc = yield Spawn(worker())
            yield Sleep(1.0)
            engine.cancel_tree(proc)
            result = yield Join(proc)
            return (proc.cancelled, result)

        cancelled, result = engine.run_process(driver())
        assert cancelled is True
        assert result is None

    def test_children_are_cancelled_recursively(self):
        engine = make_engine()
        reached = []

        def leaf(label):
            yield FluidOp(100.0, kind="cpu")
            reached.append(label)

        def parent():
            yield Spawn(leaf("a"))
            yield Spawn(leaf("b"))
            yield FluidOp(100.0, kind="cpu")
            reached.append("parent")

        def driver():
            proc = yield Spawn(parent())
            yield Sleep(1.0)
            engine.cancel_tree(proc)
            yield Sleep(200.0)

        engine.run_process(driver())
        assert reached == []

    def test_cancel_counts_in_scheduler(self):
        engine = make_engine()

        def worker():
            yield FluidOp(100.0, kind="cpu")

        def driver():
            proc = yield Spawn(worker())
            yield Sleep(1.0)
            engine.cancel_tree(proc)

        engine.run_process(driver())
        assert engine.fluid.ops_cancelled == 1

    def test_cancel_settles_partial_progress_first(self):
        engine = make_engine(rate=2.0)
        intervals = []
        engine.fluid.interval_observers.append(
            lambda t0, t1, ops: intervals.append(
                sum(op.rate * (t1 - t0) for op in ops)
            )
        )

        def worker():
            yield FluidOp(100.0, kind="cpu")

        def driver():
            proc = yield Spawn(worker())
            yield Sleep(3.0)
            engine.cancel_tree(proc)

        engine.run_process(driver())
        # 3 seconds at rate 2.0 were physically done before the cancel
        # and must be charged, nothing more.
        assert sum(intervals) == pytest.approx(6.0)

    def test_cancelling_done_process_is_noop(self):
        engine = make_engine()

        def worker():
            yield Sleep(1.0)
            return 7

        def driver():
            proc = yield Spawn(worker())
            result = yield Join(proc)
            engine.cancel_tree(proc)
            return (result, proc.cancelled)

        result, cancelled = engine.run_process(driver())
        assert result == 7
        assert cancelled is False

    def test_survivors_speed_up_after_cancel(self):
        engine = make_engine(rate=1.0)

        def worker(work):
            yield FluidOp(work, kind="cpu")

        def driver():
            # Uniform model: each op gets rate 1.0 regardless of
            # population, so completion time == its own work; the point
            # here is that the survivor still completes after a sibling
            # cancel (no heap corruption, no lost wakeup).
            a = yield Spawn(worker(10.0))
            b = yield Spawn(worker(4.0))
            yield Sleep(1.0)
            engine.cancel_tree(a)
            yield Join(b)
            return (yield Now())

        assert engine.run_process(driver()) == pytest.approx(4.0)


class TestCancelHookEvents:
    """Cancellation is a *final* event: every observer attached to the
    engine must see the coroutine retire, or its bookkeeping leaks."""

    def _engine_with_sanitizer(self):
        from repro.analysis.sanitizer import SimSanitizer

        engine = make_engine()
        sanitizer = SimSanitizer(trace=True)
        engine.probes.install(sanitizer)
        return engine, sanitizer

    def test_sanitizer_waits_entry_dropped_on_cancel(self):
        from repro.sim.primitives import Semaphore

        engine, sanitizer = self._engine_with_sanitizer()
        sem = Semaphore(engine, count=0, name="never")

        def stuck():
            yield sem.acquire()

        def driver():
            proc = yield Spawn(stuck(), name="stuck")
            yield Sleep(1.0)
            assert proc.pid in sanitizer.waits  # parked and tracked
            engine.cancel_tree(proc)
            assert proc.pid not in sanitizer.waits  # retired, not leaked

        engine.run_process(driver())
        assert sanitizer.waits == {}

    def test_sanitizer_trace_records_cancel(self):
        engine, sanitizer = self._engine_with_sanitizer()

        def worker():
            yield FluidOp(100.0, kind="cpu")

        def driver():
            proc = yield Spawn(worker(), name="victim")
            yield Sleep(1.0)
            engine.cancel_tree(proc)

        engine.run_process(driver())
        cancels = [e for e in sanitizer.trace if e[0] == "cancel"]
        assert [name for _, _, name in cancels] == ["victim"]

    def test_race_clock_retired_on_cancel(self):
        from repro.analysis.race import RaceDetector

        engine = make_engine()
        det = RaceDetector()
        engine.probes.install(det)

        def worker():
            yield FluidOp(100.0, kind="cpu")

        def driver():
            proc = yield Spawn(worker(), name="victim")
            yield Sleep(1.0)
            assert proc.pid in det._clocks
            engine.cancel_tree(proc)
            assert proc.pid not in det._clocks
            assert proc.pid in det._final_clocks

        engine.run_process(driver())

    def test_cancel_blocked_on_primitive_with_both_observers(self):
        from repro.analysis.race import RaceDetector
        from repro.sim.primitives import Semaphore

        engine, sanitizer = self._engine_with_sanitizer()
        det = RaceDetector()
        engine.probes.install(det)
        sem = Semaphore(engine, 0, name="empty")

        def acquirer():
            yield sem.acquire()

        def driver():
            proc = yield Spawn(acquirer(), name="acquirer")
            yield Sleep(1.0)
            engine.cancel_tree(proc)
            yield Sleep(1.0)

        engine.run_process(driver())
        assert sanitizer.waits == {}
        assert det._clocks == {} or all(
            pid in det._final_clocks for pid in det._clocks
        )

    def test_join_after_cancel_merges_final_clock(self):
        # Join on a cancelled child must find its final clock (the
        # on_cancel path), not KeyError on a live-clock lookup.
        from repro.analysis.race import RaceDetector

        engine = make_engine()
        det = RaceDetector()
        engine.probes.install(det)

        def worker():
            yield FluidOp(100.0, kind="cpu")

        def driver():
            proc = yield Spawn(worker(), name="victim")
            yield Sleep(1.0)
            engine.cancel_tree(proc)
            result = yield Join(proc)
            return result

        assert engine.run_process(driver()) is None
