"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import heapq
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine, Join, Now, Sleep, Spawn
from repro.sim.fluid import FluidOp, UniformRateModel


def make_engine(rate: float = 1.0) -> Engine:
    return Engine(UniformRateModel(rate))


class TestSleep:
    def test_sleep_advances_clock(self):
        engine = make_engine()

        def proc():
            yield Sleep(2.5)
            return (yield Now())

        assert engine.run_process(proc()) == pytest.approx(2.5)

    def test_sleep_zero_is_allowed(self):
        engine = make_engine()

        def proc():
            yield Sleep(0.0)
            return "done"

        assert engine.run_process(proc()) == "done"
        assert engine.now == 0.0

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-1.0)

    def test_sleeps_interleave_in_time_order(self):
        engine = make_engine()
        log = []

        def sleeper(delay, label):
            yield Sleep(delay)
            log.append(label)

        engine.spawn(sleeper(3.0, "c"))
        engine.spawn(sleeper(1.0, "a"))
        engine.spawn(sleeper(2.0, "b"))
        engine.run()
        assert log == ["a", "b", "c"]


class TestFluidOps:
    def test_op_duration_is_work_over_rate(self):
        engine = make_engine(rate=4.0)

        def proc():
            yield FluidOp(8.0, kind="cpu")

        engine.run_process(proc())
        assert engine.now == pytest.approx(2.0)

    def test_zero_work_op_completes_instantly(self):
        engine = make_engine()

        def proc():
            op = FluidOp(0.0, kind="cpu")
            result = yield op
            return result

        op = engine.run_process(proc())
        assert op.finished_at == 0.0
        assert engine.now == 0.0

    def test_on_complete_transforms_resume_value(self):
        engine = make_engine()

        def proc():
            op = FluidOp(1.0, kind="cpu")
            op.on_complete = lambda o: "payload"
            return (yield op)

        assert engine.run_process(proc()) == "payload"

    def test_concurrent_ops_share_time_axis(self):
        # Two ops at the same uniform rate run in parallel, not serially.
        engine = make_engine(rate=1.0)

        def worker():
            yield FluidOp(5.0, kind="cpu")

        engine.spawn(worker())
        engine.spawn(worker())
        engine.run()
        assert engine.now == pytest.approx(5.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            FluidOp(-1.0, kind="cpu")

    def test_duration_before_completion_raises(self):
        op = FluidOp(1.0, kind="cpu")
        with pytest.raises(SimulationError):
            _ = op.duration


class TestSpawnJoin:
    def test_join_returns_child_result(self):
        engine = make_engine()

        def child():
            yield Sleep(1.0)
            return 42

        def parent():
            proc = yield Spawn(child())
            result = yield Join(proc)
            return result

        assert engine.run_process(parent()) == 42

    def test_join_list_preserves_argument_order(self):
        engine = make_engine()

        def child(delay, value):
            yield Sleep(delay)
            return value

        def parent():
            procs = []
            for delay, value in [(3.0, "slow"), (1.0, "fast")]:
                procs.append((yield Spawn(child(delay, value))))
            return (yield Join(procs))

        assert engine.run_process(parent()) == ["slow", "fast"]

    def test_join_already_finished_process(self):
        engine = make_engine()

        def child():
            return "early"
            yield  # pragma: no cover

        def parent():
            proc = yield Spawn(child())
            yield Sleep(1.0)
            return (yield Join(proc))

        assert engine.run_process(parent()) == "early"

    def test_join_empty_list(self):
        engine = make_engine()

        def parent():
            results = yield Join([])
            return results

        assert engine.run_process(parent()) == []


class TestRunSemantics:
    def test_run_until_stops_at_target_despite_background(self):
        engine = make_engine()

        def background():
            while True:
                yield Sleep(0.5)

        def fg():
            yield Sleep(2.0)
            return "fg-done"

        engine.spawn(background())
        proc = engine.spawn(fg())
        assert engine.run_until(proc) == "fg-done"
        assert engine.now == pytest.approx(2.0)

    def test_run_reports_final_time(self):
        engine = make_engine()

        def proc():
            yield Sleep(1.5)

        engine.spawn(proc())
        assert engine.run() == pytest.approx(1.5)

    def test_empty_engine_run_is_noop(self):
        engine = make_engine()
        assert engine.run() == 0.0

    def test_exception_in_process_propagates(self):
        engine = make_engine()

        def bad():
            yield Sleep(1.0)
            raise RuntimeError("boom")

        engine.spawn(bad())
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()

    def test_unsupported_command_raises(self):
        engine = make_engine()

        def proc():
            yield "not-a-command"

        engine.spawn(proc())
        with pytest.raises(SimulationError, match="unsupported command"):
            engine.run()

    def test_call_at_runs_function_at_time(self):
        engine = make_engine()
        fired = []
        engine.call_at(3.0, lambda: fired.append(engine.now))

        def proc():
            yield Sleep(5.0)

        engine.run_process(proc())
        assert fired == [pytest.approx(3.0)]

    def test_call_at_in_past_rejected(self):
        engine = make_engine()

        def proc():
            yield Sleep(1.0)

        engine.run_process(proc())
        with pytest.raises(SimulationError):
            engine.call_at(0.5, lambda: None)


NON_FINITE = pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)


class TestNonFiniteTimes:
    """NaN compares False both ways, so ``dt < 0`` let it through; an
    infinite time or amount of work can never be reached.  Each is
    rejected where it enters, naming the value."""

    @NON_FINITE
    def test_sleep_rejects(self, value):
        with pytest.raises(ValueError, match=str(value)):
            Sleep(value)

    @NON_FINITE
    def test_process_yielding_a_non_finite_sleep_fails_at_the_yield(self, value):
        engine = make_engine()

        def proc():
            yield Sleep(value)

        engine.spawn(proc())
        with pytest.raises(ValueError, match=str(value)):
            engine.run()

    @NON_FINITE
    def test_call_at_rejects(self, value):
        engine = make_engine()
        with pytest.raises(SimulationError, match=str(value)):
            engine.call_at(value, lambda: None)

    @NON_FINITE
    def test_fluid_op_rejects_non_finite_work(self, value):
        with pytest.raises(ValueError, match=str(value)):
            FluidOp(value, kind="cpu")

    def test_a_bad_event_time_is_a_simulation_error(self):
        """The clock's own guard, for a time that bypassed validation."""
        engine = make_engine()
        heapq.heappush(engine._heap, (float("nan"), -1, lambda: None))
        with pytest.raises(SimulationError, match="nan"):
            engine.run()

    def test_rejected_under_python_O(self):
        """``-O`` strips ``assert``: the run must still end, with the error."""
        script = (
            "from repro.sim.engine import Engine, Sleep\n"
            "from repro.sim.fluid import UniformRateModel\n"
            "engine = Engine(UniformRateModel(1.0))\n"
            "def proc():\n"
            "    yield Sleep(float('nan'))\n"
            "engine.spawn(proc())\n"
            "try:\n"
            "    engine.run()\n"
            "except ValueError as err:\n"
            "    print('rejected:', err)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("rejected:") and "nan" in done.stdout


class TestDeadlockDetection:
    def test_all_ops_stalled_at_zero_rate_deadlocks(self):
        class StallModel(UniformRateModel):
            def assign(self, ops):
                return {op: 0.0 for op in ops}

        stalled = Engine(StallModel(1.0))

        def proc():
            yield FluidOp(1.0, kind="cpu")

        stalled.spawn(proc())
        with pytest.raises(DeadlockError):
            stalled.run()

    def test_run_until_raises_when_engine_runs_dry(self):
        engine = make_engine()

        def fg():
            yield Sleep(1.0)
            return "done"

        def never_spawned_target():
            yield Sleep(1.0)

        target = engine.spawn(fg())
        engine.run_until(target)  # fine
        # A fresh process object that is never spawned cannot finish.
        from repro.sim.engine import Process

        orphan = Process(never_spawned_target(), "orphan", 999)
        with pytest.raises(DeadlockError):
            engine.run_until(orphan)
