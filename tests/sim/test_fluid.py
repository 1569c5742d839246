"""Unit and property tests for the fluid scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Join, Spawn
from repro.sim.fluid import FluidOp, FluidScheduler, UniformRateModel


class TestScheduler:
    def test_settle_debits_work(self):
        sched = FluidScheduler(UniformRateModel(2.0))
        op = FluidOp(10.0, kind="cpu")
        sched.add(op, now=0.0)
        sched.rerate(0.0)
        sched.settle(3.0)
        assert op.remaining == pytest.approx(4.0)

    def test_next_completion_uses_current_rates(self):
        sched = FluidScheduler(UniformRateModel(5.0))
        op = FluidOp(10.0, kind="cpu")
        sched.add(op, now=0.0)
        sched.rerate(0.0)
        assert sched.next_completion(0.0) == pytest.approx(2.0)

    def test_pop_completed_tolerates_float_residue(self):
        sched = FluidScheduler(UniformRateModel(3.0))
        op = FluidOp(1.0, kind="cpu")
        sched.add(op, now=0.0)
        sched.rerate(0.0)
        sched.settle(1.0 / 3.0)  # leaves ~1e-17 residue
        done = sched.pop_completed(1.0 / 3.0)
        assert done == [op]
        assert op.remaining == 0.0

    def test_time_going_backwards_raises(self):
        from repro.errors import SimulationError

        sched = FluidScheduler(UniformRateModel(1.0))
        sched.settle(5.0)
        with pytest.raises(SimulationError):
            sched.settle(4.0)

    def test_interval_observers_see_active_ops(self):
        sched = FluidScheduler(UniformRateModel(1.0))
        seen = []
        sched.interval_observers.append(lambda t0, t1, ops: seen.append((t0, t1, len(ops))))
        op = FluidOp(2.0, kind="cpu")
        sched.add(op, now=0.0)
        sched.rerate(0.0)
        sched.settle(2.0)
        assert seen == [(0.0, 2.0, 1)]

    def test_global_observers_run_after_group_observers(self):
        # Per-op groups (UniformRateModel); issued out of creation order.
        sched = FluidScheduler(UniformRateModel(1.0))
        first, second = FluidOp(4.0, kind="cpu"), FluidOp(2.0, kind="cpu")
        calls = []
        for op in (second, first):
            sched.observe_group(
                op.seq, lambda t0, t1, ops: calls.append(("group", list(ops)))
            )
            sched.add(op, now=0.0)
        sched.interval_observers.append(
            lambda t0, t1, ops: calls.append(("global", list(ops)))
        )
        sched.rerate(0.0)
        sched.settle(1.0)
        assert [kind for kind, _ops in calls] == ["group", "group", "global"]
        assert calls[-1][1] == [first, second]  # still issue (op id) order

    def test_global_observer_sees_the_epochs_statistics_row(self):
        from repro.machine import Machine

        machine = Machine()
        rows = []
        machine.engine.fluid.interval_observers.append(
            lambda t0, t1, ops: rows.append(
                (machine.stats.timeline[-1], t0, t1, ops[0].rate)
            )
        )

        def body():
            yield machine.compute(1e-3, tag="c", cores=2)

        machine.run(body(), name="body")
        assert len(rows) == len(machine.stats.timeline) == 1
        (row_t0, row_t1, _read, _write, cores), t0, t1, rate = rows[0]
        assert (row_t0, row_t1, cores) == (t0, t1, rate)


class TestWorkConservation:
    """Property: total simulated time equals work/rate for any op mix."""

    @settings(max_examples=30, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8
        ),
        rate=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_parallel_ops_finish_at_max_work_over_rate(self, works, rate):
        engine = Engine(UniformRateModel(rate))

        def worker(work):
            yield FluidOp(work, kind="cpu")

        def root():
            procs = []
            for work in works:
                procs.append((yield Spawn(worker(work))))
            yield Join(procs)

        engine.run_process(root())
        assert engine.now == pytest.approx(max(works) / rate, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8
        ),
        rate=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_sequential_ops_finish_at_sum_work_over_rate(self, works, rate):
        engine = Engine(UniformRateModel(rate))

        def root():
            for work in works:
                yield FluidOp(work, kind="cpu")

        engine.run_process(root())
        assert engine.now == pytest.approx(sum(works) / rate, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6
        )
    )
    def test_op_durations_are_recorded(self, durations):
        engine = Engine(UniformRateModel(1.0))
        ops = [FluidOp(d, kind="cpu") for d in durations]

        def root():
            for op in ops:
                yield op

        engine.run_process(root())
        for op, d in zip(ops, durations):
            assert op.duration == pytest.approx(d, rel=1e-6)
