"""Regression tests for the fluid-kernel hot-path overhaul.

Covers the behaviours the incremental re-rating / completion-heap
rewrite must preserve: absolute (not relative) epsilon completion for
very large ops, deterministic FIFO resume order for same-instant
completions, rate redistribution when a peer op drains, and group-local
re-rating for independent ops.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.fluid import FluidOp, FluidScheduler, RateModel, UniformRateModel

GB = 1_000_000_000


class SharedCapacityModel(RateModel):
    """Processor sharing: one capacity split evenly over active ops."""

    def __init__(self, capacity: float):
        self.capacity = capacity

    def assign(self, ops):
        ops = list(ops)
        share = self.capacity / len(ops)
        return {op: share for op in ops}


class GateModel(RateModel):
    """All ops progress at a settable rate (can be dropped to zero)."""

    def __init__(self, rate: float = 1.0):
        self.rate = rate

    def assign(self, ops):
        return {op: self.rate for op in ops}


class TestAbsoluteEpsilon:
    def test_multi_gb_op_not_completed_early(self):
        # 8 GB op at 1 GB/s.  Just before the true finish time ~4 real
        # bytes remain; a relative completion threshold (a fraction of
        # the op's original work) would have declared the op done here.
        sched = FluidScheduler(UniformRateModel(1e9))
        op = FluidOp(8 * GB, kind="io")
        sched.add(op, now=0.0)
        sched.refresh(0.0)
        t_early = (8 * GB - 4) / 1e9
        assert sched.settle_due(t_early) == []
        assert op.remaining == pytest.approx(4.0, rel=1e-6)
        t_done = sched.next_completion(t_early)
        assert t_done == pytest.approx(8.0)
        assert sched.settle_due(t_done) == [op]
        assert op.finished_at == pytest.approx(8.0)

    def test_engine_times_multi_gb_op_exactly(self):
        engine = Engine(UniformRateModel(1e9))

        def job():
            op = FluidOp(8 * GB, kind="io")
            yield op
            return op.finished_at

        finished_at = engine.run_process(job())
        assert finished_at == pytest.approx(8.0, rel=1e-12)

    def test_stalled_op_with_float_residue_completes(self):
        # An op whose rate drops to zero with only floating-point
        # residue left must be rescued by the absolute epsilon instead
        # of deadlocking the scheduler.
        model = GateModel(1.0)
        sched = FluidScheduler(model)
        op = FluidOp(1.0, kind="cpu")
        sched.add(op, now=0.0)
        sched.refresh(0.0)
        t = 1.0 - 1e-13
        sched.settle(t)
        assert 0 < op.remaining < 1e-12
        model.rate = 0.0
        # Dirty the shared group so the zero rate takes effect.
        other = FluidOp(5.0, kind="cpu")
        sched.add(other, now=t)
        assert op in sched.refresh(t)


class TestCoalescedCompletions:
    def test_same_instant_completions_resume_fifo(self):
        # Three identical ops finish at the same simulated instant; the
        # coalesced completion batch must resume waiters in issue order.
        engine = Engine(UniformRateModel(2.0))
        order = []

        def worker(name):
            yield FluidOp(4.0, kind="cpu")
            order.append(name)

        for name in ("a", "b", "c"):
            engine.spawn(worker(name), name)
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == pytest.approx(2.0)

    def test_zero_work_op_never_enters_active_set(self):
        sched = FluidScheduler(UniformRateModel(1.0))
        op = FluidOp(0.0, kind="cpu")
        sched.add(op, now=1.5)
        assert op.finished_at == 1.5
        assert not sched.active
        assert sched.ops_added == 0


class TestRateRedistribution:
    def test_survivor_speeds_up_when_peer_drains(self):
        # Two ops share capacity 1.0 at 0.5 each.  When the first
        # drains at t=2, the survivor must be re-rated to the full
        # capacity and finish at t=3 (not t=4).
        engine = Engine(SharedCapacityModel(1.0))
        a = FluidOp(1.0, kind="cpu")
        b = FluidOp(2.0, kind="cpu")

        def worker(op):
            yield op

        engine.spawn(worker(a), "a")
        engine.spawn(worker(b), "b")
        engine.run()
        assert a.finished_at == pytest.approx(2.0)
        assert b.finished_at == pytest.approx(3.0)
        assert b.rate == pytest.approx(1.0)

    def test_independent_groups_rerate_locally(self):
        # UniformRateModel ops are independent (per-op resource groups):
        # adding a second op must not re-rate the first.
        sched = FluidScheduler(UniformRateModel(1.0))
        a = FluidOp(5.0, kind="cpu")
        b = FluidOp(5.0, kind="cpu")
        sched.add(a, now=0.0)
        sched.refresh(0.0)
        assert sched.ops_rerated == 1
        sched.add(b, now=0.0)
        sched.refresh(0.0)
        assert sched.ops_rerated == 2  # b only; a was left alone


class TestCheapOpCreation:
    def test_no_attrs_stays_none(self):
        op = FluidOp(1.0, kind="cpu")
        assert op.attrs is None

    def test_keyword_attrs_build_dict(self):
        op = FluidOp(1.0, kind="io", direction="read")
        assert op.attrs == {"direction": "read"}

    def test_explicit_dict_merges_with_keywords(self):
        op = FluidOp(1.0, kind="io", attrs={"direction": "read"}, threads=4)
        assert op.attrs == {"direction": "read", "threads": 4}
