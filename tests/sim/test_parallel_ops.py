"""``ParallelOps``: one command that issues several ops and joins them.

Pins the join's observable contract: results in argument order,
``on_complete`` transforms, zero-work members completing inside the
issue loop, the empty list, members that mix fluid ops and command
objects (the ``_collect_execute`` protocol of the fault layer's retrying
I/O) including the first-failure rule, ``cancel_tree`` withdrawing every
in-flight member, and the probe events a parallel issue produces.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, Now, ParallelOps, Sleep, Spawn
from repro.sim.fluid import FluidOp, UniformRateModel
from repro.sim.probe import Probe


def make_engine() -> Engine:
    # Every op is its own resource group at rate 1: an op of work w
    # issued at t finishes at t + w.
    return Engine(UniformRateModel(1.0))


def op(work: float, name: str = "") -> FluidOp:
    return FluidOp(work, kind="io", tag=name)


class Command:
    """A ``_collect_execute`` member: runs one timed op, then delivers
    ``value`` (or fails with ``exc``) through the join's callback, the
    way the fault layer's retrying I/O does."""

    tag = "cmd"

    def __init__(self, work: float, value=None, exc: BaseException | None = None):
        self.work, self.value, self.exc = work, value, exc
        self.op = op(work, "cmd")
        self.delivered = False

    def _collect_execute(self, engine, callback) -> None:
        def done(_op):
            self.delivered = True
            if self.exc is not None:
                callback(exc=self.exc)
            else:
                callback(value=self.value)

        engine.issue_op(self.op, done)


class TestResults:
    def test_results_in_argument_order(self):
        engine = make_engine()
        ops = [op(3.0), op(1.0), op(2.0)]

        def proc():
            results = yield ParallelOps(ops)
            return results, (yield Now())

        results, t = engine.run_process(proc())
        assert results == ops
        assert t == pytest.approx(3.0)

    def test_on_complete_transforms_each_result(self):
        engine = make_engine()
        ops = [op(2.0), op(1.0)]
        ops[0].on_complete = lambda o: ("first", o.work)

        def proc():
            return (yield ParallelOps(ops))

        assert engine.run_process(proc()) == [("first", 2.0), ops[1]]

    def test_zero_work_members_complete_inside_the_issue_loop(self):
        engine = make_engine()
        zero = [op(0.0), op(0.0)]
        zero[1].on_complete = lambda o: "instant"

        def proc():
            results = yield ParallelOps(zero)
            return results, (yield Now())

        results, t = engine.run_process(proc())
        assert results == [zero[0], "instant"]
        assert t == 0.0
        assert not engine.fluid.active

    def test_zero_work_member_beside_timed_ones(self):
        engine = make_engine()
        ops = [op(1.0), op(0.0), op(2.0)]

        def proc():
            results = yield ParallelOps(ops)
            return results, (yield Now())

        results, t = engine.run_process(proc())
        assert results == ops
        assert t == pytest.approx(2.0)

    def test_empty_list_resumes_at_once(self):
        engine = make_engine()

        def proc():
            results = yield ParallelOps([])
            return results, (yield Now())

        assert engine.run_process(proc()) == ([], 0.0)
        assert engine.steps == 3


class TestCommandMembers:
    def test_mixed_members_deliver_in_argument_order(self):
        engine = make_engine()
        fluid = op(2.0)
        members = [Command(3.0, value="slow"), fluid, Command(1.0, value="fast")]

        def proc():
            results = yield ParallelOps(members)
            return results, (yield Now())

        results, t = engine.run_process(proc())
        assert results == ["slow", fluid, "fast"]
        assert t == pytest.approx(3.0)

    def test_first_failure_resumes_and_stragglers_complete_harmlessly(self):
        engine = make_engine()
        first, second = RuntimeError("first"), RuntimeError("second")
        late = op(5.0)
        members = [late, Command(1.0, exc=first), Command(2.0, exc=second)]
        seen = []

        def proc():
            try:
                yield ParallelOps(members)
            except RuntimeError as err:
                seen.append((err, (yield Now())))
            yield Sleep(10.0)
            return "after"

        assert engine.run_process(proc()) == "after"
        assert seen == [(first, pytest.approx(1.0))]
        assert members[2].delivered and late.finished_at == pytest.approx(5.0)
        assert engine.now == pytest.approx(11.0)

    def test_failure_after_success_of_the_rest_still_wins(self):
        engine = make_engine()
        members = [op(1.0), Command(2.0, exc=ValueError("late"))]

        def proc():
            with pytest.raises(ValueError, match="late"):
                yield ParallelOps(members)
            return (yield Now())

        assert engine.run_process(proc()) == pytest.approx(2.0)


class TestCancel:
    def test_cancel_tree_withdraws_every_in_flight_member(self):
        engine = make_engine()
        members = [op(4.0), op(0.0), op(6.0)]
        parked = {}

        def child():
            yield ParallelOps(members)
            parked["resumed"] = True

        def main():
            kid = yield Spawn(child(), name="kid")
            yield Sleep(1.0)
            parked["blocked_on"] = list(kid.blocked_on)
            parked["cancelled"] = engine.cancel_tree(kid)
            return (yield Now())

        assert engine.run_process(main()) == pytest.approx(1.0)
        assert parked == {"blocked_on": members, "cancelled": 1}
        assert not engine.fluid.active
        assert engine.fluid.ops_cancelled == 2
        assert members[0].remaining == pytest.approx(3.0)
        assert members[2].remaining == pytest.approx(5.0)
        assert members[0].finished_at is None and members[2].finished_at is None


class _Recorder(Probe):
    def __init__(self):
        self.log = []

    def subscriptions(self):
        return [
            ("block_parallel", self.on_block),
            ("op_issue", self.on_issue),
            ("op_done", self.on_done),
            ("resume", self.on_resume),
        ]

    def on_block(self, proc, ops, verb):
        self.log.append(("block_parallel", proc.name, [o.tag for o in ops], verb))

    def on_issue(self, op, now):
        self.log.append(("op_issue", op.tag, now))

    def on_done(self, op, now):
        self.log.append(("op_done", op.tag, now))

    def on_resume(self, proc, ops):
        self.log.append(("resume", proc.name, [o.tag for o in ops]))


class TestProbeEvents:
    def test_block_issue_done_resume_in_order(self):
        engine = make_engine()
        recorder = _Recorder()
        engine.probes.install(recorder)
        ops = [op(2.0, "a"), op(0.0, "zero"), op(1.0, "b")]
        command = Command(3.0, value="c")

        def proc():
            yield ParallelOps([ops[0], command, ops[1], ops[2]])

        engine.run_process(proc(), name="p")
        assert recorder.log == [
            ("block_parallel", "p", ["a", "cmd", "zero", "b"], "parallel"),
            ("op_issue", "a", 0.0),
            ("op_issue", "zero", 0.0),
            ("op_done", "zero", 0.0),
            ("op_issue", "b", 0.0),
            ("op_issue", "cmd", 0.0),
            ("op_done", "b", 1.0),
            ("op_done", "a", 2.0),
            ("op_done", "cmd", 3.0),
            ("resume", "p", ["a", "zero", "b"]),
        ]
