"""Unit tests for the fluid kernel's vector protocol (rate tables).

Covers the invariants the group machinery must uphold: deterministic
op-id ordering of same-epoch completion batches (with the protocol on
or off, and when tabled and untabled groups contribute to one batch),
bit-identical results between table solves and per-solve
``model.assign`` calls, which solves count as table solves and which
as fallbacks, the ``REPRO_SIM_VECTOR`` switch, and
``FluidOp.remaining`` for mid-flight readers.  The generated
comparison lives in ``tests/property/test_fluid_kernels.py``.
"""

from __future__ import annotations

import pytest

from repro.sim.fluid import (
    FluidOp,
    FluidScheduler,
    RateModel,
    observer_code,
    vector_enabled,
)


class VectorCapacityModel(RateModel):
    """Processor sharing with the vectorized-kernel protocol.

    One shared capacity split evenly across active ops: the rate depends
    only on the population size, so every op shares one signature and
    ``assign`` is trivially signature-pure.
    """

    def __init__(self, capacity: float):
        self.capacity = capacity

    def assign(self, ops):
        ops = list(ops)
        share = self.capacity / len(ops)
        return {op: share for op in ops}

    def vector_state(self, key):
        return self.capacity

    def vector_sig(self, op):
        return "any"


class ScalarCapacityModel(VectorCapacityModel):
    """Same arithmetic, no vector protocol (stays on the scalar path)."""

    def vector_state(self, key):
        return None


def drive(sched: FluidScheduler, ops, release_times):
    """Add ops at their release times, stepping the scheduler the way the
    engine does (``settle_due`` to each event, ``refresh`` after a
    membership change).

    Returns ``[(finish_time, batch)]`` where each batch is the exact
    list object ``settle_due`` or ``refresh`` returned.
    """
    events = sorted(set(release_times))
    batches = []
    for t in events:
        done = sched.settle_due(t)
        if done:
            batches.append((t, done))
        for op, rel in zip(ops, release_times):
            if rel == t:
                sched.add(op, t)
        done = sched.refresh(t)
        if done:
            batches.append((t, done))
    guard = 0
    while sched.active:
        t = sched.next_completion(events[-1] if not batches else batches[-1][0])
        assert t is not None, "active ops but no next completion"
        for done in (sched.settle_due(t), sched.refresh(t)):
            if done:
                batches.append((t, done))
        guard += 1
        assert guard < 100, "scheduler failed to drain"
    return batches


class TestCompletionOrdering:
    """The documented op-id ordering of a completion batch, from
    ``settle_due`` and from ``refresh`` alike."""

    @pytest.mark.parametrize("vector", [False, True])
    def test_same_epoch_completions_sorted_by_op_id(self, vector):
        # Equal work + equal (shared) rate => all ops finish at the same
        # instant.  The batch must come back in ascending seq no matter
        # what internal (heap/array) order the kernel used.
        sched = FluidScheduler(VectorCapacityModel(8.0), vector=vector)
        ops = [FluidOp(8.0, kind="cpu") for _ in range(6)]
        for op in ops:
            sched.add(op, 0.0)
        sched.refresh(0.0)
        t = sched.next_completion(0.0)
        done = sched.settle_due(t)
        assert done == sorted(done, key=lambda o: o.seq)
        assert {o.seq for o in done} == {o.seq for o in ops}

    @pytest.mark.parametrize("vector", [False, True])
    def test_refresh_batch_sorted_by_op_id(self, vector):
        # An op joins at the instant six others finish, before anything
        # settled to it: refresh's own settle pass collects the batch.
        sched = FluidScheduler(VectorCapacityModel(8.0), vector=vector)
        ops = [FluidOp(8.0, kind="cpu") for _ in range(6)]
        late = FluidOp(8.0, kind="cpu")
        for op in reversed(ops):
            sched.add(op, 0.0)
        sched.refresh(0.0)
        t = sched.next_completion(0.0)
        sched.add(late, t)
        done = sched.refresh(t)
        assert done == sorted(ops, key=lambda o: o.seq)
        assert sched.active == {late}

    def test_mixed_path_batch_is_globally_sorted(self):
        # Two resource groups: one served from rate tables, one whose
        # model has no vector protocol (one model.assign per solve).
        # Ops are interleaved by creation order across the groups; a
        # same-time completion batch must interleave them back in seq
        # order rather than concatenating group-by-group.
        class TwoGroupModel(VectorCapacityModel):
            def resource_key(self, op):
                return op.attrs["grp"]

            def vector_state(self, key):
                # Only the "big" group implements the protocol.
                return self.capacity if key == "big" else None

        sched = FluidScheduler(TwoGroupModel(4.0), vector=True)
        ops = []
        for i in range(8):
            grp = "big" if i % 2 == 0 else "small"
            ops.append(FluidOp(4.0, kind="cpu", grp=grp))
        for op in ops:
            sched.add(op, 0.0)
        sched.refresh(0.0)
        assert sched.vector_solves > 0 and sched.scalar_fallbacks > 0
        t = sched.next_completion(0.0)
        done = sched.settle_due(t)
        assert [o.seq for o in done] == sorted(o.seq for o in ops)

    def test_op_id_is_stable_and_monotone(self):
        a, b = FluidOp(1.0, kind="cpu"), FluidOp(1.0, kind="cpu")
        assert b.seq > a.seq
        sched = FluidScheduler(VectorCapacityModel(2.0))
        sched.add(b, 0.0)
        sched.add(a, 0.0)
        sched.refresh(0.0)
        assert sched.settle_due(sched.next_completion(0.0)) == [a, b]


class TestScalarVectorEquivalence:
    def run_one(self, model, vector):
        sched = FluidScheduler(model, vector=vector)
        ops = [FluidOp(float(w), kind="cpu") for w in (10, 6, 6, 3, 14, 9)]
        releases = [0.0, 0.0, 0.0, 1.0, 1.0, 2.5]
        batches = drive(sched, ops, releases)
        return ops, batches

    def test_bitwise_identical_finish_times_and_batches(self):
        ops_s, batches_s = self.run_one(ScalarCapacityModel(4.0), vector=False)
        ops_v, batches_v = self.run_one(VectorCapacityModel(4.0), vector=True)
        # Same batch boundaries at bit-identical instants...
        assert [t for t, _ in batches_s] == [t for t, _ in batches_v]
        # ... containing the same ops (by position in creation order).
        for (_, ds), (_, dv) in zip(batches_s, batches_v):
            assert [ops_s.index(o) for o in ds] == [ops_v.index(o) for o in dv]
        for a, b in zip(ops_s, ops_v):
            assert a.started_at == b.started_at
            assert a.finished_at == b.finished_at  # exact, not approx

    def test_vector_path_actually_engaged(self):
        sched = FluidScheduler(VectorCapacityModel(4.0), vector=True)
        ops = [FluidOp(4.0, kind="cpu") for _ in range(5)]
        for op in ops:
            sched.add(op, 0.0)
        sched.refresh(0.0)
        assert sched.vector_solves == 1
        assert sched.vector_ops_solved == 5
        assert sched.scalar_fallbacks == 0


class TestPromotionThreshold:
    def test_small_group_stays_scalar(self):
        # However small the group, the solve goes through the rate-table
        # memo (a "vector solve" in the counters), so nothing falls back
        # to model.assign per epoch.
        sched = FluidScheduler(VectorCapacityModel(4.0), vector=True)
        ops = [FluidOp(4.0, kind="cpu") for _ in range(3)]
        for op in ops:
            sched.add(op, 0.0)
        sched.refresh(0.0)
        assert sched.vector_solves == 1
        assert sched.scalar_fallbacks == 0

    def test_unsupporting_model_stays_scalar(self):
        sched = FluidScheduler(ScalarCapacityModel(4.0), vector=True)
        for _ in range(8):
            sched.add(FluidOp(4.0, kind="cpu"), 0.0)
        sched.refresh(0.0)
        assert sched.vector_solves == 0
        assert sched.scalar_fallbacks == 1


class TestRemainingWork:
    def test_tracks_array_backed_ops_mid_flight(self):
        sched = FluidScheduler(VectorCapacityModel(8.0), vector=True)
        ops = [FluidOp(8.0, kind="cpu") for _ in range(4)]
        for op in ops:
            sched.add(op, 0.0)
        sched.refresh(0.0)
        sched.settle(1.0)  # each op runs at 2.0 for 1s
        for op in ops:
            assert op._vg is not None
            assert op.remaining == 6.0
        done = sched.settle_due(sched.next_completion(1.0))
        assert done == ops
        for op in done:
            assert op._vg is None
            assert op.remaining == 0.0

    def test_matches_attribute_on_scalar_path(self):
        sched = FluidScheduler(ScalarCapacityModel(8.0), vector=True)
        op = FluidOp(8.0, kind="cpu")
        sched.add(op, 0.0)
        sched.refresh(0.0)
        sched.settle(0.5)
        assert op.remaining == 4.0
        # Leaving the group writes the settled value back to the op.
        assert sched.cancel_op(op)
        assert op._vg is None and op.remaining == 4.0


class TestEnvSwitch:
    def test_env_disables_vector(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VECTOR", "0")
        assert not vector_enabled()
        sched = FluidScheduler(VectorCapacityModel(4.0))
        assert not sched.vector
        for _ in range(8):
            sched.add(FluidOp(4.0, kind="cpu"), 0.0)
        sched.refresh(0.0)
        assert sched.vector_solves == 0
        # A disabled kernel also never counts fallbacks: the counter
        # reports vector-eligible work lost to opt-outs, not the switch.
        assert sched.scalar_fallbacks == 0

    @pytest.mark.parametrize("value", ["1", "on", "yes", "true"])
    def test_env_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SIM_VECTOR", value)
        assert vector_enabled()


class TestObserverCodes:
    def test_codes_cached_on_op(self):
        op = FluidOp(4.0, kind="io", direction="read", pattern=None)
        assert op._obs is None
        code = observer_code(op)
        assert op._obs == code
        assert observer_code(FluidOp(1.0, kind="cpu")) != code
