"""Kernel equivalence at the scheduler, generated (ROADMAP correctness 3).

Two :class:`FluidScheduler` replicas -- the reference with the vector
protocol off (``REPRO_SIM_VECTOR=0``: one ``model.assign`` per solve)
and the default (rate tables) -- are driven through the same generated
program, bursts of >= 128 ops on one device included; after every step
they must agree on the ``(time, op)`` completion sequence, on the exact
``rate`` / ``remaining`` / ``predicted_finish`` floats of every
live op and on every interval observer's arguments.  One frozen program
captured at commit 919a023 pins both to the kernel they replaced.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.fluid import FluidOp, FluidScheduler, UniformRateModel

from tests.property.fluid_program import (
    DOMAINS,
    KERNELS,
    Replica,
    build_model,
    build_op,
    environment,
    random_spec,
    run_program,
)

FROZEN_TRACE = Path(__file__).with_name("fluid_trace_parent.json")


@st.composite
def op_specs(draw, domain=None):
    return random_spec(random.Random(draw(st.integers(0, 2**32 - 1))), domain)


class KernelEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.replicas = [Replica(KERNELS[name]) for name in ("reference", "default")]

    def each(self, step: str, *args) -> None:
        for replica in self.replicas:
            getattr(replica, step)(*args)

    @rule(specs=st.lists(op_specs(), min_size=1, max_size=4))
    def add(self, specs):
        self.each("add", specs)

    @rule(
        domain=st.sampled_from(("d0", "d1")),
        size=st.integers(60, 140),
        seed=st.integers(0, 2**32 - 1),
    )
    def burst(self, domain, size, seed):
        # Over a step or two, >= 128 live ops on one device: wider than
        # every workload in the repo but one solve of mergepass (142).
        rng = random.Random(seed)
        self.each("add", [random_spec(rng, domain) for _ in range(size)])

    @rule(events=st.integers(1, 3))
    def advance(self, events):
        self.each("advance", events)

    @rule(events=st.integers(30, 150))
    def drain(self, events):
        self.each("advance", events)

    @rule(dt=st.sampled_from((1e-7, 1e-6, 1e-5)))
    def sleep(self, dt):
        self.each("sleep", dt)

    @precondition(lambda self: self.replicas[0].live())
    @rule(data=st.data())
    def cancel(self, data):
        self.each("cancel", data.draw(st.sampled_from(self.replicas[0].live())))

    @rule(domain=st.sampled_from(("d0", "d1")), value=st.sampled_from((1.0, 0.5, 0.25)))
    def degrade(self, domain, value):
        self.each("degrade", domain, value)

    @invariant()
    def kernels_agree(self):
        reference = self.replicas[0]
        for replica in self.replicas[1:]:
            assert replica.now.hex() == reference.now.hex()
            assert replica.completions == reference.completions
            assert replica.state() == reference.state()
            assert replica.horizons() == reference.horizons()
            assert replica.observed == reference.observed
            assert replica.group_observed == reference.group_observed

    @invariant()
    def group_views_partition_the_global_one(self):
        # A resource key's subscription sees exactly the global
        # issue-ordered view restricted to that key, in the same order.
        replica = self.replicas[1]
        if not replica.observed:
            return
        t0, t1, rows = replica.observed[-1]
        for domain in DOMAINS:
            mine = tuple(
                row for row in rows if replica.ops[row[0]].attrs["domain"] == domain
            )
            calls = replica.group_observed[domain]
            last = calls[-1] if calls and calls[-1][:2] == (t0, t1) else None
            assert (last[2] if last else ()) == mine


KernelEquivalence.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestKernelEquivalence = KernelEquivalence.TestCase


class TestFrozenParentTrace:
    """The kernel == the set+heap kernel it replaced, not only == itself."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_replays_bit_identically(self, kernel):
        frozen = json.loads(FROZEN_TRACE.read_text())
        replica = Replica(KERNELS[kernel])
        trace = run_program(replica, frozen["seed"], frozen["steps"])
        assert trace["completions"] == frozen["completions"]
        assert trace["final"] == frozen["final"]
        assert trace == {key: frozen[key] for key in trace}
        # The program has to have been worth freezing.
        sched = replica.sched
        assert sched.ops_cancelled > 10 and sched.ops_completed > 300
        # ... and wide: some epoch has >= 128 live ops in one group.
        assert 128 <= max(
            len(rows)
            for calls in replica.group_observed.values()
            for _t0, _t1, rows in calls
        )


class TestStorageLifecycle:
    """Nothing the scheduler keeps only grows."""

    def test_per_op_groups_are_dropped_when_they_empty(self):
        sched = FluidScheduler(UniformRateModel(2.0))
        now = 0.0
        for _ in range(10_000):
            sched.add(FluidOp(1.0, kind="cpu"), now)
            sched.refresh(now)
            now = sched.next_completion(now)
            assert len(sched.settle_due(now)) == 1
            sched.refresh(now)
        assert sched.ops_completed == 10_000
        assert not sched._groups and not sched._group_observers
        assert not sched._sig_ids and not sched._dirty_keys

    def test_tabled_groups_keep_a_bounded_memo(self):
        with environment({}):
            sched = FluidScheduler(build_model())
        rng = random.Random(7)
        now = 0.0
        peak = 0
        for _ in range(2_000):
            for _ in range(rng.randrange(1, 4)):
                sched.add(build_op(random_spec(rng, rng.choice(("d0", "d1")))), now)
            sched.refresh(now)
            peak = max(peak, len(sched.active))
            while sched.active and rng.random() < 0.7:
                now = sched.next_completion(now)
                sched.settle_due(now)
                sched.refresh(now)
        # One group per resource key ever used, each memo capped.
        assert set(sched._groups) <= set(DOMAINS)
        assert len(sched._sig_ids) > 20
        for group in sched._groups.values():
            assert len(group.memo) <= group.MEMO_LIMIT
            # A memo key is the population that was live, however many
            # distinct signatures the scheduler has interned.
            assert all(len(population) <= peak for _state, population in group.memo)
