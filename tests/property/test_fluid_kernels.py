"""Kernel equivalence at the scheduler, generated (ROADMAP correctness 3).

Three :class:`FluidScheduler` replicas -- list storage with the vector
protocol off (``REPRO_SIM_VECTOR=0``), array storage from two live ops
(``REPRO_SIM_VECTOR_MIN_GROUP=2``) and the default hysteresis -- are
driven through the same generated program; after every step they must
agree on the ``(time, op)`` completion sequence, on the exact ``rate`` /
``remaining_work`` / ``predicted_finish`` floats of every live op and
on every interval observer's arguments.  One frozen program captured at
the parent commit pins all three to the kernel they replaced.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import api
from repro.core.base import SortConfig
from repro.sim.fluid import FluidOp, FluidScheduler, UniformRateModel
from repro.units import KiB

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
        self.replicas = [Replica(KERNELS[name]) for name in ("lists", "arrays", "default")]

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
        # Wide enough, over a step or two, to cross the default promotion
        # threshold; the drains bring it back under the demotion one.
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
        replica = self.replicas[2]
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
    """List kernel == the set+heap kernel it replaced, not only == arrays."""

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
        if kernel != "lists":
            assert sched.array_promotions >= 2 and sched.array_demotions >= 2


def wide_groups(sched: FluidScheduler) -> list:
    return [key for key, group in sched._groups.items() if group.wide]


def live_ops(rng: random.Random, domain: str):
    """An endless stream of ops that enter the active set (work > 0)."""
    while True:
        op = build_op(random_spec(rng, domain))
        if op.work > 0:
            yield op


class TestStorageLifecycle:
    """Promotion is two-way and nothing the scheduler keeps only grows."""

    def test_hysteresis_converts_once(self):
        # N-1 -> N -> N-1 -> ... live ops around the promotion threshold
        # N: one promotion, no demotion.
        with environment({}):
            sched = FluidScheduler(build_model())
        threshold = sched.vector_min_group
        fresh = live_ops(random.Random(5), "d0")
        live = [next(fresh) for _ in range(threshold - 1)]
        for op in live:
            sched.add(op, 0.0)
        sched.rerate(0.0)
        assert sched.array_promotions == 0
        for _ in range(50):
            live.append(next(fresh))
            sched.add(live[-1], 0.0)
            sched.rerate(0.0)
            assert wide_groups(sched) == ["d0"]
            assert sched.cancel_op(live.pop(0))
            sched.rerate(0.0)
        assert (sched.array_promotions, sched.array_demotions) == (1, 0)
        # ... and it comes back once the population really has shrunk.
        while len(live) > threshold // 2:
            sched.cancel_op(live.pop())
            sched.rerate(0.0)
        assert (sched.array_promotions, sched.array_demotions) == (1, 1)
        assert wide_groups(sched) == []

    def test_drained_array_group_is_demoted(self):
        with environment(KERNELS["arrays"]):
            sched = FluidScheduler(build_model())
        rng = random.Random(6)
        now = 0.0
        fresh = live_ops(rng, "d1")
        for _ in range(8):
            sched.add(next(fresh), now)
        sched.rerate(now)
        assert wide_groups(sched) == ["d1"]
        while sched.active:
            now = sched.next_completion(now)
            sched.settle(now)
            sched.pop_completed(now)
            sched.rerate(now)
        assert wide_groups(sched) == []
        assert sched.array_demotions == sched.array_promotions > 0

    def test_cluster_run_ends_on_list_storage(self, monkeypatch):
        # The ledger's cluster_chaos shape at the old promotion
        # threshold: the shuffle after recovery briefly puts >= 4 ops on
        # every shard.  Each shard group used to keep its arrays for
        # the life of the engine and was then re-rated as a one-row
        # array, epoch after epoch.
        monkeypatch.setenv("REPRO_SIM_VECTOR", "1")
        monkeypatch.setenv("REPRO_SIM_VECTOR_MIN_GROUP", "4")
        result = api.sort(
            api.RunOptions(
                records=20_000, system="wiscsort-merge", seed=101,
                config=SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB),
                faults="shard1:crash@50%,shard0:slow@t:1e-4+1:x0.1",
            ),
            shards=4,
        )
        assert result.validated and result.extras["fault_report"].crashes == 1
        cluster = result.extras["cluster"]
        sched = cluster.engine.fluid
        assert sched.array_promotions >= 4
        assert sched.array_demotions == sched.array_promotions
        assert wide_groups(sched) == []

    def test_per_op_groups_are_dropped_when_they_empty(self):
        sched = FluidScheduler(UniformRateModel(2.0))
        now = 0.0
        for _ in range(10_000):
            sched.add(FluidOp(1.0, kind="cpu"), now)
            sched.rerate(now)
            now = sched.next_completion(now)
            sched.settle(now)
            assert len(sched.pop_completed(now)) == 1
            sched.rerate(now)
        assert sched.ops_completed == 10_000
        assert not sched._groups and not sched._group_observers
        assert not sched._sig_ids and not sched._dirty_keys

    def test_tabled_groups_keep_a_bounded_memo(self):
        with environment({}):
            sched = FluidScheduler(build_model())
        rng = random.Random(7)
        now = 0.0
        for _ in range(2_000):
            for _ in range(rng.randrange(1, 4)):
                sched.add(build_op(random_spec(rng, rng.choice(("d0", "d1")))), now)
            sched.rerate(now)
            while sched.active and rng.random() < 0.7:
                now = sched.next_completion(now)
                sched.settle(now)
                sched.pop_completed(now)
                sched.rerate(now)
        # One group per resource key ever used, each memo capped.
        assert set(sched._groups) <= set(DOMAINS)
        assert len(sched._sig_ids) > 20
        for group in sched._groups.values():
            assert len(group.memo) <= group.MEMO_LIMIT
            # A list group's memo key is its live population, however
            # many distinct signatures the scheduler has interned.
            assert len(group.population()) == len(group.ops)
