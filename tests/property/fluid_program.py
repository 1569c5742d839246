"""Random ``FluidScheduler`` programs for the kernel-equivalence tests.

A *program* is a list of steps over op *specs* (plain tuples), so the
same program can be replayed on several schedulers -- each builds its
own ops and rate models -- and their observable state compared float
for float.  Everything here goes through the scheduler's public surface
(``add`` / ``settle`` / ``rerate`` / ``pop_completed`` /
``next_completion`` / ``cancel_op`` / ``invalidate_rates`` and the
``remaining_work`` / ``predicted_finish`` accessors), in the order the
engine calls it.

``fluid_trace_parent.json`` is :func:`run_program` 's output at commit
919a023 (set+heap scalar kernel, one-way array promotion at 4 ops): a
change to the step generator or the op specs here invalidates it.
"""

from __future__ import annotations

import hashlib
import os
import random
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.device.device import BraidRateModel
from repro.device.host import HostModel
from repro.device.profile import Pattern
from repro.device.profiles import bd_device_profile, pmem_profile
from repro.sim.domains import DomainRouter
from repro.sim.fluid import (
    FluidOp,
    FluidScheduler,
    NetLinkRateModel,
    RateModel,
    predicted_finish,
    remaining_work,
)

_PROFILES = {"d0": pmem_profile(), "d1": bd_device_profile()}

#: Resource keys of :func:`build_model`.
DOMAINS = ("d0", "d1", "net", "x")

#: Kernel configurations compared by the equivalence tests:
#: environment overrides in force while the scheduler is constructed.
KERNELS: Dict[str, Dict[str, str]] = {
    "reference": {"REPRO_SIM_VECTOR": "0"},
    "default": {},
}


class WeightedShareModel(RateModel):
    """Capacity split by integer weight; no vector protocol.

    Integer weights keep the total exact, so the assignment does not
    depend on the order ``assign`` receives the ops in.
    """

    def __init__(self, capacity: float):
        self.capacity = capacity

    def assign(self, ops):
        ops = list(ops)
        total = sum(op.attrs["w"] for op in ops)
        return {op: self.capacity * op.attrs["w"] / total for op in ops}


def build_model() -> DomainRouter:
    """Two BRAID devices, the interconnect and a non-protocol domain."""
    router = DomainRouter()
    for domain, profile in _PROFILES.items():
        router.add_domain(domain, BraidRateModel(profile, HostModel()))
    router.add_domain("net", NetLinkRateModel(1e9))
    router.add_domain("x", WeightedShareModel(3e8))
    return router


def build_op(spec: tuple) -> FluidOp:
    """Materialise one op from its spec (see :func:`random_spec`)."""
    domain, kind, work, a, b, c = spec
    if kind == "io":
        op = FluidOp(
            work, kind="io", tag=f"{domain} {a}", direction=a,
            pattern=Pattern(b), threads=c[0], host_ratio=c[1],
        )
    elif kind == "cpu":
        op = FluidOp(work, kind="cpu", tag=f"{domain} cpu", mode=a, cores=b)
    elif kind == "net":
        op = FluidOp(work, kind="net", tag="net", src=a, dst=b)
    else:
        op = FluidOp(work, kind="x", tag="x", w=a)
    op.attrs["domain"] = domain
    return op


def random_spec(rng: random.Random, domain: Optional[str] = None) -> tuple:
    """One op spec: ``(domain, kind, work, a, b, c)``."""
    if domain is None:
        domain = rng.choice(("d0", "d0", "d0", "d1", "d1", "net", "x"))
    work = 0.0 if rng.random() < 0.05 else float(rng.randrange(1, 64) * 4096)
    if domain == "net":
        src, dst = rng.sample(("s0", "s1", "s2"), 2)
        return (domain, "net", work, src, dst, None)
    if domain == "x":
        return (domain, "x", work, rng.randrange(1, 5), None, None)
    if rng.random() < 0.25:
        mode = rng.choice(("compute", "copy"))
        scaled = work / 1e9 if mode == "compute" else work
        return (domain, "cpu", scaled, mode, rng.randrange(1, 4), None)
    direction = rng.choice(("read", "write"))
    pattern = rng.choice(("seq", "rand")) if direction == "read" else "seq"
    shape = (rng.choice((1, 2, 4, 8)), rng.choice((1.0, 0.5, 0.1)))
    return (domain, "io", work, direction, pattern, shape)


@contextmanager
def environment(overrides: Dict[str, str]):
    """``os.environ`` with the kernel switch replaced."""
    saved = os.environ.pop("REPRO_SIM_VECTOR", None)
    os.environ.update(overrides)
    try:
        yield
    finally:
        os.environ.pop("REPRO_SIM_VECTOR", None)
        if saved is not None:
            os.environ["REPRO_SIM_VECTOR"] = saved


class Replica:
    """One scheduler under one kernel configuration, engine-stepped."""

    def __init__(self, kernel: Dict[str, str]):
        self.model = build_model()
        with environment(kernel):
            self.sched = FluidScheduler(self.model)
        self.now = 0.0
        self.ops: List[FluidOp] = []
        self.index: Dict[FluidOp, int] = {}
        #: ``(time hex, op index)`` in delivery order.
        self.completions: List[Tuple[str, int]] = []
        #: ``(t0 hex, t1 hex, ((op index, rate hex), ...))`` per call.
        self.observed: List[tuple] = []
        self.sched.interval_observers.append(partial(self._observe, self.observed))
        #: The same rows from each resource key's own subscription.
        self.group_observed: Dict[str, List[tuple]] = {d: [] for d in DOMAINS}
        for domain, rows in self.group_observed.items():
            self.sched.observe_group(domain, partial(self._observe, rows))

    def _observe(self, rows: List[tuple], t0: float, t1: float, ops: list) -> None:
        rows.append(
            (t0.hex(), t1.hex(), tuple((self.index[op], op.rate.hex()) for op in ops))
        )

    def _deliver(self, done: list) -> None:
        self.completions.extend((self.now.hex(), self.index[op]) for op in done)

    def _settle_and_complete(self) -> None:
        sched = self.sched
        while sched.dirty:
            sched.settle(self.now)
            sched.rerate(self.now)
            self._deliver(sched.pop_completed(self.now))

    # -- program steps ---------------------------------------------------
    def add(self, specs: List[tuple]) -> None:
        for spec in specs:
            op = build_op(spec)
            self.index[op] = len(self.ops)
            self.ops.append(op)
            self.sched.add(op, self.now)
            if op.finished_at is not None:
                self.completions.append((self.now.hex(), self.index[op]))
        self._settle_and_complete()

    def advance(self, events: int = 1) -> None:
        """Jump to the next completion instant, ``events`` times."""
        for _ in range(events):
            target = self.sched.next_completion(self.now)
            if target is None:
                return
            self.now = target
            self.sched.settle(target)
            self._deliver(self.sched.pop_completed(target))
            self._settle_and_complete()

    def sleep(self, dt: float) -> None:
        """A timer event strictly before the next completion."""
        target = self.sched.next_completion(self.now)
        if target is not None and self.now + dt < target:
            self.now += dt
            self.sched.settle(self.now)

    def cancel(self, i: int) -> bool:
        self.sched.settle(self.now)
        hit = self.sched.cancel_op(self.ops[i])
        self._settle_and_complete()
        return hit

    def degrade(self, domain: str, value: float) -> None:
        self.sched.settle(self.now)
        self.model.model_for(domain).degrade = value
        self.sched.invalidate_rates()
        self._settle_and_complete()

    # -- observable state ------------------------------------------------
    def live(self) -> List[int]:
        return sorted(self.index[op] for op in self.sched.active)

    def state(self) -> tuple:
        """``repr``-exact floats of every live op, in creation order."""
        rows = []
        for i in self.live():
            op = self.ops[i]
            rows.append(
                (i, op.rate.hex(), remaining_work(op).hex(), predicted_finish(op).hex())
            )
        return tuple(rows)

    def horizons(self) -> tuple:
        """Per resource group, the latest finite scheduled finish."""
        return tuple(
            (d, repr(max(
                (f for f in map(predicted_finish, self.sched.group_ops(d))
                 if f < float("inf")),
                default=None,
            )))
            for d in DOMAINS
        )


def random_step(rng: random.Random, live: List[int]) -> tuple:
    """One program step, given the currently live op indices."""
    roll = rng.random()
    if roll < 0.30 or not live:
        return ("add", [random_spec(rng) for _ in range(rng.randrange(1, 4))])
    if roll < 0.66:
        return ("advance", rng.randrange(1, 4))
    if roll < 0.71:
        return ("sleep", rng.choice((1e-7, 1e-6, 1e-5)))
    if roll < 0.79:
        return ("cancel", rng.choice(live))
    if roll < 0.85:
        return ("degrade", rng.choice(("d0", "d1")), rng.choice((1.0, 0.5, 0.25)))
    if roll < 0.89:
        # A burst of >= 120 ops on one device (wider than any workload
        # in the repo but one); the drains below empty it again.
        domain = rng.choice(("d0", "d1"))
        return ("add", [random_spec(rng, domain) for _ in range(rng.randrange(120, 150))])
    return ("advance", rng.randrange(60, 150))


def apply_step(replica: Replica, step: tuple) -> None:
    getattr(replica, step[0])(*step[1:])


def run_program(replica: Replica, seed: int, steps: int) -> dict:
    """Drive ``replica`` through a seeded program; returns its trace.

    ``digest`` covers the live-op state, group horizons and observer
    arguments after *every* step; the completion sequence and the final
    live-op floats are kept verbatim.
    """
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(steps):
        step = random_step(rng, replica.live())
        apply_step(replica, step)
        digest.update(repr((replica.state(), replica.horizons())).encode())
    digest.update(repr(replica.observed).encode())
    return {
        "seed": seed,
        "steps": steps,
        "ops": len(replica.ops),
        "completions": [list(c) for c in replica.completions],
        "final": [list(row) for row in replica.state()],
        "final_time": replica.now.hex(),
        "digest": digest.hexdigest(),
    }
