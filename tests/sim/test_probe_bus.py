"""The probe bus contract (``repro.sim.probe``).

Three layers of pinning:

* ``TestProbeSet`` -- the bus mechanics: fixed vocabulary, install
  order is call order, callbacks are resolved on the probe *instance*
  at install/rebind time, one active probe at most.
* ``TestVocabulary`` -- a table of which hook each stock probe is told
  of, and with which verbs, on a toy run that visits every block kind.
  The bus must neither widen nor narrow any probe's view.
* ``TestBusContract`` -- {machine, cluster} x {fresh, reboot, add_shard}
  x every subset of the four stock probes: observers never change the
  simulation, never read each other, and survive a reboot.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.race import RaceDetector, SchedulePermuter
from repro.analysis.sanitizer import SimSanitizer
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.wiscsort import WiscSort
from repro.errors import ConfigError, SimulatedCrash
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.sim.engine import Join, ParallelOps, Sleep, Spawn
from repro.sim.probe import EVENTS, GROUPS, Probe, ProbeSet
from repro.trace import Tracer, analyze_tracer
from repro.trace.export import dumps_chrome_trace

FMT = RecordFormat()
N_RECORDS = 3_000
SEED = 2023


# ----------------------------------------------------------------------
# Bus mechanics
# ----------------------------------------------------------------------
class _Recorder(Probe):
    def __init__(self, log, label):
        self.log, self.label = log, label

    def subscriptions(self):
        return [("spawn", self.on_spawn)]

    def on_spawn(self, proc):
        self.log.append((self.label, proc.name))


class TestProbeSet:
    def test_every_event_starts_as_the_empty_tuple(self):
        probes = ProbeSet()
        assert all(getattr(probes, event) == () for event in EVENTS)
        assert probes.pick_ready is None and probes.shuffle_ties is None
        assert all(name in EVENTS for names in GROUPS.values() for name in names)

    def test_unknown_event_is_rejected(self):
        class Bad(Probe):
            def subscriptions(self):
                return [("no_such_event", print)]

        with pytest.raises(KeyError):
            ProbeSet().install(Bad())

    def test_call_order_is_install_order(self):
        machine, log = Machine(), []
        first = _Recorder(log, "first").install(machine)
        _Recorder(log, "second").install(machine)
        machine.engine.spawn(iter(()), name="p")
        assert log == [("first", "p"), ("second", "p")]
        assert machine.probes.probes[0] is first

    def test_callbacks_resolve_on_the_instance_at_install_and_rebind(self):
        """The perf ledger patches hook methods from outside; the bus
        must call whatever the instance resolves when it (re)compiles."""
        machine, log = Machine(), []
        probe = _Recorder(log, "orig")
        probe.on_spawn = lambda proc: log.append(("shim", proc.name))
        probe.install(machine)
        machine.engine.spawn(iter(()), name="a")
        del probe.on_spawn  # shim removed: only a rebind may notice
        machine.engine.spawn(iter(()), name="b")
        machine.reboot()
        machine.engine.spawn(iter(()), name="c")
        assert log == [("shim", "a"), ("shim", "b"), ("orig", "c")]

    def test_only_one_probe_may_reorder_ties(self):
        machine = Machine()
        machine.install_schedule_fuzz(1)
        with pytest.raises(ConfigError):
            machine.install_schedule_fuzz(2)

    def test_shards_ride_the_cluster_bus(self):
        cluster = Cluster(shards=2)
        newcomer = cluster.add_shard()
        for owner in (*cluster.shards, cluster.engine, cluster.engine.fluid,
                      cluster.dram, newcomer.fs):
            assert owner.probes is cluster.probes


# ----------------------------------------------------------------------
# Vocabulary fidelity
# ----------------------------------------------------------------------
#: Hook -> position of the verb argument worth pinning (None = none).
_HOOKS = {
    Tracer: {
        "begin_span": None, "end_span": None, "instant": 0,
        "counter_sample": None, "add_complete_span": None,
        "on_op_issue": None, "on_op_complete": None, "on_rerate": None,
        "sched_event": 0, "analyze_spawn": None, "analyze_finish": None,
        "wait_begin": 2, "wait_end": None,
    },
    SimSanitizer: {
        "on_wait": 2, "on_wake": None, "on_op_complete": None,
        "on_proc_finish": None, "on_proc_cancel": None,
    },
    RaceDetector: {
        "on_spawn": None, "on_block": 2, "on_resume": None,
        "on_finish": None, "on_cancel": None, "on_acquire": None,
        "on_release": None, "note_span": 1, "note_batch": 1,
    },
}
_AUDITOR_HOOKS = {"note_raw": 1, "note_charge": 0, "timed": 0, "exempt": None}

_ALL_BLOCKS = {"io", "sleep", "join", "parallel", "acquire", "put", "wait"}
_TRACER_BASE = {
    "begin_span": {None}, "end_span": {None}, "counter_sample": {None},
    "on_op_issue": {None}, "on_op_complete": {None},
}
_TRACER_ANALYZE = {
    "analyze_spawn": {None}, "analyze_finish": {None},
    "wait_begin": _ALL_BLOCKS, "wait_end": {None},
    "instant": {"dram_pressure"},
}
_TRACER_DETAIL = {
    "sched_event": {
        "spawn", "resume", "cancel",
        "block:acquire", "block:put", "block:wait",  # primitives only
    },
    "on_rerate": {None},
}

#: What each stock probe is told on the toy run: hook -> verbs seen.
EXPECTED = {
    "tracer": _TRACER_BASE,
    "tracer+analyze": {**_TRACER_BASE, **_TRACER_ANALYZE},
    "tracer+detail": {**_TRACER_BASE, **_TRACER_DETAIL},
    "tracer+analyze+detail": {
        **_TRACER_BASE, **_TRACER_ANALYZE, **_TRACER_DETAIL
    },
    "sanitizer": {
        "on_wait": _ALL_BLOCKS, "on_wake": {None}, "on_op_complete": {None},
        "on_proc_finish": {None}, "on_proc_cancel": {None},
        "note_raw": {"peek", "poke"}, "note_charge": {"read", "write"},
        "timed": {"read", "write"}, "exempt": {None},
    },
    "race": {
        "on_spawn": {None},
        # primitive and ParallelOps blocks; never io / sleep / join
        "on_block": {"parallel", "acquire", "put", "wait"},
        "on_resume": {None}, "on_finish": {None}, "on_cancel": {None},
        "on_acquire": {None}, "on_release": {None},
        "note_span": {"r", "w"}, "note_batch": {"r"},
    },
}


def _spy(target, hooks, seen):
    """Shadow ``target``'s hooks with recording shims *on the instance*."""
    for name, verb_at in hooks.items():
        def shim(*args, _name=name, _at=verb_at,
                 _orig=getattr(target, name), **kwargs):
            seen.setdefault(_name, set()).add(
                None if _at is None else args[_at]
            )
            return _orig(*args, **kwargs)

        setattr(target, name, shim)


def _toy_run(probe):
    """One run visiting every block kind, both wake kinds, the
    primitives' fast paths, every storage access shape, DRAM pressure
    and a cancellation."""
    machine = Machine(dram_budget=1_000)
    seen: dict = {}
    _spy(probe, _HOOKS[type(probe)], seen)
    if isinstance(probe, SimSanitizer):
        _spy(probe.auditor, _AUDITOR_HOOKS, seen)
    probe.install(machine)
    f = machine.fs.create("f")
    f.poke(0, np.zeros(4096, dtype=np.uint8))
    sem = machine.semaphore(0, name="sem", reason="slot")
    free = machine.semaphore(1, name="free")
    queue = machine.queue(1, name="q")
    barrier = machine.barrier(2, name="bar")

    def child():
        with machine.trace_span("child-phase"):
            yield f.read(0, 64, tag="r")
            yield f.read_gather([0, 128], 8, tag="g")
            yield Sleep(1e-6)
            yield ParallelOps(
                [f.write(64, b"x" * 64, tag="w"), machine.compute(1e-7, tag="c")]
            )
            yield free.acquire()  # fast path: the acquire event
            yield sem.acquire()  # parks: block_primitive
            yield queue.put(1)
            yield queue.put(2)  # full: parks with verb "put"
            yield barrier.wait()
            yield Sleep(1e-6)  # outlive the barrier so main's Join parks

    def victim():
        yield Sleep(1.0)

    def main():
        kid = yield Spawn(child(), name="child")
        doomed = yield Spawn(victim(), name="victim")
        machine.dram.would_fit(10_000)  # rejected: dram_pressure
        machine.dram.allocate(10)
        yield Sleep(1e-4)
        with machine.fs.unaudited("fixture"):
            f.peek(0, 8)
        sem.release()
        yield Sleep(1e-4)
        assert (yield queue.get()) == 1
        assert queue.try_get() == 2
        machine.engine.cancel_tree(doomed)
        yield barrier.wait()
        yield Join(kid)

    machine.run(main(), name="main")
    return seen


class TestVocabulary:
    @pytest.mark.parametrize(
        "label, build",
        [
            ("tracer", lambda: Tracer()),
            ("tracer+analyze", lambda: Tracer(analyze=True)),
            ("tracer+detail", lambda: Tracer(detail=True)),
            ("tracer+analyze+detail", lambda: Tracer(analyze=True, detail=True)),
            ("sanitizer", lambda: SimSanitizer(trace=True)),
            ("race", lambda: RaceDetector()),
        ],
    )
    def test_probe_is_told_exactly_what_it_is_today(self, label, build):
        assert _toy_run(build()) == EXPECTED[label]

    def test_permuter_listens_to_nothing_and_holds_the_capability(self):
        permuter = SchedulePermuter(3)
        assert list(permuter.subscriptions()) == []
        assert permuter.reorders_ties
        assert not any(
            cls.reorders_ties for cls in (Tracer, SimSanitizer, RaceDetector)
        )


# ----------------------------------------------------------------------
# Observe-only, independent, reboot-proof: every subset, every lifecycle
# ----------------------------------------------------------------------
PROBES = ("san", "trace", "race", "fuzz")
SUBSETS = [
    subset
    for r in range(len(PROBES) + 1)
    for subset in itertools.combinations(PROBES, r)
]
SCENARIOS = [
    ("machine", "fresh"), ("machine", "reboot"),
    ("cluster", "fresh"), ("cluster", "reboot"), ("cluster", "add_shard"),
]


def _install(owner, subset):
    build = {
        "san": lambda: owner.install_sanitizer(trace=True),
        "trace": lambda: Tracer(analyze=True).install(owner),
        "race": owner.install_race_detector,
        "fuzz": lambda: owner.install_schedule_fuzz(7),
    }
    # Reversed on purpose: nothing may depend on install order either.
    return {name: build[name]() for name in reversed(subset)}


def _activity(obs):
    """A per-probe count that only grows while the probe hears events."""
    return {
        name: {
            "san": lambda p: len(p.trace),
            "trace": lambda p: len(p.ops),
            "race": lambda p: p.accesses_seen,
            "fuzz": lambda p: p.picks + p.shuffles,
        }[name](probe)
        for name, probe in obs.items()
    }


def _reports(obs):
    out = {}
    if "san" in obs:
        obs["san"].check()
        out["san"] = (
            obs["san"].trace_digest(),
            json.dumps(obs["san"].audit_report(), sort_keys=True),
        )
    if "trace" in obs:
        out["trace"] = (
            analyze_tracer(obs["trace"]).to_json(),
            dumps_chrome_trace(obs["trace"]),
        )
    if "race" in obs:
        out["race"] = obs["race"].render()
    return out


def _sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _machine_workload():
    machine = Machine()
    data = generate_dataset(machine, "input", N_RECORDS, FMT, seed=SEED)
    system = WiscSort(
        FMT, force_merge_pass=True, merge_chunk_entries=400, checkpoint=True
    )
    return machine, system, data


def _cluster_workload():
    cluster = Cluster(shards=3)
    data = generate_cluster_dataset(cluster, "input", N_RECORDS, FMT, seed=SEED)
    return cluster, ShardedWiscSort(FMT, checkpoint=True), data


@lru_cache(maxsize=None)
def _crash_op(kind):
    """Half the fault-free op count (of shard1, on the cluster)."""
    owner, system, data = (
        _machine_workload() if kind == "machine" else _cluster_workload()
    )
    counter = owner.install_faults(FaultPlan(), count_only=True)
    system.run(owner, data, validate=False)
    if kind == "machine":
        return counter.op_index // 2
    return counter.ops_seen()["shard1"] // 2


@lru_cache(maxsize=None)
def _cluster_duration():
    cluster, system, data = _cluster_workload()
    system.run(cluster, data)
    return cluster.now


@lru_cache(maxsize=None)
def _run(kind, lifecycle, subset):
    """One scenario under one probe subset -> (sim fingerprint, output
    sha, per-probe reports, per-probe (before, after) activity)."""
    workload = _machine_workload if kind == "machine" else _cluster_workload
    owner, system, data = workload()
    obs = _install(owner, subset)
    before = after = None
    if lifecycle == "fresh":
        result = system.run(owner, data)
    elif lifecycle == "reboot":
        target = "" if kind == "machine" else "shard1:"
        owner.install_faults(
            parse_fault_spec(f"{target}crash@op:{_crash_op(kind)}", seed=SEED)
        )
        with pytest.raises(SimulatedCrash) as crash:
            system.run(owner, data)
        before = _activity(obs)
        owner.reboot(*([crash.value.domain] if kind == "cluster" else []))
        result = system.recover(owner, data)
        after = _activity(obs)
    else:
        owner.engine.call_at(0.3 * _cluster_duration(), owner.add_shard)
        system.run(owner, data)
        # The next run plans over the grown cluster: real work lands on
        # the newcomer.
        data = generate_cluster_dataset(owner, "input2", N_RECORDS, FMT, seed=SEED)
        system = ShardedWiscSort(FMT, output_name="run2.out")
        result = system.run(owner, data)
    assert result.validated
    if kind == "machine":
        output = _sha(owner.fs.open(result.output_name).peek())
    else:
        parts = len(data.parts)
        output = hashlib.sha256()
        for d in range(parts):
            name = f"{result.output_name}.shard{d}"
            (holder,) = [s for s in owner.shards if s.fs.exists(name)]
            output.update(holder.fs.open(name).peek().tobytes())
        output = output.hexdigest()
    sim = (
        owner.now,
        owner.stats.bytes_read_internal,
        owner.stats.bytes_written_internal,
        output,
    )
    tracks = {rec["track"] for rec in obs["trace"].ops} if "trace" in obs else set()
    return sim, output, _reports(obs), (before, after), tracks


class TestBusContract:
    @pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
    @pytest.mark.parametrize("kind, lifecycle", SCENARIOS)
    def test_observe_only_independent_and_rebound(self, kind, lifecycle, subset):
        sim, output, reports, (before, after), tracks = _run(kind, lifecycle, subset)
        fuzz = tuple(p for p in subset if p == "fuzz")
        # (a) Observers never change the simulation.  The permuter is the
        # one active probe: it may move same-instant ties (so compare
        # against the permuter-only run) but never the output bytes.
        assert sim == _run(kind, lifecycle, fuzz)[0]
        assert output == _run(kind, lifecycle, ())[1]
        # (b) Probes never read each other: each report is byte-identical
        # to the one that probe produces when installed alone.
        for name, report in reports.items():
            assert report == _run(kind, lifecycle, (name, *fuzz))[2][name], name
        # (c) After a reboot every installed probe hears the new engine.
        if lifecycle == "reboot":
            assert set(before) == set(subset)
            for name in subset:
                assert after[name] > before[name], name
        if lifecycle == "add_shard" and "trace" in subset:
            assert "shard3" in tracks
