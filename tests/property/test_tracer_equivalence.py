"""Tracer counter tracks and interference records equal the kept oracle's.

A :class:`~repro.trace.Tracer` samples ``read_bw`` / ``write_bw`` /
``cores`` per machine track (``net_bw`` on a cluster's ``"net"`` track)
once per settle epoch, and stamps every I/O op record with the
read-write interference multiplier in force at issue.  The oracle kept
here is a ``Tracer`` subclass carrying the earlier bodies of
``_make_interval_observer``, ``_make_net_observer`` and
``_interference`` verbatim: each epoch it re-classifies every active op
of the global interval-observer list, and each issue scans
``fluid.active`` filtered by domain.  On every run below -- standalone
MergePass slices, sharded sorts with a crash and a straggler, a cluster
without an interconnect and the sort service -- the real tracer must record exactly the oracle's counter rows and
interference values (``==`` on floats).
"""

from __future__ import annotations

import pytest

from repro import api
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.sim.fluid import (
    OBS_CPU_COMPUTE,
    OBS_CPU_COPY,
    OBS_IO_READ,
    OBS_IO_WRITE,
    OBS_NET,
    observer_code,
)
from repro.trace import Tracer
from repro.units import KiB
from repro.workloads.background import BackgroundClients

from tests.conftest import _PMEM, batch_trace

FMT = RecordFormat()
SMALL = SortConfig(read_buffer=16 * KiB, write_buffer=8 * KiB)
CHAOS = "shard1:crash@50%,shard0:slow@t:1e-5+1:x0.1"


class OracleTracer(Tracer):
    """The per-op re-classifying samplers and the ``fluid.active`` scan."""

    def _make_interval_observer(self, machine, key):
        domain = machine.domain
        io_cpu_bw = machine.host.io_cpu_bw
        copy_bw = machine.host.copy_bw_per_core

        def observe(t0: float, t1: float, ops: list) -> None:
            if t1 - t0 <= 0:
                return
            read_bw = 0.0
            write_bw = 0.0
            cores = 0.0
            for op in ops:
                attrs = op.attrs
                if domain is not None and (
                    attrs is None or attrs.get("domain") != domain
                ):
                    continue
                # Cached classification (see fluid.observer_code); same
                # adds in the same order as the attribute branches.
                code = op._obs
                if code is None:
                    code = observer_code(op)
                if code == OBS_IO_READ:
                    read_bw += op.rate
                    cores += op.rate / io_cpu_bw
                elif code == OBS_IO_WRITE:
                    write_bw += op.rate
                    cores += op.rate / io_cpu_bw
                elif code == OBS_CPU_COMPUTE:
                    cores += op.rate
                elif code == OBS_CPU_COPY:
                    cores += op.rate / copy_bw
            self.counter_sample(key, "read_bw", read_bw, t=t0)
            self.counter_sample(key, "write_bw", write_bw, t=t0)
            self.counter_sample(key, "cores", cores, t=t0)

        return observe

    def _make_net_observer(self):
        def observe(t0: float, t1: float, ops: list) -> None:
            if t1 - t0 <= 0:
                return
            net_bw = 0.0
            seen = False
            for op in ops:
                code = op._obs
                if code is None:
                    code = observer_code(op)
                if code == OBS_NET:
                    net_bw += op.rate
                    seen = True
            if seen or self._last_counter.get(("net", "net_bw")):
                self.counter_sample("net", "net_bw", net_bw, t=t0)

        return observe

    def _interference(self, machine, attrs, domain) -> float:
        fluid = self._engine.fluid
        readers = 0.0
        writers = 0.0
        for other in fluid.active:  # reprolint: disable=SIM003 -- integer sums are order-independent
            oattrs = other.attrs
            if other.kind != "io" or oattrs is None:
                continue
            if domain is not None and oattrs.get("domain") != domain:
                continue
            if oattrs["direction"] == "read":
                readers += oattrs.get("threads", 1)
            else:
                writers += oattrs.get("threads", 1)
        interference = machine.profile.interference
        if attrs["direction"] == "read":
            return interference.read_multiplier(writers)
        return interference.write_multiplier(readers)


def _records(tracer):
    """What the two tracers must agree on, with a sanity floor."""
    interference = [rec.get("interference") for rec in tracer.ops]
    assert tracer.counters and any(v is not None for v in interference)
    return tracer.counters, interference


def _assert_same(run):
    oracle, real = OracleTracer(), Tracer()
    run(oracle)
    run(real)
    want = _records(oracle)
    got = _records(real)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return real


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("writers", [0, 2, 8])
def test_mergepass_slice(monkeypatch, vector, writers):
    monkeypatch.setenv("REPRO_SIM_VECTOR", "1" if vector else "0")

    def run(tracer):
        machine = Machine(profile=_PMEM)
        tracer.install(machine)
        data = generate_dataset(machine, "input", 6_000, FMT, seed=33)
        if writers:
            BackgroundClients(machine, writers, "write").start()
        system = WiscSort(
            FMT, config=SMALL, force_merge_pass=True, merge_chunk_entries=1_000
        )
        system.run(machine, data, validate=False)

    real = _assert_same(run)
    tracks = {track for _t, track, _s, _v in real.counters}
    assert "machine" in tracks


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_crash_and_straggler(shards):
    def run(tracer):
        options = api.RunOptions(
            records=6_000, system="wiscsort-merge", seed=5, faults=CHAOS,
            trace=tracer, validate=False,
        )
        result = api.sort(options, shards=shards)
        assert result.extras["fault_report"].crashes == 1

    real = _assert_same(run)
    samples = [row for row in real.counters if row[1] == "net"]
    assert samples
    # Idle shards emit zero samples: every shard track returns to zero.
    for d in range(shards):
        values = [v for _t, trk, s, v in real.counters
                  if trk == f"shard{d}" and s == "read_bw"]
        assert 0.0 in values[1:]


def test_cluster_without_interconnect():
    def run(tracer):
        cluster = Cluster(shards=2, profile=_PMEM, link_bw=None)
        tracer.install(cluster)
        data = generate_cluster_dataset(cluster, "input", 4_000, FMT, seed=7)
        ShardedWiscSort(FMT).run(cluster, data, validate=False)

    real = _assert_same(run)
    assert all(track != "net" for _t, track, _s, _v in real.counters)


def test_traced_service():
    def run(tracer):
        api.serve(
            api.RunOptions(records=2_000, trace=tracer, validate=False),
            arrivals=batch_trace(
                *(dict(name=f"j{i}", records=2_000) for i in range(4))
            ),
            shards=2,
        )

    _assert_same(run)
