"""Scalar/vector kernel equivalence: fingerprints must be bit-identical.

The vectorized fluid kernel (and the batched merge-frontier index) are
pure performance work: with ``REPRO_SIM_VECTOR=0`` and ``=1`` every
simulated result -- output bytes, simulated times, per-tag device
accounting, tracer op records and counter tracks, sanitizer charge
audits -- must match bit for bit, float for float.  These tests run the
paper workload shapes under both paths and compare exactly (``==`` on
floats, never ``approx``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.faults import parse_fault_spec, run_with_faults
from repro.machine import Machine
from repro.perf import collect_counters
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.units import KiB
from repro.workloads.background import BackgroundClients

FMT = RecordFormat()

#: Counters that must agree between kernel paths.  Path-reporting
#: counters (vector_solves, scalar_fallbacks, batch sizes) and the
#: BRAID LRU hit rate differ between paths *by design* -- the vector
#: path memoizes per group instead of hitting the model's LRU -- and
#: are excluded.
INVARIANT_COUNTERS = (
    "sim_seconds",
    "engine_steps",
    "clock_advances",
    "timer_events",
    "ops_added",
    "ops_completed",
    "rerate_calls",
    "ops_rerated",
    "rate_changes",
    "intervals_observed",
)


def set_path(monkeypatch, vector: bool) -> None:
    monkeypatch.setenv("REPRO_SIM_VECTOR", "1" if vector else "0")


def machine_fingerprint(machine, result) -> dict:
    stats = machine.stats
    counters = collect_counters(machine)
    return {
        "total_time": result.total_time,
        "phases": tuple(sorted(result.phases.items())),
        "read_internal": stats.bytes_read_internal,
        "written_internal": stats.bytes_written_internal,
        "tags": {
            tag: (t.busy_time, t.internal_bytes, t.user_bytes, t.op_count)
            for tag, t in stats.tags.items()
        },
        "counters": {k: counters[k] for k in INVARIANT_COUNTERS},
    }


def tracer_fingerprint(tracer) -> dict:
    return {
        "ops": tracer.ops,
        "spans": [(s.name, s.cat, s.t0, s.t1) for s in tracer.spans],
        "counters": tracer.counters,
    }


class TestOnepassEquivalence:
    def run_path(self, monkeypatch, vector):
        set_path(monkeypatch, vector)
        machine = Machine()
        sanitizer = machine.install_sanitizer()
        tracer = machine.install_tracer()
        data = generate_dataset(machine, "input", 8_000, FMT, seed=21)
        result = WiscSort(FMT).run(machine, data, validate=False)
        sanitizer.check()
        out = machine.fs.open(result.output_name).peek().tobytes()
        return machine_fingerprint(machine, result), tracer_fingerprint(tracer), out

    def test_paths_bit_identical(self, monkeypatch):
        fp_s, tr_s, out_s = self.run_path(monkeypatch, vector=False)
        fp_v, tr_v, out_v = self.run_path(monkeypatch, vector=True)
        assert fp_s == fp_v
        assert tr_s == tr_v
        assert out_s == out_v


class TestMergePassEquivalence:
    def run_path(self, monkeypatch, vector, writers=2):
        set_path(monkeypatch, vector)
        machine = Machine()
        sanitizer = machine.install_sanitizer()
        tracer = machine.install_tracer()
        data = generate_dataset(machine, "input", 15_000, FMT, seed=33)
        BackgroundClients(machine, writers, "write").start()
        system = WiscSort(
            FMT,
            config=SortConfig(read_buffer=16 * KiB, write_buffer=8 * KiB),
            force_merge_pass=True,
            merge_chunk_entries=1_000,
        )
        result = system.run(machine, data, validate=False)
        sanitizer.check()
        counters = collect_counters(machine)
        out = machine.fs.open(result.output_name).peek().tobytes()
        return (
            machine_fingerprint(machine, result),
            tracer_fingerprint(tracer),
            out,
            counters,
        )

    def test_paths_bit_identical(self, monkeypatch):
        fp_s, tr_s, out_s, c_s = self.run_path(monkeypatch, vector=False)
        fp_v, tr_v, out_v, c_v = self.run_path(monkeypatch, vector=True)
        assert fp_s == fp_v
        assert tr_s == tr_v
        assert out_s == out_v
        # Sanity: the switch actually selected different kernels.
        assert c_s["vector_solves"] == 0
        assert c_v["vector_solves"] > 0

    def test_wide_group_bit_identical(self, monkeypatch):
        # Fig 10 at 16x the paper's largest background population:
        # every solve walks >= 128 rows.
        reference = self.run_path(monkeypatch, vector=False, writers=128)
        default = self.run_path(monkeypatch, vector=True, writers=128)
        assert reference[:3] == default[:3]
        solved = default[3]
        assert solved["vector_solves"] > 0 and solved["vector_batch_size_avg"] >= 128


class TestFaultRunEquivalence:
    """A seeded crash-and-recover run must replay identically."""

    def run_path(self, monkeypatch, vector, at_op):
        set_path(monkeypatch, vector)
        machine = Machine()
        data = generate_dataset(machine, "input", 12_000, FMT, seed=11)
        system = WiscSort(
            FMT,
            SortConfig(read_buffer=16 * KiB, write_buffer=8 * KiB),
            output_name="out",
            checkpoint=True,
            force_merge_pass=True,
            merge_chunk_entries=1_000,
        )
        plan = parse_fault_spec(f"crash@op:{at_op}", seed=101)
        result, report = run_with_faults(system, machine, data, plan=plan)
        out = bytes(bytearray(machine.fs.open("out").peek()))
        fault_counters = {
            k: v
            for k, v in collect_counters(machine).items()
            if k.startswith("fault_")
        }
        return (
            machine_fingerprint(machine, result),
            out,
            report.crashes,
            report.recoveries,
            fault_counters,
        )

    def test_crash_recovery_bit_identical(self, monkeypatch):
        # The workload issues ~617 machine ops; op 300 lands mid-merge.
        res_s = self.run_path(monkeypatch, vector=False, at_op=300)
        res_v = self.run_path(monkeypatch, vector=True, at_op=300)
        assert res_s[2] == res_v[2] == 1  # the crash fired on both paths
        assert res_s == res_v


class TestClusterEquivalence:
    """4-shard sorted cluster: one engine, a resource group per shard."""

    def run_path(self, monkeypatch, vector):
        set_path(monkeypatch, vector)
        cluster = Cluster(shards=4)
        sharded = generate_cluster_dataset(cluster, "input", 6_000, FMT, seed=9)
        system = ShardedWiscSort(FMT)
        result = system.run(cluster, sharded)
        parts = [
            cluster.shards[d].fs.open(f"{system.output_name}.shard{d}").peek()
            for d in range(4)
        ]
        merged = np.concatenate([p for p in parts if p.size])
        # Each shard's statistics observe its own group's op list; the
        # float accumulation order (issue order) shows in every total.
        stats = [shard.stats for shard in cluster.shards] + [cluster.net_stats]
        tags = [
            {
                tag: (t.busy_time.hex(), t.internal_bytes.hex(), t.first_active.hex())
                for tag, t in s.tags.items()
            }
            for s in stats
        ]
        internal = [
            (s.bytes_read_internal.hex(), s.bytes_written_internal.hex())
            for s in stats[:-1]
        ] + [cluster.net_stats.bytes_total.hex()]
        return (
            result.total_time,
            tuple(sorted(result.phases.items())),
            tags,
            internal,
            [len(s.timeline) for s in stats],
            merged,
        )

    def test_paths_bit_identical(self, monkeypatch):
        lists = self.run_path(monkeypatch, vector=False)
        kernel = self.run_path(monkeypatch, vector=True)
        assert kernel[:-1] == lists[:-1]
        assert np.array_equal(kernel[-1], lists[-1])
        assert any(tags for tags in lists[2][:-1]) and lists[2][-1]
        # Captured at 919a023, where each shard's observer filtered the
        # global issue-ordered op list by domain instead.
        digest = hashlib.sha256(repr((lists[2], lists[3])).encode()).hexdigest()
        assert digest == (
            "5e8b7b608c337c04ab1b56e6749a50dd06ed6d404501e1bcc402de7c1e22e78e"
        )
