"""Crash recovery never makes a released input again.

EMS releases its input once its runs are durable, and a sharded sort
releases its parts once the scatter is.  A recovery from a crash after
that point must resume from the runs or staging files alone.  One that
read the input instead would still sort correctly, but it would
regenerate the input once per chunk it read.  Counting
``DatasetRecipe`` calls shows that: each run below must make no input
bytes between generation and the end of the sort (validation, which
reads the input once, is left out), and must leave the fault-free
output byte for byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.external_merge_sort import ExternalMergeSort
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import SortConfig
from repro.faults import FaultPlan, parse_fault_spec, run_with_faults
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import DatasetRecipe, generate_dataset
from repro.storage.file import SimFile
from repro.units import KiB

FMT = RecordFormat()
SEED = 11
#: 13 runs of 32 KiB, one final merge of ~270 ops.
EMS_RECORDS = 4_000
EMS_CONFIG = SortConfig(read_buffer=32 * KiB, write_buffer=8 * KiB)
SHARDS = 4
SHARDED_RECORDS = 8_000
SHARDED_CONFIG = SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB)
#: Crash points sampled per shard from its sort phase.
SAMPLES_PER_SHARD = 4


@pytest.fixture
def regenerations(monkeypatch):
    """Every ``DatasetRecipe`` call made from here on."""
    calls = []
    make = DatasetRecipe.__call__

    def counted(recipe):
        calls.append(recipe)
        return make(recipe)

    monkeypatch.setattr(DatasetRecipe, "__call__", counted)
    return calls


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# ----------------------------------------------------------------------
def _ems():
    machine = Machine()
    data = generate_dataset(machine, "input", EMS_RECORDS, FMT, seed=SEED)
    return machine, data, ExternalMergeSort(FMT, config=EMS_CONFIG, checkpoint=True)


def _ems_merge_ops(monkeypatch):
    """The op indices of the fault-free final merge, first ``MERGE read``
    to the last op, and the output digest."""
    machine, data, system = _ems()
    probe = machine.install_faults(FaultPlan(), count_only=True)
    first = []
    read = SimFile.read

    def spy(self, offset, nbytes, tag, *args, **kwargs):
        if tag == "MERGE read" and not first:
            first.append(probe.op_index)
        return read(self, offset, nbytes, tag, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SimFile, "read", spy)
        result = system.run(machine, data, validate=False)
    assert system.merge_passes == 1
    return range(first[0], probe.op_index), _sha256(machine.fs.open(result.output_name).peek())


def test_ems_recovers_from_every_merge_crash_without_its_input(monkeypatch, regenerations):
    ops, want = _ems_merge_ops(monkeypatch)
    assert len(ops) > 100
    for k in ops:
        machine, data, system = _ems()
        regenerations.clear()
        machine.install_faults(parse_fault_spec(f"crash@op:{k}"))
        result, report = run_with_faults(system, machine, data, validate=False)
        assert report.crashes == report.recoveries == 1, k
        assert regenerations == [], k
        assert _sha256(machine.fs.open(result.output_name).peek()) == want, k


# ----------------------------------------------------------------------
def _sharded():
    cluster = Cluster(shards=SHARDS, config=SHARDED_CONFIG)
    data = generate_cluster_dataset(cluster, "input", SHARDED_RECORDS, FMT, seed=SEED)
    system = ShardedWiscSort(
        FMT, config=SHARDED_CONFIG, system="wiscsort-merge", checkpoint=True
    )
    return cluster, data, system


def _sharded_output(cluster, result) -> str:
    """Digest of the partition outputs in order, wherever they landed."""
    parts = []
    for d in range(SHARDS):
        name = f"{result.output_name}.shard{d}"
        parts += [s.fs.open(name).peek() for s in cluster.shards if s.fs.exists(name)]
    return _sha256(np.concatenate(parts))


def _sort_phase_ops(monkeypatch):
    """Per shard, the op indices of the fault-free run's sort phase
    (from the first per-shard sort attempt on), and the output digest."""
    cluster, data, system = _sharded()
    probe = cluster.install_faults(FaultPlan(), count_only=True)
    starts = {}
    attempt = ShardedWiscSort._attempt

    def spy(self, *args, **kwargs):
        if not starts:
            starts.update(
                (domain, inj.op_index) for domain, inj in probe.injectors.items()
            )
        return (yield from attempt(self, *args, **kwargs))

    with monkeypatch.context() as patch:
        patch.setattr(ShardedWiscSort, "_attempt", spy)
        result = system.run(cluster, data, validate=False)
    ends = probe.ops_seen()
    return {d: range(starts[d], ends[d]) for d in ends}, _sharded_output(cluster, result)


def test_a_sharded_sort_recovers_from_sort_phase_crashes_without_its_input(
    monkeypatch, regenerations
):
    phases, want = _sort_phase_ops(monkeypatch)
    specs = []
    for domain, ops in sorted(phases.items()):
        assert len(ops) >= SAMPLES_PER_SHARD, domain
        step = len(ops) // SAMPLES_PER_SHARD
        specs += [f"{domain}:crash@op:{k}" for k in ops[::step][:SAMPLES_PER_SHARD]]
    for spec in specs:
        cluster, data, system = _sharded()
        regenerations.clear()
        cluster.install_faults(parse_fault_spec(spec, seed=SEED))
        result, report = run_with_faults(system, cluster, data, validate=False)
        assert report.crashes == report.recoveries == 1, spec
        assert regenerations == [], spec
        assert _sharded_output(cluster, result) == want, spec
