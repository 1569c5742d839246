"""Tests for the scale-out cluster: sharding, shuffle, byte-identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ShardedWiscSort,
    generate_cluster_dataset,
)
from repro.core.wiscsort import WiscSort
from repro.errors import ConfigError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset


def _single_device_reference(pmem, n, fmt, seed):
    machine = Machine(profile=pmem)
    data = generate_dataset(machine, "input", n, fmt, seed=seed)
    result = WiscSort(fmt).run(machine, data)
    return machine.fs.open(result.output_name).peek(), result


class TestClusterConstruction:
    def test_homogeneous_default(self):
        cluster = Cluster(shards=3)
        assert len(cluster.shards) == 3
        domains = [shard.domain for shard in cluster.shards]
        assert domains == ["shard0", "shard1", "shard2"]
        # one shared engine and DRAM pool across shards
        assert all(s.engine is cluster.engine for s in cluster.shards)
        assert all(s.dram is cluster.dram for s in cluster.shards)

    def test_heterogeneous_profiles_by_name(self):
        cluster = Cluster(profiles=["pmem", "bd-device"])
        assert len(cluster.shards) == 2
        assert "bd-device" in cluster.shards[1].profile.describe()

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            Cluster(shards=0)

    def test_dataset_split_covers_input(self, pmem):
        fmt = RecordFormat()
        cluster = Cluster(shards=3, profile=pmem)
        sharded = generate_cluster_dataset(cluster, "in", 1_000, fmt, seed=5)
        assert sharded.size == fmt.file_bytes(1_000)
        machine = Machine(profile=pmem)
        data = generate_dataset(machine, "in", 1_000, fmt, seed=5)
        assert np.array_equal(sharded.merged(), data.peek())


class TestByteIdentity:
    """The tentpole invariant: sharded output == single-device output."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_equals_single(self, n_shards, pmem):
        fmt = RecordFormat()
        n, seed = 4_000, 42
        reference, single = _single_device_reference(pmem, n, fmt, seed)

        cluster = Cluster(shards=n_shards, profile=pmem)
        sharded_input = generate_cluster_dataset(cluster, "input", n, fmt,
                                                 seed=seed)
        system = ShardedWiscSort(fmt)
        result = system.run(cluster, sharded_input)
        assert result.validated
        merged = np.concatenate([
            part.peek()
            for part in result_output_parts(cluster, system, n_shards)
            if part.size
        ])
        assert np.array_equal(merged, reference)

    def test_uneven_split_three_shards(self, pmem):
        # 1000 records across 3 shards: 333/333/334 -- bounds round
        fmt = RecordFormat()
        reference, _ = _single_device_reference(pmem, 1_000, fmt, 7)
        cluster = Cluster(shards=3, profile=pmem)
        sharded_input = generate_cluster_dataset(cluster, "input", 1_000,
                                                 fmt, seed=7)
        system = ShardedWiscSort(fmt)
        result = system.run(cluster, sharded_input)
        assert result.validated
        merged = np.concatenate([
            part.peek()
            for part in result_output_parts(cluster, system, 3)
            if part.size
        ])
        assert np.array_equal(merged, reference)

    def test_shard_stats_record_traffic(self, pmem):
        fmt = RecordFormat()
        cluster = Cluster(shards=2, profile=pmem)
        sharded_input = generate_cluster_dataset(cluster, "input", 2_000,
                                                 fmt, seed=1)
        ShardedWiscSort(fmt).run(cluster, sharded_input)
        for shard in cluster.shards:
            assert shard.stats.bytes_read_internal > 0
            assert shard.stats.bytes_written_internal > 0
        # the merged ClusterStats view aggregates both shards
        assert cluster.stats.bytes_read_internal == sum(
            s.stats.bytes_read_internal for s in cluster.shards
        )
        tags = dict(cluster.stats.tags)
        assert any("SHUFFLE" in tag for tag in tags)


def result_output_parts(cluster, system, n_shards):
    return [
        cluster.shards[d].fs.open(f"{system.output_name}.shard{d}")
        for d in range(n_shards)
    ]


class TestClusterDeterminism:
    def test_sharded_sort_trace_identical(self, pmem):
        from repro.analysis.sanitizer import verify_determinism

        fmt = RecordFormat()

        def run(sanitizer):
            cluster = Cluster(shards=4, profile=pmem)
            sanitizer.install(cluster)
            sharded_input = generate_cluster_dataset(
                cluster, "input", 2_000, fmt, seed=42
            )
            ShardedWiscSort(fmt).run(cluster, sharded_input)

        report = verify_determinism(run, runs=2)
        assert report.ok, report.render()

    def test_sanitizer_zero_drift_across_shards(self, pmem):
        cluster = Cluster(shards=2, profile=pmem)
        sanitizer = cluster.install_sanitizer()
        fmt = RecordFormat()
        sharded_input = generate_cluster_dataset(cluster, "input", 2_000,
                                                 fmt, seed=3)
        ShardedWiscSort(fmt).run(cluster, sharded_input)
        sanitizer.check()  # raises ChargeDriftError on drift
