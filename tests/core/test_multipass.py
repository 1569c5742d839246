"""Tests for multi-phase merging (M > 1, paper Sec 2.1/2.4.1)."""

from __future__ import annotations

import pytest

from repro.baselines.external_merge_sort import ExternalMergeSort
from repro.core.base import SortConfig
from repro.core.recovery import grouped, max_fanin, merge_rounds
from repro.core.wiscsort import WiscSort
from repro.errors import ConfigError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset


class TestPlanning:
    def test_max_fanin_scales_with_buffer(self):
        assert max_fanin(16 * 1024, entry_size=100) == 10
        assert max_fanin(160 * 1024, entry_size=100) == 102

    def test_max_fanin_floor_is_two(self):
        assert max_fanin(64, entry_size=100) == 2

    def test_merge_rounds(self):
        assert merge_rounds(0, 8) == 0
        assert merge_rounds(1, 8) == 1
        assert merge_rounds(8, 8) == 1
        assert merge_rounds(9, 8) == 2
        assert merge_rounds(64, 8) == 2
        assert merge_rounds(65, 8) == 3

    def test_invalid_fanin_rejected(self):
        with pytest.raises(ConfigError):
            merge_rounds(10, 1)

    def test_grouped_partitions(self):
        names = [f"r{i}" for i in range(7)]
        groups = list(grouped(names, 3))
        assert groups == [["r0", "r1", "r2"], ["r3", "r4", "r5"], ["r6"]]


def run(pmem, system, n=6_000, seed=5):
    fmt = RecordFormat()
    machine = Machine(profile=pmem)
    f = generate_dataset(machine, "input", n, fmt, seed=seed)
    result = system.run(machine, f)  # validates
    return machine, result


class TestEmsMultiPass:
    def test_tiny_buffer_forces_multiple_phases(self, pmem):
        fmt = RecordFormat()
        # read buffer windows at most 4096/(100*16) = 2 runs; many runs.
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = ExternalMergeSort(fmt, config=config)
        _, result = run(pmem, system, n=600)
        assert system.merge_passes >= 2
        assert result.n_records == 600

    def test_single_phase_in_the_common_case(self, pmem):
        system = ExternalMergeSort(RecordFormat())
        run(pmem, system)
        assert system.merge_passes <= 1

    def test_traffic_grows_with_merge_passes(self, pmem):
        fmt = RecordFormat()
        n = 2_000
        dataset = n * fmt.record_size

        def traffic(read_buffer):
            config = SortConfig(read_buffer=read_buffer, write_buffer=4096)
            system = ExternalMergeSort(fmt, config=config)
            _, result = run(pmem, system, n=n)
            return system.merge_passes, result.user_written

        m1, written1 = traffic(64 * 1024)
        m2, written2 = traffic(4 * 1024)
        assert m2 > m1
        # Sec 2.4.1: device write traffic is (1 + M) x dataset.
        assert written1 == pytest.approx((1 + m1) * dataset, rel=0.05)
        assert written2 == pytest.approx((1 + m2) * dataset, rel=0.20)

    def test_intermediate_files_cleaned(self, pmem):
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = ExternalMergeSort(RecordFormat(), config=config)
        machine, _ = run(pmem, system, n=600)
        leftovers = [n for n in machine.fs.list() if "merge" in n or ".run." in n]
        assert leftovers == []


class TestWiscSortMultiPass:
    def test_many_indexmap_runs_merge_in_phases(self, pmem):
        fmt = RecordFormat()
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = WiscSort(
            fmt, config=config, force_merge_pass=True, merge_chunk_entries=100
        )
        _, result = run(pmem, system, n=3_000)
        assert system.merge_passes >= 2
        assert result.n_records == 3_000

    def test_values_gathered_exactly_once(self, pmem):
        # Intermediate phases merge entries only: RECORD-read user bytes
        # equal the dataset regardless of M.
        fmt = RecordFormat()
        n = 3_000
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = WiscSort(
            fmt, config=config, force_merge_pass=True, merge_chunk_entries=100
        )
        machine, _ = run(pmem, system, n=n)
        assert system.merge_passes >= 2
        gathered = machine.stats.tags["RECORD read"].user_bytes
        assert gathered == pytest.approx(n * fmt.record_size)

    def test_intermediate_runs_cleaned(self, pmem):
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = WiscSort(
            RecordFormat(), config=config,
            force_merge_pass=True, merge_chunk_entries=100,
        )
        machine, _ = run(pmem, system, n=3_000)
        leftovers = [n for n in machine.fs.list() if "index" in n]
        assert leftovers == []

    def test_compressed_multipass_still_correct(self, pmem):
        from repro.core.compression import CompressionModel

        fmt = RecordFormat()
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = WiscSort(
            fmt, config=config, force_merge_pass=True, merge_chunk_entries=100,
            compression=CompressionModel(frame_entries=64),
        )
        _, result = run(pmem, system, n=2_000)
        assert result.n_records == 2_000
        assert system.merge_passes >= 2
