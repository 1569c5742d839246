"""Tests for natural-run detection and the elision sort variant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.natural_runs import (
    NaturalRunWiscSort,
    find_natural_runs,
    sortedness,
)
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.device.profiles import bard_device_profile
from repro.errors import ConfigError
from repro.faults import parse_fault_spec, run_with_faults
from repro.machine import Machine
from repro.records.format import RecordFormat, record_sort_indices
from repro.records.gensort import generate_dataset
from repro.units import KiB


def presorted_dataset(machine, n, fraction, fmt, seed=3):
    """A dataset whose leading ``fraction`` of rows is key-sorted."""
    f = generate_dataset(machine, "input", n, fmt, seed=seed)
    if fraction > 0:
        data = f.peek().reshape(-1, fmt.record_size)
        cut = int(n * fraction)
        head = data[:cut]
        data[:cut] = head[record_sort_indices(head, fmt.key_size)]
        f.poke(0, data.reshape(-1))
    return f


class TestFindNaturalRuns:
    def test_fully_sorted_is_one_run(self):
        keys = np.sort(
            np.random.default_rng(0).integers(0, 256, (50, 1), dtype=np.uint8), axis=0
        )
        assert find_natural_runs(keys) == [(0, 50)]

    def test_strictly_descending_is_all_singletons(self):
        keys = np.arange(10, 0, -1, dtype=np.uint8).reshape(-1, 1)
        runs = find_natural_runs(keys)
        assert runs == [(i, i + 1) for i in range(10)]

    def test_runs_partition_the_input(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 256, (200, 3), dtype=np.uint8)
        runs = find_natural_runs(keys)
        assert runs[0][0] == 0 and runs[-1][1] == 200
        for (a, b), (c, d) in zip(runs, runs[1:]):
            assert b == c

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(st.binary(min_size=2, max_size=2), min_size=1, max_size=60)
    )
    def test_each_run_is_nondecreasing_and_maximal(self, rows):
        keys = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), 2)
        runs = find_natural_runs(keys)
        as_bytes = [bytes(r) for r in keys]
        for start, stop in runs:
            segment = as_bytes[start:stop]
            assert segment == sorted(segment)
            if stop < len(rows):
                assert as_bytes[stop - 1] > as_bytes[stop]  # maximality

    def test_empty(self):
        assert find_natural_runs(np.zeros((0, 2), dtype=np.uint8)) == []


class TestSortedness:
    def test_extremes(self):
        asc = np.arange(10, dtype=np.uint8).reshape(-1, 1)
        desc = asc[::-1]
        assert sortedness(asc) == 1.0
        assert sortedness(desc) == 0.0

    def test_singleton(self):
        assert sortedness(np.zeros((1, 4), dtype=np.uint8)) == 1.0


class TestNaturalRunWiscSort:
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_output_correct_at_any_sortedness(self, pmem, fraction):
        fmt = RecordFormat()
        machine = Machine(profile=pmem)
        f = presorted_dataset(machine, 8_000, fraction, fmt)
        system = NaturalRunWiscSort(
            fmt, force_merge_pass=True, merge_chunk_entries=2_000
        )
        result = system.run(machine, f)  # validates
        assert result.n_records == 8_000

    def test_detects_natural_chunks(self, pmem):
        fmt = RecordFormat()
        machine = Machine(profile=pmem)
        f = presorted_dataset(machine, 8_000, 1.0, fmt)
        system = NaturalRunWiscSort(
            fmt, force_merge_pass=True, merge_chunk_entries=2_000
        )
        system.run(machine, f, validate=False)
        assert system.natural_chunks == 4
        assert system.sorted_chunks == 0

    def test_random_input_has_no_natural_chunks(self, pmem):
        fmt = RecordFormat()
        machine = Machine(profile=pmem)
        f = presorted_dataset(machine, 8_000, 0.0, fmt)
        system = NaturalRunWiscSort(
            fmt, force_merge_pass=True, merge_chunk_entries=2_000
        )
        system.run(machine, f, validate=False)
        assert system.natural_chunks == 0
        assert system.sorted_chunks == 4

    def test_elides_indexmap_writes_for_natural_chunks(self, pmem):
        fmt = RecordFormat()

        def run_writes(cls):
            machine = Machine(profile=pmem)
            f = presorted_dataset(machine, 8_000, 1.0, fmt)
            system = cls(fmt, force_merge_pass=True, merge_chunk_entries=2_000)
            system.run(machine, f, validate=False)
            return machine.stats.tags.get("RUN write")

        assert run_writes(NaturalRunWiscSort) is None  # no run files at all
        assert run_writes(WiscSort).user_bytes > 0

    def test_wins_on_write_asymmetric_device(self):
        # The MONTRES/NVMSorting motivation: on devices where writes are
        # expensive, skipping IndexMap writes pays off.
        fmt = RecordFormat()
        bard = bard_device_profile()

        def total(cls):
            machine = Machine(profile=bard)
            f = presorted_dataset(machine, 50_000, 1.0, fmt)
            system = cls(fmt, force_merge_pass=True, merge_chunk_entries=12_500)
            return system.run(machine, f, validate=False).total_time

        assert total(NaturalRunWiscSort) < total(WiscSort)

    def test_mixed_chunks_partition_correctly(self, pmem):
        fmt = RecordFormat()
        machine = Machine(profile=pmem)
        f = presorted_dataset(machine, 8_000, 0.5, fmt)
        system = NaturalRunWiscSort(
            fmt, force_merge_pass=True, merge_chunk_entries=2_000
        )
        system.run(machine, f)
        assert system.natural_chunks >= 1
        assert system.sorted_chunks >= 1
        assert system.natural_chunks + system.sorted_chunks == 4


class TestCheckpointRejected:
    """Natural-run elision keeps state (which chunks were elided) the
    checkpoint manifest does not describe.  Before this was rejected, a
    crash on partly presorted input recovered by rebuilding *every*
    chunk as an IndexMap run and then merging the surviving natural
    regions in again: 29,000 output records for 20,000 input."""

    @staticmethod
    def system():
        return NaturalRunWiscSort(
            RecordFormat(),
            config=SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB),
            force_merge_pass=True,
            merge_chunk_entries=1_500,
            checkpoint=True,
        )

    @pytest.mark.parametrize("at_op", [40, 80, 120])
    def test_crash_on_presorted_prefix_is_a_config_error(self, pmem, at_op):
        machine = Machine(profile=pmem)
        data = presorted_dataset(machine, 20_000, 0.5, RecordFormat())
        with pytest.raises(ConfigError, match="natural-run elision"):
            run_with_faults(
                self.system(), machine, data,
                plan=parse_fault_spec(f"crash@op:{at_op}"),
            )
        assert not machine.fs.exists("wiscsort.out")

    def test_recover_is_rejected_too(self, pmem):
        machine = Machine(profile=pmem)
        data = presorted_dataset(machine, 2_000, 0.5, RecordFormat())
        with pytest.raises(ConfigError, match="natural-run elision"):
            self.system().recover(machine, data)

    def test_plain_runs_unaffected(self, pmem):
        machine = Machine(profile=pmem)
        data = presorted_dataset(machine, 20_000, 0.5, RecordFormat())
        system = self.system()
        system.checkpoint = False
        assert system.run(machine, data).n_records == 20_000
        assert system.natural_chunks >= 6
