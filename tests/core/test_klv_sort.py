"""End-to-end tests for the variable-length (KLV) WiscSort variant."""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import ConcurrencyModel, SortConfig
from repro.core.klv_sort import WiscSortKLV, reencode_klv, scan_klv_headers
from repro.machine import Machine
from repro.records.klv import KLVFormat, decode_klv, encode_klv, generate_klv_dataset


def klv_run(pmem, n, system=None, min_value=5, max_value=60, seed=0, **machine_kw):
    fmt = KLVFormat()
    machine = Machine(profile=pmem, **machine_kw)
    f = generate_klv_dataset(
        machine, "input", n, fmt, min_value=min_value, max_value=max_value, seed=seed
    )
    system = system or WiscSortKLV(fmt)
    result = system.run(machine, f)
    return machine, system, result


class TestScanHeaders:
    def test_scan_recovers_offsets_and_lengths(self):
        fmt = KLVFormat(key_size=3, len_size=2)
        keys = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        values = [np.array([9] * 7, dtype=np.uint8), np.array([8] * 2, dtype=np.uint8)]
        stream = encode_klv(keys, values, fmt)
        out_keys, offsets, vlens = scan_klv_headers(stream, fmt)
        assert np.array_equal(out_keys, keys)
        assert vlens.tolist() == [7, 2]
        assert offsets.tolist() == [5, 17]  # header 5B, then 5+7+5

    def test_empty_stream(self):
        fmt = KLVFormat()
        keys, offsets, vlens = scan_klv_headers(np.zeros(0, dtype=np.uint8), fmt)
        assert keys.shape == (0, fmt.key_size)
        assert offsets.size == 0

    def test_reencode_roundtrip(self):
        fmt = KLVFormat(key_size=2, len_size=1)
        keys = np.array([[1, 1], [2, 2]], dtype=np.uint8)
        vlens = np.array([3, 1], dtype=np.int64)
        flat = np.array([7, 7, 7, 9], dtype=np.uint8)
        stream = reencode_klv(keys, vlens, flat, fmt)
        assert decode_klv(stream, fmt) == [
            (b"\x01\x01", b"\x07\x07\x07"),
            (b"\x02\x02", b"\x09"),
        ]


class TestOnePassKLV:
    def test_sorts_variable_records(self, pmem):
        _, system, result = klv_run(pmem, 2_000)
        assert result.n_records == 2_000
        assert system.used_merge_pass is False

    def test_wide_length_spread(self, pmem):
        klv_run(pmem, 500, min_value=0, max_value=400)

    def test_single_record(self, pmem):
        _, _, result = klv_run(pmem, 1)
        assert result.n_records == 1

    def test_empty_input(self, pmem):
        fmt = KLVFormat()
        machine = Machine(profile=pmem)
        f = machine.fs.create("input")
        result = WiscSortKLV(fmt).run(machine, f)
        assert result.n_records == 0

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 20))
    def test_random_property(self, pmem, n, seed):
        klv_run(pmem, n, seed=seed)

    def test_io_overlap_model(self, pmem):
        fmt = KLVFormat()
        system = WiscSortKLV(
            fmt, config=SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
        )
        klv_run(pmem, 1_000, system=system)


class TestMergePassKLV:
    def test_forced_merge_pass(self, pmem):
        fmt = KLVFormat()
        system = WiscSortKLV(fmt, force_merge_pass=True, merge_chunk_entries=300)
        _, system, result = klv_run(pmem, 1_500, system=system)
        assert system.used_merge_pass is True
        assert result.n_records == 1_500

    def test_dram_budget_triggers_merge_pass(self, pmem):
        fmt = KLVFormat()
        n = 5_000
        budget = n * fmt.index_entry_size // 3
        system = WiscSortKLV(fmt, config=SortConfig(
            read_buffer=8192, write_buffer=8192))
        _, system, result = klv_run(
            pmem, n, system=system, dram_budget=budget
        )
        assert system.used_merge_pass is True

    def test_run_files_cleaned(self, pmem):
        fmt = KLVFormat()
        system = WiscSortKLV(fmt, force_merge_pass=True, merge_chunk_entries=200)
        machine, _, _ = klv_run(pmem, 1_000, system=system)
        assert not [n for n in machine.fs.list() if "indexmap" in n]

    def test_merges_in_rounds(self, pmem):
        """16 runs against a fan-in of 13 take an entry-only intermediate
        round, and the output is OnePass's byte for byte."""
        fmt = KLVFormat()
        config = SortConfig(read_buffer=4096, write_buffer=4096)
        system = WiscSortKLV(
            fmt, config=config, force_merge_pass=True, merge_chunk_entries=500
        )
        machine, system, result = klv_run(pmem, 8_000, system=system)
        assert system.merge_passes == 2
        assert result.n_records == 8_000
        assert sorted(machine.fs.list()) == ["input", result.output_name]
        onepass_machine, onepass, _ = klv_run(
            pmem, 8_000, system=WiscSortKLV(fmt, config=config)
        )
        assert onepass.used_merge_pass is False

        def digest(m, name):
            return hashlib.sha256(m.fs.open(name).peek().tobytes()).hexdigest()

        assert digest(machine, result.output_name) == digest(
            onepass_machine, onepass.output_name
        )


class TestSerialScanCost:
    def test_run_read_is_single_threaded(self, pmem):
        """The serial header walk must cost a 1-thread sequential scan."""
        machine, _, result = klv_run(pmem, 5_000)
        file_size = machine.fs.open("input").size
        single_thread_bw = pmem.seq_read.aggregate(1)
        expected_min = file_size / single_thread_bw
        assert result.phase("RUN read") >= 0.9 * expected_min
