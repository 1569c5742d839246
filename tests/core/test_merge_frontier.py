"""``drive_merge`` must be observationally identical to the naive loop.

Every merge-based system runs its cursors through
:func:`repro.core.kway.drive_merge` (incremental
:class:`~repro.core.kway.MergeFrontier` bookkeeping, columnar batch
steps when the fleet is uniform).  :func:`merge_step` /
:func:`redistribute_on_drain` are the original full-scan formulation of
the same protocol; nothing in ``src/`` calls them any more -- they
survive as the oracle these tests compare the driver against.  Both are
driven over identical run sets and must produce identical emitted
batches, per-batch fan-in (seen through the ``MERGE other`` charge),
refill traffic and buffer redistribution: with the vector kernel on and
off, with key-pointer and whole-record entries, with pooled and serial
refills, and over a mixed cursor fleet (scalar fallback).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    CompressedRunCursor,
    CompressedRunWriter,
    CompressionModel,
)
from repro.core.indexmap import IndexMap
from repro.core.kway import (
    MergeFrontier,
    PendingRows,
    RunCursor,
    drive_merge,
    merge_step,
    redistribute_on_drain,
)
from repro.core.natural_runs import NaturalRunCursor
from repro.machine import Machine
from repro.records.format import RecordFormat, key_sort_indices, record_sort_indices
from repro.records.gensort import generate_dataset

from tests.core.test_kway import build_runs, sorted_runs

BOTH_KERNELS = pytest.mark.parametrize("vector", ["0", "1"], ids=["scalar", "vector"])
BOTH_REFILLS = pytest.mark.parametrize("serial", [False, True], ids=["pooled", "serial"])


def drive_naive(machine, cursors):
    """The oracle: full-scan merge_step + redistribute_on_drain."""
    batches = []

    def driver():
        while any(not c.done for c in cursors):
            for cursor in cursors:
                if cursor.needs_refill:
                    data = yield cursor.refill_op(tag="merge")
                    cursor.accept(data)
            emitted, ways = merge_step(cursors)
            if emitted.shape[0]:
                batches.append((emitted, ways))
            redistribute_on_drain(cursors)

    machine.run(driver())
    return batches


def drive_new(machine, cursors, serial=False, read_threads=4):
    """The production driver; fan-in is recovered from its compare charge."""
    batches = []
    charges = []
    real_compute = machine.compute

    def spy(seconds, tag, cores=1):
        if tag == "MERGE other":
            charges.append(seconds)
        return real_compute(seconds, tag=tag, cores=cores)

    machine.compute = spy

    def sink(emitted):
        batches.append(emitted.copy())
        return iter(())

    machine.run(
        drive_merge(machine, cursors, read_threads, sink, serial_refills=serial)
    )
    return batches, charges


def assert_equivalent(machine, naive_batches, naive_cursors, batches, charges, cursors):
    assert len(naive_batches) == len(batches) == len(charges)
    for (expected, ways), emitted, charge in zip(naive_batches, batches, charges):
        assert np.array_equal(expected, emitted)
        assert charge == machine.host.merge_compare_seconds(expected.shape[0], ways)
    # Same refill traffic and same end-state buffer shares per run.
    for cn, cf in zip(naive_cursors, cursors):
        assert cn.bytes_loaded == cf.bytes_loaded
        assert cn.window_entries == cf.window_entries
        assert cn.taken == cf.taken


def plain_cursors(machine, runs, entry_size, key_size, window_bytes):
    return [
        RunCursor(f, entry_size, key_size, window_bytes)
        for f in build_runs(machine, runs, entry_size)
    ]


def compare_plain(pmem, runs, entry_size, key_size, window_bytes, serial):
    m1 = Machine(profile=pmem)
    naive_cursors = plain_cursors(m1, runs, entry_size, key_size, window_bytes)
    naive_batches = drive_naive(m1, naive_cursors)
    m2 = Machine(profile=pmem)
    cursors = plain_cursors(m2, runs, entry_size, key_size, window_bytes)
    batches, charges = drive_new(m2, cursors, serial=serial)
    assert_equivalent(m2, naive_batches, naive_cursors, batches, charges, cursors)
    return batches


class TestFrontierEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=sorted_runs(), window=st.integers(1, 64))
    def test_identical_batches_and_refills(self, pmem, data, window):
        key_size, entry_size, runs = data
        window_bytes = max(entry_size, window)
        with pytest.MonkeyPatch.context() as env:
            for vector in ("0", "1"):
                env.setenv("REPRO_SIM_VECTOR", vector)
                for serial in (False, True):
                    compare_plain(
                        pmem, runs, entry_size, key_size, window_bytes, serial
                    )

    @BOTH_REFILLS
    @BOTH_KERNELS
    @pytest.mark.parametrize("window_records", [1, 7, 40])
    def test_whole_record_entries(self, pmem, monkeypatch, vector, serial, window_records):
        """EMS's shape: 100-byte records are the entries, 10-byte keys."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
        rng = np.random.default_rng(17)
        runs = []
        for n in (0, 1, 55, 130, 130, 89):
            mat = rng.integers(0, 256, size=(n, 100), dtype=np.uint8)
            mat[:, :8] = 0  # collide key prefixes: ties and near-ties
            runs.append(mat[key_sort_indices(mat[:, :10])])
        batches = compare_plain(pmem, runs, 100, 10, window_records * 100, serial)
        merged = np.concatenate(batches, axis=0)
        assert merged.shape[0] == sum(r.shape[0] for r in runs)

    @BOTH_REFILLS
    @BOTH_KERNELS
    def test_mixed_fleet_falls_back_to_scalar_step(self, pmem, monkeypatch, vector, serial):
        """A plain run, a natural (input-windowing) region and a
        compressed run in one merge: not index-eligible, same output."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
        fmt = RecordFormat()
        entry = fmt.index_entry_size

        def fleet(machine):
            data = generate_dataset(machine, "input", 900, fmt, seed=4)
            records = data.peek().reshape(-1, fmt.record_size)
            head = records[:300]
            records[:300] = head[record_sort_indices(head, fmt.key_size)]
            data.poke(0, records.reshape(-1))

            def run_bytes(first, count):
                keys = records[first : first + count, : fmt.key_size]
                return IndexMap.for_fixed_records(
                    keys, first, fmt.record_size, fmt.pointer_size
                ).sorted().to_bytes()

            plain = machine.fs.create("plain")
            plain.poke(0, run_bytes(300, 300))
            model = CompressionModel(frame_entries=64)
            payload, frames, _ratio = CompressedRunWriter(model).build_frames(
                run_bytes(600, 300), entry
            )
            packed = machine.fs.create("packed")
            packed.poke(0, payload)
            window = 37 * entry
            return [
                RunCursor(plain, entry, fmt.key_size, window),
                NaturalRunCursor(
                    data, 0, 300, fmt.record_size, fmt.key_size,
                    fmt.pointer_size, window,
                ),
                CompressedRunCursor(packed, frames, entry, fmt.key_size, machine, model),
            ]

        m1 = Machine(profile=pmem)
        naive_cursors = fleet(m1)
        naive_batches = drive_naive(m1, naive_cursors)
        m2 = Machine(profile=pmem)
        cursors = fleet(m2)
        assert MergeFrontier(cursors)._index is None
        batches, charges = drive_new(m2, cursors, serial=serial)
        assert_equivalent(m2, naive_batches, naive_cursors, batches, charges, cursors)
        assert sum(b.shape[0] for b in batches) == 900
        assert m2.stats.tags["MERGE decompress"].busy_time > 0

    def test_uniform_fleet_takes_the_columnar_step(self, pmem, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VECTOR", "1")
        machine = Machine(profile=pmem)
        run = np.arange(40, dtype=np.uint8).reshape(-1, 2)
        cursors = plain_cursors(machine, [run, run], 2, 1, 8)
        index = MergeFrontier(cursors)._index
        assert index is not None
        # Keys only: the entries stay in the cursors' own windows.
        assert not hasattr(index, "E")

    def test_frontier_output_is_globally_sorted(self, pmem):
        machine = Machine(profile=pmem)
        rng = np.random.default_rng(11)
        runs = []
        for _ in range(5):
            mat = rng.integers(0, 256, size=(60, 6), dtype=np.uint8)
            runs.append(mat[key_sort_indices(mat[:, :2])])
        batches, _ = drive_new(machine, plain_cursors(machine, runs, 6, 2, 18))
        merged = np.concatenate(batches, axis=0)
        assert merged.shape[0] == 300
        keys = [bytes(row[:2]) for row in merged]
        assert keys == sorted(keys)

    def test_frontier_skips_initially_empty_runs(self, pmem):
        machine = Machine(profile=pmem)
        run = np.array([[3, 1], [5, 2]], dtype=np.uint8)
        empty = np.zeros((0, 2), dtype=np.uint8)
        batches, _ = drive_new(
            machine, plain_cursors(machine, [empty, run, empty], 2, 1, 4)
        )
        assert np.array_equal(np.concatenate(batches, axis=0), run)


class TestPendingRows:
    def test_pop_exactly_n_in_order_across_chunks(self):
        pending = PendingRows(2)
        rows = np.arange(20, dtype=np.uint8).reshape(-1, 2)
        pending.push(rows[:3])
        pending.push(rows[3:4])
        pending.push(rows[4:])
        assert pending.count == 10
        assert np.array_equal(pending.pop(5), rows[:5])
        assert pending.count == 5
        assert np.array_equal(pending.residual(), rows[5:])
        assert pending.count == 5  # residual leaves the rows buffered
        assert np.array_equal(pending.pop(5), rows[5:])
        assert pending.count == 0
        assert pending.residual().shape == (0, 2)

    def test_batches_leave_the_short_tail_until_final(self):
        pending = PendingRows(1)
        pending.push(np.zeros((0, 1), dtype=np.uint8))
        pending.push(np.arange(7, dtype=np.uint8).reshape(-1, 1))
        assert [b.shape[0] for b in pending.batches(3)] == [3, 3]
        assert pending.count == 1
        assert [b.shape[0] for b in pending.batches(3, final=True)] == [1]
        assert list(pending.batches(3, final=True)) == []
