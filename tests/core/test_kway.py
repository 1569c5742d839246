"""Tests for the k-way cursor merge machinery.

The central property: driving cursors over any set of sorted runs with
the threshold-batch protocol reproduces the global sort exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kway import (
    RunCursor,
    merge_step,
    redistribute_on_drain,
    window_bytes_per_run,
)
from repro.errors import SimulationError
from repro.machine import Machine
from repro.records.format import key_sort_indices


def build_runs(machine, runs_data, entry_size):
    """Write each sorted run to a file; return the files."""
    files = []
    for i, run in enumerate(runs_data):
        f = machine.fs.create(f"run{i}")
        if run.size:
            f.poke(0, run.reshape(-1))
        files.append(f)
    return files


def drive_oracle(machine, files, entry_size, key_size, window_bytes):
    """Run the full cursor protocol; return the merged entry matrix."""
    cursors = [
        RunCursor(f, entry_size, key_size, window_bytes) for f in files
    ]
    collected = []

    def driver():
        while any(not c.done for c in cursors):
            for cursor in cursors:
                if cursor.needs_refill:
                    data = yield cursor.refill_op(tag="merge")
                    cursor.accept(data)
            emitted, _ways = merge_step(cursors)
            if emitted.shape[0]:
                collected.append(emitted)
            redistribute_on_drain(cursors)

    machine.run(driver())
    if not collected:
        return np.zeros((0, entry_size), dtype=np.uint8)
    return np.concatenate(collected, axis=0)


@st.composite
def sorted_runs(draw):
    key_size = draw(st.integers(1, 4))
    entry_size = key_size + draw(st.integers(0, 4))
    n_runs = draw(st.integers(1, 5))
    runs = []
    for _ in range(n_runs):
        n = draw(st.integers(0, 30))
        raw = draw(
            st.lists(
                st.binary(min_size=entry_size, max_size=entry_size),
                min_size=n,
                max_size=n,
            )
        )
        if raw:
            mat = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(n, entry_size)
            mat = mat[key_sort_indices(mat[:, :key_size])]
        else:
            mat = np.zeros((0, entry_size), dtype=np.uint8)
        runs.append(mat)
    return key_size, entry_size, runs


class TestMergeCorrectness:
    @settings(max_examples=60, deadline=None)
    @given(data=sorted_runs(), window=st.integers(1, 64))
    def test_merge_equals_global_sort(self, pmem, data, window):
        key_size, entry_size, runs = data
        machine = Machine(profile=pmem)
        files = build_runs(machine, runs, entry_size)
        window_bytes = max(entry_size, window)
        merged = drive_oracle(machine, files, entry_size, key_size, window_bytes)
        everything = (
            np.concatenate([r for r in runs], axis=0)
            if any(r.size for r in runs)
            else np.zeros((0, entry_size), dtype=np.uint8)
        )
        expected = everything[key_sort_indices(everything[:, :key_size])]
        got = [bytes(row) for row in merged]
        want = sorted([bytes(row) for row in expected])
        assert sorted(got) == want  # same multiset
        keys = [bytes(row[:key_size]) for row in merged]
        assert keys == sorted(keys)  # emitted in key order

    def test_single_run_passthrough(self, pmem):
        machine = Machine(profile=pmem)
        run = np.array([[1, 10], [2, 20], [3, 30]], dtype=np.uint8)
        files = build_runs(machine, [run], 2)
        merged = drive_oracle(machine, files, 2, 1, window_bytes=4)
        assert np.array_equal(merged, run)

    def test_tiny_windows_still_correct(self, pmem):
        machine = Machine(profile=pmem)
        rng = np.random.default_rng(3)
        runs = []
        for _ in range(3):
            mat = rng.integers(0, 256, size=(40, 5), dtype=np.uint8)
            runs.append(mat[key_sort_indices(mat[:, :2])])
        files = build_runs(machine, runs, 5)
        merged = drive_oracle(machine, files, 5, 2, window_bytes=5)  # 1 entry!
        keys = [bytes(r[:2]) for r in merged]
        assert keys == sorted(keys)
        assert merged.shape[0] == 120


class TestCursor:
    def test_refill_protocol(self, pmem):
        machine = Machine(profile=pmem)
        f = machine.fs.create("run")
        f.poke(0, np.arange(20, dtype=np.uint8))
        cursor = RunCursor(f, entry_size=4, key_size=2, window_bytes=8)

        def job():
            assert cursor.needs_refill
            data = yield cursor.refill_op(tag="r")
            cursor.accept(data)

        machine.run(job())
        assert cursor.window.shape == (2, 4)
        assert not cursor.needs_refill
        assert not cursor.file_exhausted

    def test_refill_on_full_window_rejected(self, pmem):
        machine = Machine(profile=pmem)
        f = machine.fs.create("run")
        f.poke(0, np.zeros(8, dtype=np.uint8))
        cursor = RunCursor(f, 4, 2, 8)

        def job():
            data = yield cursor.refill_op(tag="r")
            cursor.accept(data)

        machine.run(job())
        with pytest.raises(SimulationError):
            cursor.refill_op(tag="r")

    def test_take_consumes_window(self, pmem):
        machine = Machine(profile=pmem)
        f = machine.fs.create("run")
        f.poke(0, np.arange(12, dtype=np.uint8))
        cursor = RunCursor(f, 4, 2, 12)

        def job():
            data = yield cursor.refill_op(tag="r")
            cursor.accept(data)

        machine.run(job())
        taken = cursor.take(2)
        assert taken.shape == (2, 4)
        assert cursor.window.shape == (1, 4)

    def test_done_lifecycle(self, pmem):
        machine = Machine(profile=pmem)
        f = machine.fs.create("run")
        f.poke(0, np.zeros(4, dtype=np.uint8))
        cursor = RunCursor(f, 4, 2, 4)
        assert not cursor.done

        def job():
            data = yield cursor.refill_op(tag="r")
            cursor.accept(data)

        machine.run(job())
        assert cursor.file_exhausted
        assert not cursor.done
        cursor.take(1)
        assert cursor.done


class TestBufferManagement:
    def test_window_bytes_per_run_alignment(self):
        assert window_bytes_per_run(100, 3, entry_size=15) == 30
        assert window_bytes_per_run(10, 3, entry_size=15) == 15  # floor 1 entry

    def test_window_bytes_invalid_runs(self):
        with pytest.raises(SimulationError):
            window_bytes_per_run(100, 0, 15)

    def test_redistribute_grows_live_cursors(self, pmem):
        machine = Machine(profile=pmem)
        fa = machine.fs.create("a")
        fb = machine.fs.create("b")
        fa.poke(0, np.zeros(4, dtype=np.uint8))
        fb.poke(0, np.zeros(40, dtype=np.uint8))
        a = RunCursor(fa, 4, 2, 4)
        b = RunCursor(fb, 4, 2, 4)

        def job():
            data = yield a.refill_op(tag="r")
            a.accept(data)

        machine.run(job())
        a.take(1)  # a now done
        before = b.window_entries
        redistribute_on_drain([a, b])
        assert b.window_entries > before
        assert a.window_entries == 0
