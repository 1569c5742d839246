"""``drive_merge`` must be observationally identical to the naive loop.

Every merge-based system runs its cursors through
:func:`repro.core.kway.drive_merge` (incremental
:class:`~repro.core.kway.MergeFrontier` bookkeeping, array-shaped steps
over one window slab when the fleet is uniform).  :func:`merge_step` /
:func:`redistribute_on_drain` are the original full-scan formulation of
the same protocol; nothing in ``src/`` calls them any more -- they
survive as the oracle these tests compare the driver against.  Both are
driven over identical run sets and must produce identical emitted
batches, per-batch fan-in (seen through the ``MERGE other`` charge),
cursor state after every batch, refill traffic and buffer
redistribution: with the vector kernel on and
off, with key-pointer and whole-record entries, with pooled and serial
refills, and over a mixed cursor fleet (scalar fallback).
"""

from __future__ import annotations

import sys
import weakref

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
    StagedRows,
    drive_merge,
    merge_step,
    redistribute_on_drain,
    window_bytes_per_run,
)
from repro.core.natural_runs import NaturalRunCursor
from repro.machine import Machine
from repro.records.format import RecordFormat, key_sort_indices, record_sort_indices
from repro.records.gensort import generate_dataset

from tests.core.test_kway import build_runs, sorted_runs

BOTH_KERNELS = pytest.mark.parametrize("vector", ["0", "1"], ids=["scalar", "vector"])
BOTH_REFILLS = pytest.mark.parametrize("serial", [False, True], ids=["pooled", "serial"])


def snapshot(cursors):
    """What a checkpoint (or any sink) may read between two steps."""
    return [(c.taken, c.remaining, c.needs_refill) for c in cursors]


def drive_naive(machine, cursors, states=None):
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
                if states is not None:
                    states.append(snapshot(cursors))
            redistribute_on_drain(cursors)

    machine.run(driver())
    return batches


def drive_new(machine, cursors, serial=False, read_threads=4, copy=True, states=None):
    """The production driver; fan-in is recovered from its compare charge.

    ``copy=False`` keeps the emitted arrays themselves (a batch that
    aliased window storage would be overwritten by a later refill);
    ``states`` collects a cursor snapshot after every batch.
    """
    batches = []
    charges = []
    real_compute = machine.compute

    def spy(seconds, tag, cores=1):
        if tag == "MERGE other":
            charges.append(seconds)
        return real_compute(seconds, tag=tag, cores=cores)

    machine.compute = spy

    def sink(emitted):
        batches.append(emitted.copy() if copy else emitted)
        if states is not None:
            states.append(snapshot(cursors))
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


def compare_plain(
    pmem, runs, entry_size, key_size, window_bytes, serial, copy=True, prepare=None
):
    """Both drivers over the same runs.  ``prepare(machine, cursors)``
    puts each fleet in a starting state; cursor state is compared after
    every batch, not only at the end."""
    m1 = Machine(profile=pmem)
    naive_cursors = plain_cursors(m1, runs, entry_size, key_size, window_bytes)
    m2 = Machine(profile=pmem)
    cursors = plain_cursors(m2, runs, entry_size, key_size, window_bytes)
    if prepare is not None:
        prepare(m1, naive_cursors)
        prepare(m2, cursors)
    naive_states, states = [], []
    naive_batches = drive_naive(m1, naive_cursors, naive_states)
    batches, charges = drive_new(m2, cursors, serial=serial, copy=copy, states=states)
    assert_equivalent(m2, naive_batches, naive_cursors, batches, charges, cursors)
    assert states == naive_states
    return batches


def random_runs(seed, sizes, entry_size, key_size=10):
    rng = np.random.default_rng(seed)
    runs = []
    for n in sizes:
        mat = rng.integers(0, 256, size=(n, entry_size), dtype=np.uint8)
        mat[:, : key_size - 2] = 0  # collide key prefixes: ties and near-ties
        runs.append(mat[key_sort_indices(mat[:, :key_size])])
    return runs


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
        frontier = MergeFrontier(cursors)
        index = frontier._index
        assert index is not None
        # The read buffer exists once: after note_refilled the windows
        # are views of the index's slab and nothing holds the payloads.
        refills = frontier.take_refills()
        payloads = []
        for cursor in refills:
            op = cursor.refill_op(tag="merge")
            data = op.on_complete(op)
            payloads.append(weakref.ref(data))
            cursor.accept(data)
        del op, data
        frontier.note_refilled(refills)
        assert len(refills) == 2
        for cursor, payload in zip(cursors, payloads):
            assert cursor.remaining == 4
            assert np.shares_memory(cursor.window, index.E)
            assert payload() is None

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


ENTRY_SIZES = pytest.mark.parametrize("entry_size", [15, 100], ids=["15B", "100B"])


def refill(frontier):
    """The refill half of the protocol, by hand (no engine)."""
    refills = frontier.take_refills()
    for cursor in refills:
        op = cursor.refill_op(tag="merge")
        cursor.accept(op.on_complete(op))
    frontier.note_refilled(refills)


def index_nbytes(index):
    """Bytes of every array an index holds (views counted once)."""
    roots = {}
    for name in index.__slots__:
        value = getattr(index, name, None)
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            roots[id(value)] = value.nbytes
    return sum(roots.values())


class TestWindowSlab:
    """What the index-owned slab must not change or cost."""

    @ENTRY_SIZES
    @BOTH_REFILLS
    @BOTH_KERNELS
    def test_emitted_batches_never_alias_window_storage(
        self, pmem, monkeypatch, vector, serial, entry_size
    ):
        """The sink keeps the very arrays it was handed and they are
        compared only after the merge: a batch that was a view of a
        window would have been overwritten by its row's next refill."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
        runs = random_runs(23, (200, 1, 160, 200, 90), entry_size)
        compare_plain(pmem, runs, entry_size, 10, 7 * entry_size, serial, copy=False)

    @ENTRY_SIZES
    @BOTH_REFILLS
    @BOTH_KERNELS
    def test_pending_residual_outlives_refills_of_its_rows(
        self, pmem, monkeypatch, vector, serial, entry_size
    ):
        """A sink staging through PendingRows: 64-row flushes over
        3-entry windows leave a residual that sits through several
        refills of the rows it was emitted from."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
        runs = random_runs(29, (150, 150, 40), entry_size)
        window = 3 * entry_size
        m1 = Machine(profile=pmem)
        naive = drive_naive(m1, plain_cursors(m1, runs, entry_size, 10, window))
        m2 = Machine(profile=pmem)
        pending = PendingRows(entry_size)
        flushed = []

        def sink(emitted):
            pending.push(emitted)
            flushed.extend(pending.batches(64))
            return iter(())

        cursors = plain_cursors(m2, runs, entry_size, 10, window)
        m2.run(drive_merge(m2, cursors, 4, sink, serial_refills=serial))
        flushed.extend(pending.batches(64, final=True))
        assert [b.shape[0] for b in flushed] == [64] * 5 + [20]
        assert np.array_equal(
            np.concatenate(flushed), np.concatenate([b for b, _ways in naive])
        )

    @BOTH_REFILLS
    @BOTH_KERNELS
    def test_staged_rows_emit_the_merge_in_place(self, pmem, monkeypatch, vector, serial):
        """``emit_to`` = a :class:`StagedRows`' destination: every step
        emits into the output's reserved extent past its end, every
        batch is that extent, and the output holds the naive merge."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
        runs = random_runs(41, (150, 1, 90, 150), 100)
        m1 = Machine(profile=pmem)
        naive = drive_naive(m1, plain_cursors(m1, runs, 100, 10, 7 * 100))
        m2 = Machine(profile=pmem)
        out = m2.fs.create("out")
        out.reserve(sum(r.nbytes for r in runs))
        pending = StagedRows(out, 100)
        in_place = []

        def sink(emitted):
            assert emitted.base is out._data
            pending.push(emitted)
            for batch in pending.batches(64):
                in_place.append(batch.base is out._data)
                out.write(out.size, batch.reshape(-1), tag="w")
            return iter(())

        cursors = plain_cursors(m2, runs, 100, 10, 7 * 100)
        m2.run(drive_merge(
            m2, cursors, 4, sink, serial_refills=serial, emit_to=pending.destination
        ))
        assert np.array_equal(pending.residual(), out._data[out.size :].reshape(-1, 100))
        for batch in pending.batches(64, final=True):
            out.write(out.size, batch.reshape(-1), tag="w")
        assert in_place == [True] * 6
        assert np.array_equal(
            out.peek().reshape(-1, 100), np.concatenate([b for b, _ways in naive])
        )

    @BOTH_REFILLS
    @BOTH_KERNELS
    def test_cursor_state_is_truthful_between_steps(self, pmem, monkeypatch, vector, serial):
        """``taken`` / ``remaining`` / ``needs_refill`` after every
        batch equal the naive driver's (``compare_plain`` compares the
        snapshots step for step) -- a merge checkpoint reads ``taken``
        at every flush -- for a fleet that reaches the frontier with one
        run resumed by ``skip_entries``, one window partly consumed by
        hand and one windowed but untouched."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
        runs = random_runs(31, (60, 45, 0, 80, 33), 15)

        def prepare(machine, cursors):
            cursors[1].skip_entries(20)

            def window_two():
                for cursor, by_hand in ((cursors[3], 5), (cursors[4], 0)):
                    cursor.accept((yield cursor.refill_op(tag="merge")))
                    cursor.take(by_hand)

            machine.run(window_two())

        batches = compare_plain(pmem, runs, 15, 10, 9 * 15, serial, prepare=prepare)
        assert sum(b.shape[0] for b in batches) == 60 + 25 + 75 + 33

    def test_row_numbers_wider_than_one_byte(self, pmem, monkeypatch):
        """Past 256 runs the mirror's row prefix takes two bytes."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", "1")
        runs = random_runs(37, [5] * 300, 15)
        batches = compare_plain(pmem, runs, 15, 10, 2 * 15, serial=False)
        assert sum(b.shape[0] for b in batches) == 1500

    def test_presorted_input_keeps_the_slab_within_the_read_buffer(self, pmem, monkeypatch):
        """Pre-sorted input drains its runs one after another, each
        handing its buffer share to the survivors, until the last run
        windows the whole read buffer.  An index that kept dead rows at
        the grown width would reach fan-in x read buffer (200k records,
        ten runs, 96 KiB: a 1,048,000 B key mirror, 10.7x)."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", "1")
        read_buffer = 96 * 1024
        machine = Machine(profile=pmem)
        ordinals = np.arange(200_000, dtype=">u8").view(np.uint8).reshape(-1, 8)
        entries = np.zeros((200_000, 15), dtype=np.uint8)
        entries[:, 2:10] = ordinals
        runs = list(entries.reshape(10, 20_000, 15))
        window = window_bytes_per_run(read_buffer, len(runs), 15)
        frontier = MergeFrontier(plain_cursors(machine, runs, 15, 10, window))
        peak = merged = 0
        while not frontier.done:
            refill(frontier)
            emitted, _ways = frontier.step()
            merged += emitted.shape[0]
            peak = max(peak, index_nbytes(frontier._index))
        assert merged == 200_000
        assert frontier.cursors[-1].window_entries * 15 > 0.95 * read_buffer
        assert peak <= 3 * read_buffer

    def test_step_cost_is_flat_in_the_number_of_contributing_rows(self, pmem, monkeypatch):
        """Python + C calls made by one mid-merge ``step()`` at fan-in
        16 and at fan-in 256 (same window, uniform keys, no run drained
        yet): an exact count, no timing.  A step that searched, sliced
        and appended per contributing row made ~16x the calls at 256."""
        monkeypatch.setenv("REPRO_SIM_VECTOR", "1")

        def calls_per_step(fanin):
            machine = Machine(profile=pmem)
            rng = np.random.default_rng(5)
            runs = []
            for _ in range(fanin):
                mat = rng.integers(0, 256, size=(64, 15), dtype=np.uint8)
                runs.append(mat[key_sort_indices(mat[:, :10])])
            frontier = MergeFrontier(plain_cursors(machine, runs, 15, 10, 16 * 15))
            counts = []
            for _ in range(12):
                refill(frontier)
                calls = [0]

                def count(frame, event, arg):
                    calls[0] += event in ("call", "c_call")

                # Put back whatever profiler spans the suite (a census).
                previous = sys.getprofile()
                sys.setprofile(count)
                try:
                    frontier.step()
                finally:
                    sys.setprofile(previous)
                counts.append(calls[0])
            assert len(frontier.live) == fanin
            return counts

        narrow, wide = calls_per_step(16), calls_per_step(256)
        assert abs(max(wide) - max(narrow)) <= 4, (narrow, wide)


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

    def test_a_pop_inside_one_chunk_is_a_view(self):
        pending = PendingRows(2)
        first, second = np.zeros((6, 2), np.uint8), np.ones((4, 2), np.uint8)
        pending.push(first)
        pending.push(second)
        assert pending.pop(4).base is first
        straddling = pending.pop(3)  # two rows of ``first``, one of ``second``
        assert straddling.base is None and straddling.shape == (3, 2)
        assert pending.pop(3).base is second

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers(0, 9)),
                st.tuples(st.just("pop"), st.integers(0, 12)),
                st.tuples(st.just("batches"), st.integers(1, 8), st.booleans()),
                st.tuples(st.just("residual")),
            ),
            max_size=30,
        )
    )
    def test_matches_a_reference_concatenation(self, ops):
        """Every push / pop / batches / residual program gives the rows a
        plain concatenation of everything pushed gives, in order."""
        pending = PendingRows(3)
        reference = np.zeros((0, 3), dtype=np.uint8)
        made = 0
        for op in ops:
            if op[0] == "push":
                rows = (np.arange(op[1] * 3, dtype=np.int64) + 3 * made) % 251
                made += op[1]
                rows = rows.astype(np.uint8).reshape(-1, 3)
                pending.push(rows)
                reference = np.concatenate([reference, rows])
            elif op[0] == "pop":
                n = min(op[1], pending.count)
                assert np.array_equal(pending.pop(n), reference[:n])
                reference = reference[n:]
            elif op[0] == "batches":
                _, capacity, final = op
                for batch in pending.batches(capacity, final):
                    n = batch.shape[0]
                    assert n == capacity or (final and n < capacity)
                    assert np.array_equal(batch, reference[:n])
                    reference = reference[n:]
            else:
                assert np.array_equal(pending.residual(), reference)
            assert pending.count == reference.shape[0]
        assert np.array_equal(pending.residual(), reference)

    def test_batches_leave_the_short_tail_until_final(self):
        pending = PendingRows(1)
        pending.push(np.zeros((0, 1), dtype=np.uint8))
        pending.push(np.arange(7, dtype=np.uint8).reshape(-1, 1))
        assert [b.shape[0] for b in pending.batches(3)] == [3, 3]
        assert pending.count == 1
        assert [b.shape[0] for b in pending.batches(3, final=True)] == [1]
        assert list(pending.batches(3, final=True)) == []
