"""Oracle property tests for the three ``SimFile`` gather kernels.

The kernels move bytes with strided / windowed views and contiguous
slices; the oracle kept here is the index-matrix formula they replaced
(one int64 index per payload byte).  Every payload must equal it and be
a fresh, C-contiguous, writeable ``uint8`` array that does not alias the
file.

The write side has one rule to keep: a file owns its bytes.  A first
write that covers an empty file whole allocates once (the file's copy is
its backing array) and must be indistinguishable from the grow-then-copy
path in contents, size, capacity and space charged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.base import SortSystem
from repro.errors import SimulatedCrash, StorageError
from repro.faults import parse_fault_spec
from repro.machine import Machine
from tests.conftest import batch_trace
from tests.storage.test_file import run_op


@pytest.fixture
def output_arrays(monkeypatch):
    """``(backing array size, file size)`` of each sort's output, taken
    as ``SortSystem.finish`` starts: a validated output is released there."""
    seen = {}
    finish = SortSystem.finish

    def spy(self, machine, input_file, output_file, validate):
        seen[output_file.name] = (output_file._data.size, output_file.size)
        return finish(self, machine, input_file, output_file, validate)

    monkeypatch.setattr(SortSystem, "finish", spy)
    return seen


def _file(pmem, data: np.ndarray):
    """A fresh machine's file holding ``data``.  The backing array is
    larger than the file; its slack is made non-zero so a gather that
    strays past ``size`` shows."""
    f = Machine(profile=pmem).fs.create("f")
    f.poke(0, data)
    assert f._data.size > f.size
    f._data[f.size :] = 0xAA
    return f


def _payload(op) -> np.ndarray:
    return op.on_complete(op)


def _oracle_fixed(data: np.ndarray, starts, access_size: int) -> np.ndarray:
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    return data[starts[:, None] + np.arange(access_size, dtype=np.int64)]


def _oracle_var(data: np.ndarray, starts, sizes) -> np.ndarray:
    pieces = [data[s : s + z] for s, z in zip(starts, sizes)]
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)


def _assert_fresh_payload(f, payload: np.ndarray, expected: np.ndarray) -> None:
    assert payload.dtype == np.uint8
    assert payload.shape == expected.shape
    assert np.array_equal(payload, expected)
    assert payload.flags.c_contiguous and payload.flags.writeable
    assert not np.shares_memory(payload, f._data)
    before = f.peek()
    payload[...] = ~payload
    assert np.array_equal(f.peek(), before)


file_bytes = st.binary(min_size=1, max_size=300).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)


@st.composite
def strided_case(draw):
    data = draw(file_bytes)
    access = draw(st.integers(1, data.size))
    count = draw(st.integers(0, 12))
    stride = draw(st.integers(access, access + 40))
    span = (max(count, 1) - 1) * stride + access
    if span > data.size:
        # shrink to what fits, keeping count 0 and 1 reachable
        count = min(count, 1 + (data.size - access) // stride)
        span = (max(count, 1) - 1) * stride + access
    offset = draw(st.sampled_from([0, data.size - span]) | st.integers(0, data.size - span))
    return data, offset, count, stride, access


@st.composite
def gather_case(draw):
    data = draw(file_bytes)
    access = draw(st.integers(1, data.size) | st.just(data.size))
    last = data.size - access
    # unaligned, overlapping and repeated offsets; `last` ends on the
    # file's final byte
    starts = draw(
        st.lists(st.integers(0, last) | st.sampled_from([0, last]), max_size=20)
    )
    return data, starts, access


@st.composite
def var_case(draw):
    data = draw(file_bytes)
    spans = draw(
        st.lists(
            st.integers(0, data.size).flatmap(
                lambda s: st.tuples(st.just(s), st.integers(0, data.size - s))
            ),
            max_size=15,
        )
    )
    return data, [s for s, _ in spans], [z for _, z in spans]


class TestKernelsMatchIndexMatrixOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=strided_case())
    def test_read_strided(self, pmem, case):
        data, offset, count, stride, access = case
        f = _file(pmem, data)
        payload = _payload(f.read_strided(offset, count, stride, access, tag="t"))
        starts = offset + np.arange(count, dtype=np.int64) * stride
        _assert_fresh_payload(f, payload, _oracle_fixed(data, starts, access))

    @settings(max_examples=200, deadline=None)
    @given(case=gather_case())
    def test_read_gather(self, pmem, case):
        data, starts, access = case
        f = _file(pmem, data)
        payload = _payload(f.read_gather(starts, access, tag="t"))
        _assert_fresh_payload(f, payload, _oracle_fixed(data, starts, access))

    @settings(max_examples=200, deadline=None)
    @given(case=var_case())
    def test_read_gather_var(self, pmem, case):
        data, starts, sizes = case
        f = _file(pmem, data)
        payload = _payload(f.read_gather_var(starts, sizes, tag="t"))
        _assert_fresh_payload(f, payload, _oracle_var(data, starts, sizes))


class TestAlignedGather:
    """From 512 offsets up, offsets that are all multiples of the access
    size take whole rows of the record matrix; fewer offsets, or one
    unaligned one, use the window view.  Both must be the oracle's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_oracle(self, pmem, data):
        access = data.draw(st.integers(1, 12))
        rows = data.draw(st.integers(1, 25))
        slack = data.draw(st.integers(0, access - 1))  # ragged last record
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        content = rng.integers(0, 256, size=rows * access + slack, dtype=np.uint8)
        count = data.draw(st.sampled_from([0, 1, 2, 511, 512, 513, 700]))
        starts = rng.integers(0, rows, size=count) * access
        starts[: count // 2 : 7] = (rows - 1) * access  # the last row, repeatedly
        if count and data.draw(st.booleans()):  # one stray offset anywhere in range
            starts[data.draw(st.integers(0, count - 1))] = data.draw(
                st.integers(0, content.size - access)
            )
        f = _file(pmem, content)
        payload = _payload(f.read_gather(starts, access, tag="t"))
        _assert_fresh_payload(f, payload, _oracle_fixed(content, starts, access))

    @pytest.mark.parametrize("repeat", [1, 600], ids=["few", "many"])
    @pytest.mark.parametrize(
        "starts",
        [[0], [90], [90, 0, 90], [0, 10, 20, 5], [91]],
        ids=["single-row", "last-row", "repeats", "one-unaligned", "past-last"],
    )
    def test_edges(self, pmem, starts, repeat):
        content = np.arange(100, dtype=np.uint8)
        f = _file(pmem, content)
        starts = starts * repeat
        if 91 in starts:
            with pytest.raises(StorageError):
                f.read_gather(starts, 10, tag="t")
            return
        payload = _payload(f.read_gather(starts, 10, tag="t"))
        _assert_fresh_payload(f, payload, _oracle_fixed(content, starts, 10))


class TestFirstWriteAndOwnership:
    @pytest.mark.parametrize("nbytes", [1, 4095, 4096, 4097, 200_000])
    @pytest.mark.parametrize("how", ["poke", "write", "append"])
    def test_whole_file_first_write_is_indistinguishable(self, machine, nbytes, how):
        f = machine.fs.create("f")
        source = (np.arange(nbytes) % 251).astype(np.uint8)
        if how == "poke":
            f.poke(0, source)
        elif how == "write":
            run_op(machine, f.write(0, source, tag="w"))
        else:
            run_op(machine, f.append(source, tag="w"))
        assert f.size == nbytes == machine.fs.used
        assert np.array_equal(f.peek(), source)
        assert f._data.size == max(nbytes, 4096)  # what grow-then-copy left
        assert not f._data[nbytes:].any()
        assert not np.shares_memory(f._data, source)
        # and it still grows, overwrites and truncates like any file
        f.poke(nbytes, b"tail")
        f.poke(0, b"\x07")
        assert f.size == nbytes + 4 == machine.fs.used
        assert bytes(f.peek(nbytes, 4)) == b"tail" and f.peek(0, 1)[0] == 7
        f.truncate(1)
        assert f.size == 1 == machine.fs.used and not f._data[1:].any()

    def test_first_write_at_an_offset_zero_fills_the_gap(self, machine):
        f = machine.fs.create("f")
        f.poke(5000, np.full(5000, 9, dtype=np.uint8))
        assert f.size == 10_000 and not f.peek(0, 5000).any()
        assert f._data.size == 10_000

    @pytest.mark.parametrize(
        "write",
        [
            lambda f, a: f.write(0, a, tag="w"),
            lambda f, a: f.append(a, tag="w"),
            lambda f, a: f.write(0, a.reshape(-1, 100), tag="w"),
            lambda f, a: f.write(0, a[::2], tag="w"),
            lambda f, a: f.write(100, a, tag="w"),
        ],
        ids=["whole-first", "append", "matrix", "strided-source", "at-offset"],
    )
    @pytest.mark.parametrize("prefilled", [False, True], ids=["empty", "prefilled"])
    def test_source_mutation_after_a_timed_write_never_reaches_the_file(
        self, machine, write, prefilled
    ):
        f = machine.fs.create("f")
        if prefilled:
            f.poke(0, np.zeros(300, dtype=np.uint8))
        source = (np.arange(20_000) % 251).astype(np.uint8)
        op = write(f, source)
        stored = f.peek()
        source[...] = 0xEE
        run_op(machine, op)
        source[...] = 0x11
        assert np.array_equal(f.peek(), stored)
        assert not np.shares_memory(f._data, source)

    def test_torn_first_write_keeps_a_prefix_then_retries_whole(self):
        machine = Machine()
        machine.install_faults(parse_fault_spec("torn@op:0", seed=1))
        f = machine.fs.create("f")
        source = (np.arange(200_000) % 251).astype(np.uint8)
        run_op(machine, f.write(0, source, tag="w"))
        stats = machine.faults.stats
        assert stats.torn_writes == 1 and 0 < stats.torn_bytes_discarded < source.size
        assert f.size == source.size == machine.fs.used
        assert np.array_equal(f.peek(), source)
        source[...] = 0
        assert f.peek().any()

    def test_crash_rolls_a_first_write_back_to_its_durable_prefix(self):
        source = (np.arange(1 << 20) % 251).astype(np.uint8)
        clean = Machine()
        run_op(clean, clean.fs.create("f").write(0, source, tag="w"))
        machine = Machine()
        machine.install_faults(parse_fault_spec(f"crash@t:{clean.now / 2}", seed=1))
        f = machine.fs.create("f")
        with pytest.raises(SimulatedCrash):
            run_op(machine, f.write(0, source, tag="w"))
        assert 0 < f.size < source.size and f.size == machine.fs.used
        assert np.array_equal(f.peek(), source[: f.size])
        assert f._data.size == source.size and not f._data[f.size :].any()
        assert machine.faults.stats.torn_bytes_discarded == source.size - f.size

    def test_sanitized_service_charges_every_byte_it_moves(self, output_arrays):
        report = api.serve(
            api.RunOptions(records=2_000, sanitize=True),
            arrivals=batch_trace(*(dict(name=f"j{i}", records=2_000) for i in range(4))),
            shards=2,
        )
        audit = report.extras["sanitizer"].audit_report()
        assert audit["drift"] == []
        # each output was one whole-file first write
        assert output_arrays == {job.output_file.name: (200_000, 200_000) for job in report.jobs}


class TestEdges:
    def test_whole_file_as_one_access(self, pmem):
        data = np.arange(97, dtype=np.uint8)
        f = _file(pmem, data)
        for op in (
            f.read_strided(0, 1, stride=97, access_size=97, tag="t"),
            f.read_gather([0], 97, tag="t"),
        ):
            _assert_fresh_payload(f, _payload(op), data.reshape(1, 97))

    def test_zero_width_gather_keeps_its_shape(self, pmem):
        f = _file(pmem, np.arange(10, dtype=np.uint8))
        for repeat in (1, 200):  # either side of the row-take threshold
            payload = _payload(f.read_gather([0, 10, 3] * repeat, 0, tag="t"))
            assert payload.shape == (3 * repeat, 0)

    def test_truncated_tail_is_out_of_reach(self, pmem):
        """Bytes past ``size`` stay in the backing array; the window
        view must be cut at ``size``, not at the array's capacity."""
        f = _file(pmem, np.arange(20, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_gather([17], 4, tag="t")
        with pytest.raises(StorageError):
            f.read_strided(12, 2, stride=5, access_size=4, tag="t")
        with pytest.raises(StorageError):
            f.read_gather_var([18], [3], tag="t")


class TestBoundsStillRaise:
    """numpy would wrap a negative row index on the window view and read
    real bytes from the far end: only the explicit check prevents it."""

    @pytest.mark.parametrize("starts", [[-1], [0, -4], [5, -100]])
    def test_negative_gather_offsets(self, pmem, starts):
        f = _file(pmem, np.arange(100, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_gather(starts, 4, tag="t")
        with pytest.raises(StorageError):
            f.read_gather_var(starts, [1] * len(starts), tag="t")

    def test_negative_strided_offset(self, pmem):
        f = _file(pmem, np.arange(100, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_strided(-10, 2, stride=10, access_size=4, tag="t")

    @pytest.mark.parametrize("start", [97, 100, 10_000])
    def test_past_end(self, pmem, start):
        f = _file(pmem, np.arange(100, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_gather([0, start], 4, tag="t")
        with pytest.raises(StorageError):
            f.read_gather_var([0, start], [1, 4], tag="t")
        with pytest.raises(StorageError):
            f.read_strided(start, 1, stride=4, access_size=4, tag="t")


class TestPeekView:
    def test_view_is_read_only_and_shares_the_file(self, pmem):
        f = _file(pmem, np.arange(50, dtype=np.uint8))
        view = f.peek_view(10, 20)
        assert np.array_equal(view, f.peek(10, 20))
        assert np.shares_memory(view, f._data)
        with pytest.raises(ValueError):
            view[0] = 1
        f.poke(10, b"\xff")  # the file itself stays writeable
        assert view[0] == 0xFF

    def test_view_is_extent_checked(self, pmem):
        f = _file(pmem, np.arange(50, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.peek_view(40, 20)
        with pytest.raises(StorageError):
            f.peek_view(-1, 2)


class TestReserveAndStaging:
    """``reserve`` sizes the backing array only; ``staging`` hands out a
    reserved extent for a gather to fill ahead of the timed write that
    then moves nothing.  No other payload may alias a file."""

    def test_reserve_charges_nothing_and_keeps_the_contents(self, machine):
        f = machine.fs.create("f")
        f.poke(0, b"head")
        used = machine.fs.used
        f.reserve(10_000)
        assert machine.fs.used == used == f.size == 4
        assert f._data.size == 10_000 and bytes(f.peek()) == b"head"
        f.reserve(100)  # never shrinks
        assert f._data.size == 10_000
        # the reserved bytes are a hole: a write at its far end leaves
        # everything between reading as zeros
        run_op(machine, f.write(9_999, b"z", tag="w"))
        assert not f.peek(4, 9_995).any() and bytes(f.peek(9_999)) == b"z"
        run_op(machine, f.write(4, np.ones(9_996, dtype=np.uint8), tag="w"))
        assert f._data.size == 10_000 == f.size == machine.fs.used

    def test_staged_gather_lands_in_place_and_the_write_moves_nothing(self, machine):
        source = machine.fs.create("in")
        data = (np.arange(100_000) % 251).astype(np.uint8)
        source.poke(0, data)
        out = machine.fs.create("out")
        out.reserve(data.size)
        starts = np.arange(999, -1, -1, dtype=np.int64) * 100
        stage = out.staging(0, 100_000)
        assert np.shares_memory(stage, out._data)
        payload = run_op(machine, source.read_gather(starts, 100, tag="g", out=stage))
        assert np.shares_memory(payload, out._data) and payload.shape == (1000, 100)
        assert out.size == 0 and not out.peek_view().size
        stats = machine.stats.tags
        run_op(machine, out.write(0, payload.reshape(-1), tag="w"))
        assert stats["w"].user_bytes == 100_000 == out.size == machine.fs.used - data.size
        assert np.array_equal(out.peek(), _oracle_fixed(data, starts, 100).reshape(-1))

    def test_a_hole_poked_past_a_staged_extent_reads_as_zeros(self, machine):
        f = machine.fs.create("f")
        f.reserve(1_000)
        f.staging(100, 200)[:] = 7
        f.poke(500, b"x")
        assert f.size == 501 and not f.peek(0, 500).any()
        f.truncate(0)
        f.staging(0, 300)[:] = 9
        run_op(machine, f.write(600, b"y", tag="w"))
        assert not f.peek(0, 600).any() and bytes(f.peek(600, 1)) == b"y"

    @pytest.mark.parametrize("plan", [None, "torn@op:50"])
    def test_a_dirty_reservation_never_shows_through_a_hole(self, machine, plan):
        f = machine.fs.create("f")
        f.reserve(4_000)
        f.staging(0, 4_000)[:] = 0xFF  # every reserved byte dirty
        run_op(machine, f.write(0, f.staging(0, 1_000), tag="w"))
        if plan is not None:
            machine.install_faults(parse_fault_spec(plan, seed=1))
        f.truncate(500)
        f.poke(1_500, b"p")
        run_op(machine, f.write(3_000, b"w", tag="w"))
        assert f.size == 3_001
        assert (f.peek(0, 500) == 0xFF).all()
        assert not f.peek(500, 1_000).any()  # truncated, then a hole
        assert not f.peek(1_501, 1_499).any()  # a hole left by a write
        assert bytes(f.peek(1_500, 1)) == b"p" and bytes(f.peek(3_000)) == b"w"

    def test_staging_refuses_what_it_cannot_hand_over(self, machine):
        f = machine.fs.create("f")
        f.reserve(1_000)
        f.poke(0, np.ones(100, dtype=np.uint8))
        assert f.staging(50, 100) is None  # below the end of file
        assert f.staging(900, 101) is None  # past the reservation
        assert f.staging(100, 900) is not None
        machine.install_faults(parse_fault_spec("torn@op:0", seed=1))
        assert f.staging(100, 900) is None  # a torn write must copy

    @pytest.mark.parametrize("records", [1, 511, 512, 5_000])
    def test_unstaged_payloads_never_alias_the_file(self, machine, records):
        data = (np.arange(records * 100) % 253).astype(np.uint8)
        f = machine.fs.create("f")
        f.reserve(data.size + 1_000)
        run_op(machine, f.write(0, data, tag="w"))
        starts = np.arange(records, dtype=np.int64)[::-1] * 100
        for op in (
            f.read_gather(starts, 100, tag="t"),
            f.read_gather(starts + 3, 90, tag="t"),
            f.read(0, data.size, tag="t"),
            f.read_strided(0, records, 100, 10, tag="t"),
        ):
            payload = _payload(op)
            _assert_fresh_payload(f, payload, payload.copy())

    def test_sanitized_onepass_balances_its_charge_audit(self, output_arrays):
        result = api.sort(api.RunOptions(records=20_000, sanitize=True))
        audit = result.extras["sanitizer"].audit_report()
        assert audit["drift"] == [] and audit["raw_uncharged_moves"] == 0
        assert audit["moved_write"] == audit["charged_write"] == 2_000_000
        assert audit["moved_read"] == audit["charged_read"]
        assert output_arrays == {result.output_name: (2_000_000, 2_000_000)}
