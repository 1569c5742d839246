"""Oracle property tests for the three ``SimFile`` gather kernels.

The kernels move bytes with strided / windowed views and contiguous
slices; the oracle kept here is the index-matrix formula they replaced
(one int64 index per payload byte).  Every payload must equal it and be
a fresh, C-contiguous, writeable ``uint8`` array that does not alias the
file.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.machine import Machine


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
        assert _payload(f.read_gather([0, 10, 3], 0, tag="t")).shape == (3, 0)

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
