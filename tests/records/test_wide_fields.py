"""Record fields moved as one wide element per row, against the kernels
they replaced.

``key_columns``, ``make_records`` and ``_fill_values`` used to move every
field (key bytes, the 8-byte ordinal, the fill) as a 2-D ``uint8`` copy
only 8-10 bytes wide.  Their previous bodies are kept below verbatim as
oracles: every value, every byte, across key widths 1-24, the 256-row
block edges, the layouts validation and the merge pass hand in, and a
non-unit inner stride (which cannot be viewed as wide words and must
take the padded path).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.machine import Machine
from repro.records.format import RecordFormat, key_columns
from repro.records.gensort import make_records
from repro.units import ceil_div
from tests.storage.test_file_kernels import _assert_fresh_payload, _oracle_fixed

ROWS = (0, 1, 255, 256, 257, 2000)


# --- oracles: the previous kernels, verbatim ----------------------------
def _oracle_key_columns(keys: np.ndarray) -> List[np.ndarray]:
    n, k = keys.shape
    padded = np.zeros((n, ceil_div(max(k, 1), 8) * 8), dtype=np.uint8)
    padded[:, :k] = keys
    return list(np.ascontiguousarray(padded.view(">u8").T))


def _oracle_make_records(n_records, fmt, seed=0, ascii_keys=False):
    rng = np.random.default_rng(seed)
    records = np.empty((n_records, fmt.record_size), dtype=np.uint8)
    if ascii_keys:
        keys = rng.integers(32, 127, size=(n_records, fmt.key_size), dtype=np.uint8)
    else:
        nbytes = n_records * fmt.key_size
        words = rng.bit_generator.random_raw(ceil_div(nbytes, 8)).astype("<u8", copy=False)
        keys = words.view(np.uint8)[:nbytes].reshape(n_records, fmt.key_size)
    records[:, : fmt.key_size] = keys
    _oracle_fill_values(records, fmt.key_size)
    return records


def _oracle_fill_values(records, key_size):
    n_records, record_size = records.shape
    id_bytes = min(8, record_size - key_size)
    fill_at = key_size + id_bytes
    ids = np.arange(n_records, dtype="<u8")
    records[:, key_size:fill_at] = ids.view(np.uint8).reshape(n_records, 8)[:, :id_bytes]
    if record_size > fill_at:
        row = (np.arange(record_size - fill_at, dtype=np.uint32) * 7 % 256).astype(np.uint8)
        per_id = ((np.arange(256, dtype=np.uint32) * 131 + 7) % 256).astype(np.uint8)
        table = per_id[:, None] + row[None, :]
        blocks, rest = divmod(n_records, 256)
        records[: blocks * 256].reshape(blocks, 256, record_size)[:, :, fill_at:] = table
        records[blocks * 256 :, fill_at:] = table[:rest]


# --- layouts a key matrix arrives in ------------------------------------
def _contiguous(raw: np.ndarray, k: int) -> np.ndarray:
    return np.ascontiguousarray(raw[:, :k])


def _record_prefix(raw: np.ndarray, k: int) -> np.ndarray:
    # the key field of a 100-byte record matrix, as the sort and the
    # validator slice it
    return raw[:, :k]


def _peek_view(raw: np.ndarray, k: int) -> np.ndarray:
    f = Machine().fs.create("keys")
    f.poke(0, raw)
    view = f.peek_view().reshape(raw.shape)
    assert not view.flags.writeable
    return view[:, :k]


def _inner_stride(raw: np.ndarray, k: int) -> np.ndarray:
    # every other byte: no wide view exists
    return raw[:, ::2][:, :k]


LAYOUTS = {
    "contiguous": _contiguous,
    "record_prefix": _record_prefix,
    "peek_view": _peek_view,
    "inner_stride": _inner_stride,
}


def _raw(n: int, seed: int) -> np.ndarray:
    # few symbols, so words tie and every column is exercised
    return np.random.default_rng(seed).integers(0, 4, size=(n, 100), dtype=np.uint8) * 85


class TestKeyColumnsMatchOracle:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("width", range(1, 25))
    def test_same_values(self, width, layout):
        for n in ROWS:
            keys = LAYOUTS[layout](_raw(n, seed=width * 7 + n), width)
            want = _oracle_key_columns(keys)
            got = key_columns(keys)
            assert len(got) == len(want) == ceil_div(width, 8)
            for j, (g, w) in enumerate(zip(got, want)):
                case = f"n={n} width={width} word={j}"
                assert g.shape == (n,), case
                assert g.flags.c_contiguous, case
                assert np.array_equal(g, w), case


class TestMakeRecordsMatchesOracle:
    @pytest.mark.parametrize("ascii_keys", [False, True])
    @pytest.mark.parametrize(
        "key_size, value_size",
        [(10, 90), (10, 0), (10, 3), (10, 7), (10, 8), (10, 9), (1, 99), (17, 5), (24, 40)],
    )
    def test_same_bytes(self, key_size, value_size, ascii_keys):
        fmt = RecordFormat(key_size=key_size, value_size=value_size)
        for n in ROWS:
            got = make_records(n, fmt, seed=n + key_size, ascii_keys=ascii_keys)
            want = _oracle_make_records(n, fmt, seed=n + key_size, ascii_keys=ascii_keys)
            assert got.shape == want.shape == (n, fmt.record_size)
            assert got.dtype == np.uint8
            assert got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got, want), f"n={n}"


class TestStridedKeyGather:
    @pytest.mark.parametrize("access", range(1, 25))
    def test_key_gather_payloads(self, access):
        data = _raw(300, seed=access).reshape(-1)
        f = Machine().fs.create("records")
        f.poke(0, data)
        for offset, count in ((0, 300), (3, 299), (0, 1), (100 - access, 257)):
            op = f.read_strided(offset, count, 100, access, tag="keys")
            payload = op.on_complete(op)
            starts = offset + np.arange(count, dtype=np.int64) * 100
            _assert_fresh_payload(f, payload, _oracle_fixed(data, starts, access))
