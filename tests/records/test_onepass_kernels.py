"""OnePass's record kernels against their oracles, where the fast paths
change behaviour: packed-prefix ties in the key order and the 8,192-row
block edges of the generator.

``key_sort_indices`` sorts the first key word with the row number in its
low bits and reads later words only for rows whose packed prefixes tie;
every case below makes such ties and must still give ``np.lexsort``'s
permutation bit for bit (``_lexsort_oracle``).  ``make_records`` fills
one block at a time; its bytes must equal the generator kept verbatim
in ``test_wide_fields.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.records.format import RecordFormat, adjacent_order, key_columns, key_sort_indices
from repro.records.gensort import make_records
from tests.records.test_format import _lexsort_oracle
from tests.records.test_wide_fields import _oracle_make_records


def _shared_prefix(n: int, width: int, prefix: int, alphabet: int, seed: int) -> np.ndarray:
    """``n`` keys equal in their first ``prefix`` bytes, the rest drawn
    from ``alphabet`` symbols (few symbols: whole keys repeat too)."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, alphabet, size=(n, width), dtype=np.uint8)
    keys[:, :prefix] = rng.integers(0, 256, size=prefix, dtype=np.uint8)
    return keys


def _assert_lexsort(keys: np.ndarray) -> None:
    got = key_sort_indices(keys)
    assert got.dtype == np.intp
    assert np.array_equal(got, _lexsort_oracle(np.ascontiguousarray(keys)))


class TestKeyOrderMatchesLexsort:
    @pytest.mark.parametrize("prefix", [5, 6, 7])
    @pytest.mark.parametrize("alphabet", [2, 256])
    def test_keys_sharing_their_first_bytes(self, prefix, alphabet):
        # the row number takes the low 13 bits of the first word, so the
        # sixth to eighth bytes decide between the packed prefix and the rest
        keys = _shared_prefix(5000, 10, prefix, alphabet, seed=prefix * 10 + alphabet)
        _assert_lexsort(keys)

    @pytest.mark.parametrize("width", [1, 4, 8, 9, 10, 16, 20])
    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_all_equal_keys(self, width, n):
        _assert_lexsort(np.full((n, width), 0xA5, dtype=np.uint8))

    @pytest.mark.parametrize("k", [8, 11, 16, 17])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_row_counts_at_powers_of_two(self, k, delta):
        n = (1 << k) + delta
        keys = _shared_prefix(n, 10, 6, 4, seed=k * 3 + delta)
        _assert_lexsort(keys)
        # and a leading word that never ties
        _assert_lexsort(np.random.default_rng(k).integers(0, 256, (n, 10), dtype=np.uint8))

    @pytest.mark.parametrize("width", range(1, 21))
    def test_every_key_width(self, width):
        for prefix, alphabet in ((0, 256), (0, 2), (min(width, 6), 3)):
            keys = _shared_prefix(3000, width, prefix, alphabet, seed=width + alphabet)
            _assert_lexsort(keys)

    @pytest.mark.parametrize("layout", ["record_prefix", "mid_record", "inner_stride"])
    def test_strided_key_views(self, layout):
        records = _shared_prefix(4000, 100, 6, 3, seed=7)
        keys = {
            "record_prefix": records[:, :10],
            "mid_record": records[:, 30:42],
            "inner_stride": records[:, ::3][:, :10],
        }[layout]
        _assert_lexsort(keys)

    def test_adjacent_order_of_packed_prefix_ties(self):
        keys = _shared_prefix(3000, 20, 7, 2, seed=3)
        keys = keys[_lexsort_oracle(keys)]
        keys[[10, 11]] = keys[[11, 10]]  # one descent past the first word
        got = adjacent_order(keys)
        want = adjacent_order(key_columns(keys))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.flatnonzero(got[0]).tolist() == ([10] if (keys[10] != keys[11]).any() else [])


class TestMakeRecordsAtBlockEdges:
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 200_000])
    def test_default_format(self, n):
        fmt = RecordFormat()
        assert np.array_equal(make_records(n, fmt, seed=n), _oracle_make_records(n, fmt, seed=n))

    @pytest.mark.parametrize("ascii_keys", [False, True])
    @pytest.mark.parametrize("key_size, value_size", [(10, 0), (10, 7), (17, 5), (1, 99)])
    def test_other_formats(self, key_size, value_size, ascii_keys):
        fmt = RecordFormat(key_size=key_size, value_size=value_size)
        for n in (8191, 8193, 3 * 8192 + 255):
            got = make_records(n, fmt, seed=n, ascii_keys=ascii_keys)
            want = _oracle_make_records(n, fmt, seed=n, ascii_keys=ascii_keys)
            assert got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got, want), f"n={n}"
