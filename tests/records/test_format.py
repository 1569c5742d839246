"""Property tests: byte-exact key ordering must match Python's bytes order."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordFormatError
from repro.records.format import (
    RecordFormat,
    adjacent_order,
    key_columns,
    key_sort_indices,
    keys_ascending,
    leq_mask,
    min_key,
    record_sort_indices,
    tie_rows,
)


def keys_matrix(draw, min_rows=0, max_rows=40, min_width=1, max_width=20):
    width = draw(st.integers(min_width, max_width))
    rows = draw(
        st.lists(
            st.binary(min_size=width, max_size=width),
            min_size=min_rows,
            max_size=max_rows,
        )
    )
    if not rows:
        return np.zeros((0, width), dtype=np.uint8)
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), width)


keys_strategy = st.composite(keys_matrix)


class TestKeySort:
    @settings(max_examples=150, deadline=None)
    @given(keys=keys_strategy())
    def test_sort_matches_python_bytes_order(self, keys):
        order = key_sort_indices(keys)
        ours = [bytes(keys[i]) for i in order]
        assert ours == sorted(bytes(row) for row in keys)

    @settings(max_examples=100, deadline=None)
    @given(keys=keys_strategy(min_rows=1))
    def test_sort_is_stable(self, keys):
        # Duplicate every row; stable sort must keep original-first order.
        doubled = np.concatenate([keys, keys])
        order = key_sort_indices(doubled)
        n = keys.shape[0]
        seen = {}
        for idx in order:
            row = bytes(doubled[idx])
            if row in seen and seen[row] == "second":
                continue
            if idx < n:
                seen[row] = "first"
            else:
                assert seen.get(row) == "first", "duplicate emitted out of order"
                seen[row] = "second"

    def test_keys_with_embedded_nulls(self):
        keys = np.array(
            [list(b"a\x00b"), list(b"a\x00a"), list(b"\x00\x00\x00")], dtype=np.uint8
        )
        order = key_sort_indices(keys)
        assert [bytes(keys[i]) for i in order] == [b"\x00\x00\x00", b"a\x00a", b"a\x00b"]

    def test_high_bytes_sort_unsigned(self):
        keys = np.array([[0xFF], [0x01], [0x80]], dtype=np.uint8)
        order = key_sort_indices(keys)
        assert [keys[i, 0] for i in order] == [0x01, 0x80, 0xFF]

    def test_record_sort_uses_leading_key_only(self):
        records = np.array(
            [list(b"bXXX"), list(b"aZZZ"), list(b"aAAA")], dtype=np.uint8
        )
        order = record_sort_indices(records, key_size=1)
        assert [bytes(records[i]) for i in order] == [b"aZZZ", b"aAAA", b"bXXX"]

    def test_key_columns_width_padding(self):
        keys = np.zeros((3, 10), dtype=np.uint8)
        cols = key_columns(keys)
        assert len(cols) == 2  # 10 bytes -> 2 u64 columns

    def test_key_columns_are_contiguous_big_endian_words(self):
        records = np.arange(4 * 30, dtype=np.uint8).reshape(4, 30)
        keys = records[:, 3:13]  # a strided 10-byte field, as validation passes
        cols = key_columns(keys)
        for j, col in enumerate(cols):
            assert col.flags.c_contiguous and col.shape == (4,)
            for row in range(4):
                word = bytes(keys[row, 8 * j : 8 * j + 8]).ljust(8, b"\x00")
                assert int(col[row]) == int.from_bytes(word, "big")


def _lexsort_oracle(keys: np.ndarray) -> np.ndarray:
    """The implementation ``key_sort_indices`` replaced: ``np.lexsort``
    over every big-endian word (its LAST key is the primary one)."""
    n, k = keys.shape
    padded = np.zeros((n, -(-max(k, 1) // 8) * 8), dtype=np.uint8)
    padded[:, :k] = keys
    words = padded.view(">u8")
    return np.lexsort(tuple(words[:, j] for j in reversed(range(words.shape[1]))))


class TestSamePermutationAsLexsort:
    """Not merely *a* stable order: bit for bit ``np.lexsort``'s, which
    every committed output hash was produced with."""

    @pytest.mark.parametrize("width", [1, 8, 9, 10, 16, 17])
    @pytest.mark.parametrize("alphabet", [2, 256])
    def test_random_keys(self, width, alphabet):
        # 2 symbols: ties dominate (whole keys and leading words repeat);
        # 256: the leading word almost never ties.
        rng = np.random.default_rng(width * 1000 + alphabet)
        keys = rng.integers(0, alphabet, size=(3000, width), dtype=np.uint8)
        assert np.array_equal(key_sort_indices(keys), _lexsort_oracle(keys))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.lists(st.sampled_from([0, 1, 255]), min_size=10, max_size=10),
                      max_size=60)
    )
    def test_low_entropy_ten_byte_keys(self, rows):
        keys = np.array(rows, dtype=np.uint8).reshape(len(rows), 10)
        assert np.array_equal(key_sort_indices(keys), _lexsort_oracle(keys))

    def test_equal_leading_word_decided_by_bytes_nine_and_ten(self):
        keys = np.full((6, 10), 0x5A, dtype=np.uint8)
        keys[:, 8:] = [[0, 2], [0, 1], [1, 0], [0, 1], [0, 0], [255, 255]]
        order = key_sort_indices(keys)
        assert order.tolist() == [4, 1, 3, 0, 2, 5]  # 1 before 3: stable
        assert np.array_equal(order, _lexsort_oracle(keys))

    def test_embedded_and_trailing_zero_bytes(self):
        keys = np.array(
            [list(b"a\x00\x00"), list(b"a\x00b"), list(b"\x00a\x00"), list(b"a\x00\x00")],
            dtype=np.uint8,
        )
        assert key_sort_indices(keys).tolist() == [2, 0, 3, 1]

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_inputs(self, n):
        keys = np.full((n, 10), 7, dtype=np.uint8)
        assert key_sort_indices(keys).tolist() == list(range(n))

    def test_strided_key_view_of_a_record_matrix(self):
        rng = np.random.default_rng(3)
        records = rng.integers(0, 3, size=(500, 100), dtype=np.uint8)
        keys = records[:, :10]
        assert np.array_equal(key_sort_indices(keys), _lexsort_oracle(keys.copy()))


class TestAdjacentOrder:
    def test_masks_and_tie_rows(self):
        keys = np.array([[1, 0], [1, 0], [0, 9], [0, 9], [0, 9], [2, 2]], dtype=np.uint8)
        descends, tied = adjacent_order(key_columns(keys))
        assert descends.tolist() == [False, True, False, False, False]
        assert tied.tolist() == [True, False, True, True, False]
        assert tie_rows(tied).tolist() == [0, 1, 2, 3, 4]

    def test_second_word_decides(self):
        keys = np.zeros((3, 10), dtype=np.uint8)
        keys[:, 9] = [5, 5, 4]
        descends, tied = adjacent_order(key_columns(keys))
        assert descends.tolist() == [False, True]
        assert tied.tolist() == [True, False]

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs(self, n):
        descends, tied = adjacent_order(key_columns(np.zeros((n, 10), dtype=np.uint8)))
        assert descends.size == tied.size == 0
        assert tie_rows(tied).size == 0


class TestAscending:
    @settings(max_examples=100, deadline=None)
    @given(keys=keys_strategy())
    def test_matches_python_definition(self, keys):
        rows = [bytes(r) for r in keys]
        expected = all(a <= b for a, b in zip(rows, rows[1:]))
        assert keys_ascending(keys) == expected

    def test_sorted_output_always_ascending(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 256, size=(500, 10), dtype=np.uint8)
        assert keys_ascending(keys[key_sort_indices(keys)])

    def test_empty_and_single(self):
        assert keys_ascending(np.zeros((0, 4), dtype=np.uint8))
        assert keys_ascending(np.zeros((1, 4), dtype=np.uint8))


class TestLeqMask:
    @settings(max_examples=100, deadline=None)
    @given(keys=keys_strategy(min_rows=1))
    def test_matches_python_comparison(self, keys):
        bound = keys[0]
        mask = leq_mask(keys, bound)
        expected = [bytes(r) <= bytes(bound) for r in keys]
        assert mask.tolist() == expected

    def test_width_mismatch_rejected(self):
        keys = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(RecordFormatError):
            leq_mask(keys, np.zeros(5, dtype=np.uint8))


class TestMinKey:
    @settings(max_examples=100, deadline=None)
    @given(keys=keys_strategy(min_rows=1))
    def test_matches_python_min(self, keys):
        assert bytes(min_key(keys)) == min(bytes(r) for r in keys)

    def test_empty_rejected(self):
        with pytest.raises(RecordFormatError):
            min_key(np.zeros((0, 4), dtype=np.uint8))


class TestRecordFormat:
    def test_defaults_match_sortbenchmark(self):
        fmt = RecordFormat()
        assert fmt.record_size == 100
        assert fmt.index_entry_size == 15
        assert fmt.max_addressable_records() == 1 << 40

    def test_invalid_geometry_rejected(self):
        with pytest.raises(RecordFormatError):
            RecordFormat(key_size=0)
        with pytest.raises(RecordFormatError):
            RecordFormat(value_size=-1)
        with pytest.raises(RecordFormatError):
            RecordFormat(pointer_size=9)

    def test_file_bytes(self):
        assert RecordFormat().file_bytes(1000) == 100_000

    def test_describe(self):
        assert "10B key" in RecordFormat().describe()
