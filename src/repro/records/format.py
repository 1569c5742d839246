"""Fixed-size record geometry and byte-exact key ordering.

Keys are arbitrary binary strings compared lexicographically as unsigned
bytes (gensort semantics).  To sort them exactly and fast we convert the
key bytes to big-endian uint64 columns (:func:`key_columns`), which
handle embedded zero bytes correctly (numpy's ``S`` dtype would not),
and order rows by those words (:func:`key_sort_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import RecordFormatError
from repro.units import ceil_div

#: Big-endian unsigned word dtypes by byte width: the widths a key slice
#: can be read as in one element per row.
_WORDS = {w: np.dtype(f">u{w}") for w in (1, 2, 4, 8)}


@dataclass(frozen=True)
class RecordFormat:
    """Geometry of a fixed-size sortbenchmark record.

    The default matches the paper's workloads: 10-byte key, 90-byte
    value, 5-byte pointers in IndexMaps (a 5-byte pointer addresses 2^40
    record offsets, Sec 3.3 footnote).
    """

    key_size: int = 10
    value_size: int = 90
    pointer_size: int = 5

    def __post_init__(self):
        if self.key_size < 1:
            raise RecordFormatError("key_size must be >= 1")
        if self.value_size < 0:
            raise RecordFormatError("value_size must be >= 0")
        if self.pointer_size < 1 or self.pointer_size > 8:
            raise RecordFormatError("pointer_size must be in [1, 8]")

    @property
    def record_size(self) -> int:
        return self.key_size + self.value_size

    @property
    def index_entry_size(self) -> int:
        """Bytes per IndexMap entry: key + pointer."""
        return self.key_size + self.pointer_size

    def file_bytes(self, n_records: int) -> int:
        return n_records * self.record_size

    def max_addressable_records(self) -> int:
        """How many record slots a pointer of this width can address."""
        return 1 << (8 * self.pointer_size)

    def describe(self) -> str:
        return (
            f"{self.key_size}B key + {self.value_size}B value "
            f"({self.record_size}B records, {self.pointer_size}B pointers)"
        )


def key_columns(keys: np.ndarray) -> List[np.ndarray]:
    """Convert an ``(n, k)`` uint8 key matrix to u64 comparison columns.

    Column ``j`` holds, per row, key bytes ``8j .. 8j+7`` read as one
    big-endian word (zero-padded on the right), in native byte order.
    The columns are most-significant first: comparing rows by them in
    order is exactly unsigned lexicographic comparison of the original
    byte strings.  They are the contiguous rows of one word-major buffer.
    """
    _check_keys(keys)
    cols = np.empty((_word_count(keys), keys.shape[0]), dtype=np.uint64)
    for j, col in enumerate(cols):
        _key_word(keys, j, out=col)
    return list(cols)


def _key_word(keys: np.ndarray, j: int, out: np.ndarray | None = None) -> np.ndarray:
    """Column ``j`` of :func:`key_columns` alone (into ``out`` if given)."""
    n = keys.shape[0]
    col = np.empty(n, dtype=np.uint64) if out is None else out
    # Each word moves as one element per row: a 2-D byte copy only
    # 8-10 bytes wide costs several times as much per row.
    field = keys[:, 8 * j : 8 * j + 8]
    width = field.shape[1]
    if width not in _WORDS or field.strides[1] != 1:
        # A 3, 5, 6 or 7-byte tail, or bytes that are not adjacent (no
        # wide view): pad a copy of this word only.
        padded = np.zeros((n, 8), dtype=np.uint8)
        padded[:, :width] = field
        field, width = padded, 8
    col[:] = field.view(_WORDS[width])[:, 0]
    if width < 8:
        col <<= np.uint64(64 - 8 * width)
    return col


def _check_keys(keys: np.ndarray) -> None:
    if keys.ndim != 2:
        raise RecordFormatError(f"keys must be 2-D, got shape {keys.shape}")


def _word_count(keys: np.ndarray) -> int:
    return ceil_div(max(keys.shape[1], 1), 8)


def key_words(key) -> tuple:
    """One key (bytes or 1-D uint8 array) as big-endian uint64 words.

    Zero-pads on the right to a multiple of 8 bytes, matching the column
    layout of :func:`key_columns`: comparing the word tuples is exactly
    unsigned lexicographic comparison of the original byte strings.
    """
    b = bytes(key)
    width = ceil_div(max(len(b), 1), 8) * 8
    if len(b) < width:
        b = b.ljust(width, b"\x00")
    return tuple(
        int.from_bytes(b[j : j + 8], "big") for j in range(0, width, 8)
    )


def adjacent_order(keys) -> Tuple[np.ndarray, np.ndarray]:
    """Compare each key with the next.

    ``keys`` is an ``(n, k)`` uint8 key matrix or its :func:`key_columns`.
    Returns two ``(n - 1,)`` boolean masks: ``descends[i]`` where row
    ``i`` sorts after row ``i + 1``, ``tied[i]`` where they are equal.
    Only the first word is compared for every pair; a later word only
    for the pairs every earlier word ties (from a matrix, only those
    rows' words are read).
    """
    if isinstance(keys, np.ndarray):
        _check_keys(keys)
        words = _word_count(keys)
        first = _key_word(keys, 0)

        def word(j, rows):
            return _key_word(keys[rows], j)
    else:
        words, first = len(keys), keys[0]

        def word(j, rows):
            return keys[j][rows]

    descends = first[:-1] > first[1:]
    at = np.flatnonzero(first[:-1] == first[1:])
    for j in range(1, words):
        if not at.size:
            break
        left, right = word(j, at), word(j, at + 1)
        descends[at[left > right]] = True
        at = at[left == right]
    tied = np.zeros(descends.size, dtype=bool)
    tied[at] = True
    return descends, tied


def tie_rows(tied: np.ndarray) -> np.ndarray:
    """Row numbers belonging to a run of >= 2 equal rows, given the
    ``tied`` mask of :func:`adjacent_order`."""
    member = np.zeros(tied.size + 1, dtype=bool)
    member[:-1] = tied
    member[1:] |= tied
    return np.flatnonzero(member)


def key_sort_indices(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of binary keys (rows of an ``(n, k)`` uint8 matrix).

    Bit for bit the permutation ``np.lexsort`` gives over all the key
    columns, at the cost of one sort of one word when (as for random
    keys) the first word's high bits rarely tie: the first word with its
    low ``ceil(log2 n)`` bits replaced by the row number is a distinct
    value per row whose order is (prefix, row), so plain ``np.sort``
    orders it and the low bits read back the permutation.  Only rows
    whose packed prefixes tie have the rest of their key read, and are
    put into (whole key, row) order by ``np.lexsort``.
    """
    _check_keys(keys)
    n, k = keys.shape
    if n < 2:
        return np.arange(n, dtype=np.intp)
    bits = (n - 1).bit_length()
    low = np.uint64((1 << bits) - 1)
    packed = _key_word(keys, 0)
    packed &= ~low
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    order = (packed & low).view(np.intp)
    if 8 * k <= 64 - bits:
        # The row number sits in zero padding: the prefix is the key.
        return order
    packed >>= np.uint64(bits)
    ties = packed[1:] == packed[:-1]
    if ties.any():
        tied = tie_rows(ties)
        rows = order[tied]
        # lexsort treats the LAST key as primary.
        refine = (rows, *reversed(key_columns(keys[rows])))
        order[tied] = rows[np.lexsort(refine)]
    return order


def record_sort_indices(records: np.ndarray, key_size: int) -> np.ndarray:
    """Stable argsort of fixed-size records by their leading key bytes."""
    if records.ndim != 2:
        raise RecordFormatError("records must be a 2-D uint8 matrix")
    if key_size > records.shape[1]:
        raise RecordFormatError("key_size exceeds record size")
    return key_sort_indices(records[:, :key_size])


def keys_ascending(keys: np.ndarray) -> bool:
    """True iff consecutive rows are in non-decreasing key order."""
    return not adjacent_order(keys)[0].any()


def leq_mask(keys: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Boolean mask: row key <= ``bound`` (unsigned lexicographic).

    ``bound`` is a single key as a 1-D uint8 array of the same width.
    """
    if keys.ndim != 2:
        raise RecordFormatError("keys must be 2-D")
    bound = np.asarray(bound, dtype=np.uint8).reshape(1, -1)
    if bound.shape[1] != keys.shape[1]:
        raise RecordFormatError("bound width must match key width")
    cols = key_columns(keys)
    bcols = [c[0] for c in key_columns(bound)]
    n = keys.shape[0]
    less = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    for col, b in zip(cols, bcols):
        less |= undecided & (col < b)
        undecided &= col == b
    return less | undecided


def min_key(candidates: np.ndarray) -> np.ndarray:
    """Lexicographic minimum row of an ``(n, k)`` uint8 key matrix."""
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise RecordFormatError("need a non-empty 2-D key matrix")
    order = key_sort_indices(candidates)
    return candidates[order[0]]
