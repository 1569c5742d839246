"""The IndexMap: WiscSort's key-pointer (and optionally value-length) runs.

"Each key read has a pointer associated with it to represent the file
offset of the record.  We call this key-pointer combination an *index*
and the list of key-pointers an *IndexMap*." (Sec 3.3)

Pointers are little-endian unsigned integers of ``pointer_size`` bytes
(5 by default: 2^40 record offsets).  For KLV datasets each entry also
carries the value length (Sec 3.7.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import RecordFormatError
from repro.records.format import key_sort_indices


def _encode_uints(values: np.ndarray, width: int) -> np.ndarray:
    """Pack int64 values into ``(n, width)`` little-endian bytes."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or int(values.max()) >= 1 << (8 * width)):
        raise RecordFormatError(
            f"value out of range for {width}-byte encoding"
        )
    as_u64 = values.astype("<u8")
    return as_u64.view(np.uint8).reshape(-1, 8)[:, :width].copy()


def _decode_uints(raw: np.ndarray) -> np.ndarray:
    """Unpack ``(n, width)`` little-endian bytes into int64 values."""
    n, width = raw.shape
    padded = np.zeros((n, 8), dtype=np.uint8)
    padded[:, :width] = raw
    return padded.view("<u8").reshape(n).astype(np.int64)


def entry_pointers(rows: np.ndarray, key_size: int, pointer_size: int) -> np.ndarray:
    """The pointer column of ``(n, entry)`` IndexMap entry rows."""
    return _decode_uints(rows[:, key_size : key_size + pointer_size])


@dataclass
class IndexMap:
    """A (possibly sorted) collection of key/pointer[/vlen] entries."""

    keys: np.ndarray  # (n, key_size) uint8
    pointers: np.ndarray  # (n,) int64 byte offsets into the input file
    pointer_size: int = 5
    vlens: Optional[np.ndarray] = None  # (n,) int64, KLV only
    len_size: int = 0

    def __post_init__(self):
        if self.keys.ndim != 2:
            raise RecordFormatError("keys must be (n, key_size)")
        n = self.keys.shape[0]
        if self.pointers.shape != (n,):
            raise RecordFormatError("pointers must be (n,)")
        if (self.vlens is None) != (self.len_size == 0):
            raise RecordFormatError("vlens and len_size must be set together")
        if self.vlens is not None and self.vlens.shape != (n,):
            raise RecordFormatError("vlens must be (n,)")

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def key_size(self) -> int:
        return self.keys.shape[1]

    @property
    def entry_size(self) -> int:
        return self.key_size + self.pointer_size + self.len_size

    @property
    def nbytes(self) -> int:
        return len(self) * self.entry_size

    # ------------------------------------------------------------------
    def sorted(self) -> "IndexMap":
        """A new IndexMap in stable ascending key order."""
        order = key_sort_indices(self.keys)
        return self.select(order)

    def sorted_pointers(self) -> np.ndarray:
        """``sorted().pointers``, minus the key gather (all OnePass reads)."""
        return self.pointers.take(key_sort_indices(self.keys))

    def select(self, indices: np.ndarray) -> "IndexMap":
        """A new IndexMap comprising the given rows, in that order."""
        return IndexMap(
            keys=self.keys.take(indices, axis=0),
            pointers=self.pointers.take(indices),
            pointer_size=self.pointer_size,
            vlens=None if self.vlens is None else self.vlens.take(indices),
            len_size=self.len_size,
        )

    def slice(self, start: int, stop: int) -> "IndexMap":
        return IndexMap(
            keys=self.keys[start:stop],
            pointers=self.pointers[start:stop],
            pointer_size=self.pointer_size,
            vlens=None if self.vlens is None else self.vlens[start:stop],
            len_size=self.len_size,
        )

    # ------------------------------------------------------------------
    def to_bytes(self) -> np.ndarray:
        """Serialise entries to a flat uint8 array (key | ptr [| vlen])."""
        n = len(self)
        out = np.empty((n, self.entry_size), dtype=np.uint8)
        out[:, : self.key_size] = self.keys
        out[:, self.key_size : self.key_size + self.pointer_size] = _encode_uints(
            self.pointers, self.pointer_size
        )
        if self.vlens is not None:
            out[:, self.key_size + self.pointer_size :] = _encode_uints(
                self.vlens, self.len_size
            )
        return out.reshape(-1)

    @classmethod
    def from_bytes(
        cls,
        data: np.ndarray,
        key_size: int,
        pointer_size: int = 5,
        len_size: int = 0,
    ) -> "IndexMap":
        """Parse a flat byte buffer written by :meth:`to_bytes`."""
        entry = key_size + pointer_size + len_size
        data = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        if data.size % entry:
            raise RecordFormatError(
                f"buffer of {data.size}B is not a multiple of entry size {entry}"
            )
        rows = data.reshape(-1, entry)
        keys = rows[:, :key_size].copy()
        pointers = _decode_uints(rows[:, key_size : key_size + pointer_size])
        vlens = None
        if len_size:
            vlens = _decode_uints(rows[:, key_size + pointer_size :])
        return cls(
            keys=keys,
            pointers=pointers,
            pointer_size=pointer_size,
            vlens=vlens,
            len_size=len_size,
        )

    @classmethod
    def for_fixed_records(
        cls,
        keys: np.ndarray,
        first_record: int,
        record_size: int,
        pointer_size: int = 5,
    ) -> "IndexMap":
        """IndexMap for contiguous fixed-size records.

        "each pointer is a hex address, calculated as (start_address +
        record_id * record_size)" (Sec 3.7, step 1).  ``keys`` is kept,
        not copied: a read payload is the caller's own copy already, and
        an IndexMap never writes to its columns.
        """
        n = keys.shape[0]
        ids = np.arange(first_record, first_record + n, dtype=np.int64)
        return cls(
            keys=keys,
            pointers=ids * record_size,
            pointer_size=pointer_size,
        )
