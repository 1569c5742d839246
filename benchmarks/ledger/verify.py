"""Output checks that do not depend on the model.

The reference for every sort is the input stably sorted by key with
numpy *here*, not with ``repro.records``: a 10-byte key is compared as a
big-endian (uint64, uint16) pair, which is exactly unsigned
lexicographic byte order.  An output whose bytes equal the reference is
by construction a sorted permutation of the input, so byte equality (or
equality of SHA-256 digests, for the large single-sort outputs) is the
whole check.
"""

from __future__ import annotations

import hashlib

import numpy as np

KEY_SIZE = 10
RECORD_SIZE = 100


def key_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of an ``(n, 10)`` uint8 key matrix."""
    keys = np.ascontiguousarray(keys)
    high = keys[:, :8].copy().view(">u8").reshape(-1)
    low = keys[:, 8:].copy().view(">u2").reshape(-1)
    return np.lexsort((low, high))  # last key is primary; lexsort is stable


def reference_sort(data: np.ndarray) -> np.ndarray:
    """``data`` (flat uint8, 100 B records) stably sorted by 10 B key."""
    records = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1, RECORD_SIZE)
    return records[key_order(records[:, :KEY_SIZE])].reshape(-1)


def sha256(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()
