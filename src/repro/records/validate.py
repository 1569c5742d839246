"""valsort-workalike output validation.

The sortbenchmark rules require the output to be "a permutation of the
input file, sorted in key ascending order" (Sec 4.1).  We check both
properties byte-exactly:

* sortedness: consecutive keys compare non-decreasing;
* permutation: some bijection ``perm`` of the rows has ``input[perm]``
  byte-equal to the output.  A candidate is *proposed*, then *proved* by
  one kernel (:func:`_permutes`): a wrong proposal can only fail to
  conclude.  The cheap proposer reads the ordinal gensort embeds in
  every value; the exact one key-sorts the input and puts each run of
  equal keys, on both sides, into whole-record order (the key is a
  prefix of the record), so it is proved iff the record multisets match.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.records.format import (
    RecordFormat,
    adjacent_order,
    key_sort_indices,
    tie_rows,
)
from repro.records.klv import KLVFormat, decode_klv

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.file import SimFile


def _as_record_matrix(data: np.ndarray, record_size: int) -> np.ndarray:
    if data.size % record_size:
        raise ValidationError(
            f"file size {data.size} is not a multiple of record size {record_size}"
        )
    return data.reshape(-1, record_size)


def validate_sorted_records(
    input_records: np.ndarray, output_records: np.ndarray, key_size: int
) -> np.ndarray:
    """Raise :class:`ValidationError` unless output is a sorted permutation;
    returns the proven order, ``output == input[order]``, as a compact
    array of its own (``uint16`` up to 65,536 rows, else ``uint32``)."""
    if input_records.shape != output_records.shape:
        raise ValidationError(
            f"record counts differ: input {input_records.shape} vs "
            f"output {output_records.shape}"
        )
    descends, tied = adjacent_order(output_records[:, :key_size])
    if descends.any():
        raise ValidationError("output keys are not in ascending order")
    for propose in (_perm_from_ordinals, _perm_from_sort):
        perm = propose(input_records, output_records, key_size, tied)
        order = None if perm is None else _permutes(perm, input_records, output_records)
        if order is not None:
            return order
    raise ValidationError("output is not a permutation of the input records")


def _permutes(perm, input_records, output_records) -> np.ndarray | None:
    """``perm`` copied to a compact dtype iff it (untrusted row numbers,
    any integer dtype, possibly a view of the output) is a bijection onto
    the rows and ``input_records[perm]`` is byte-equal to
    ``output_records``; else ``None``."""
    n, width = output_records.shape
    if width % 4 == 0 and input_records.strides[1] == output_records.strides[1] == 1:
        # Same bytes, a quarter of the elements to move and compare.
        input_records = input_records.view(np.uint32)
        output_records = output_records.view(np.uint32)
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, np.uint16 if n <= 1 << 16 else np.uint32)
    block = np.empty((min(n, _PROOF_ROWS), input_records.shape[1]), input_records.dtype)
    # Range-check, scatter, gather and compare one block at a time: no
    # temporary the size of the dataset, and each block is still in
    # cache when it is compared.
    for at in range(0, n, _PROOF_ROWS):
        rows = perm[at : at + _PROOF_ROWS].astype(np.intp)
        if rows.min() < 0 or rows.max() >= n:
            return None
        seen[rows] = True
        got = input_records.take(rows, axis=0, out=block[: rows.size], mode="clip")
        if not np.array_equal(got, output_records[at : at + _PROOF_ROWS]):
            return None
        order[at : at + rows.size] = rows
    return order if seen.all() else None


#: Rows per block of the permutation proof (~200 KB of 100-byte records).
_PROOF_ROWS = 2048


def _perm_from_ordinals(input_records, output_records, key_size, tied):
    """The input row each output row names in its first eight value bytes
    (gensort's little-endian ordinal): an untrusted hint, ``None`` when
    the values are too short to hold one.  It is read in place; the
    proof range-checks it."""
    n, record_size = output_records.shape
    if n == 0 or record_size - key_size < 8:
        return None
    field = output_records[:, key_size : key_size + 8]
    if field.strides[1] != 1:
        field = np.ascontiguousarray(field)
    return field.view("<u8")[:, 0]


def _perm_from_sort(input_records, output_records, key_size, tied):
    """Exact for any data: the input's stable key order, lined up with
    the output's arrangement of equal keys."""
    perm = key_sort_indices(input_records[:, :key_size])
    if tied.any():
        # Equal keys may come out in any relative order: only these rows
        # are ever sorted on their whole content.  If the input's ties
        # sit elsewhere no arrangement matches, which is the right verdict.
        rows = tie_rows(tied)
        at = perm[rows]
        in_record_order = at[key_sort_indices(input_records.take(at, axis=0))]
        out_record_order = rows[key_sort_indices(output_records[rows])]
        perm[out_record_order] = in_record_order
    return perm


def validate_sorted_file(
    input_file: "SimFile", output_file: "SimFile", fmt: RecordFormat
) -> int:
    """Validate fixed-size-record output; returns the record count.

    The proof becomes the output's recipe when the input has one
    (:meth:`~repro.storage.file.SimFile.adopt_order`): the output can
    then be released like a generated input.
    """
    input_records = _as_record_matrix(input_file.peek_view(), fmt.record_size)
    output_records = _as_record_matrix(output_file.peek_view(), fmt.record_size)
    order = validate_sorted_records(input_records, output_records, fmt.key_size)
    output_file.adopt_order(input_file, order, fmt.record_size)
    return order.size


def validate_sorted_klv(
    input_file: "SimFile", output_file: "SimFile", fmt: KLVFormat
) -> int:
    """Validate variable-length KLV output; returns the record count."""
    input_pairs = decode_klv(input_file.peek(), fmt)
    output_pairs = decode_klv(output_file.peek(), fmt)
    if len(input_pairs) != len(output_pairs):
        raise ValidationError(
            f"record counts differ: {len(input_pairs)} vs {len(output_pairs)}"
        )
    keys = [k for k, _ in output_pairs]
    if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
        raise ValidationError("KLV output keys are not in ascending order")
    if sorted(input_pairs) != sorted(output_pairs):
        raise ValidationError("KLV output is not a permutation of the input")
    return len(input_pairs)
