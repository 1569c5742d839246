"""valsort-workalike output validation.

The sortbenchmark rules require the output to be "a permutation of the
input file, sorted in key ascending order" (Sec 4.1).  We check both
properties byte-exactly:

* sortedness: consecutive keys compare non-decreasing;
* permutation: the multisets of whole records in input and output match.
  The output is already in key order, so the input is put in key order
  too and, on both sides, each run of equal keys into full-record byte
  order.  The key is a prefix of the record, so both sides then sit in
  full-record order and array equality is multiset equality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.records.format import (
    RecordFormat,
    adjacent_order,
    key_columns,
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
) -> None:
    """Raise :class:`ValidationError` unless output is a sorted permutation."""
    if input_records.shape != output_records.shape:
        raise ValidationError(
            f"record counts differ: input {input_records.shape} vs "
            f"output {output_records.shape}"
        )
    descends, tied = adjacent_order(key_columns(output_records[:, :key_size]))
    if descends.any():
        raise ValidationError("output keys are not in ascending order")
    left = input_records[key_sort_indices(input_records[:, :key_size])]
    right = output_records
    if tied.any():
        # Equal keys may come out in any relative order: only these rows
        # are ever sorted on their whole content.  If the input's ties
        # sit elsewhere the sides differ, which is the right verdict.
        rows = tie_rows(tied)
        right = right.copy()
        for side in (left, right):
            group = side[rows]
            side[rows] = group[key_sort_indices(group)]
    if not np.array_equal(left, right):
        raise ValidationError("output is not a permutation of the input records")


def validate_sorted_file(
    input_file: "SimFile", output_file: "SimFile", fmt: RecordFormat
) -> int:
    """Validate fixed-size-record output; returns the record count."""
    input_records = _as_record_matrix(input_file.peek_view(), fmt.record_size)
    output_records = _as_record_matrix(output_file.peek_view(), fmt.record_size)
    validate_sorted_records(input_records, output_records, fmt.key_size)
    return input_records.shape[0]


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
