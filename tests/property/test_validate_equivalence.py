"""Propose-then-verify validation returns the parent's verdicts exactly.

``validate_sorted_records`` proves a *proposed* permutation (first the
ordinals gensort embeds in every value, then the input's own key order)
instead of always sorting the input.  The oracle kept here is the
function as it stood at the parent commit -- two sorts, no hint --
copied verbatim.  On every generated case both must agree on pass/fail
and on the ``ValidationError`` text, and a test-only spy on the two
proposers checks that the hint decides exactly the cases it can prove
and that the sort decides all the others.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.records import validate
from repro.records.format import (
    RecordFormat,
    adjacent_order,
    key_columns,
    key_sort_indices,
    record_sort_indices,
    tie_rows,
)
from repro.records.gensort import make_records
from repro.records.validate import validate_sorted_records

VALUE_SIZES = [0, 4, 8, 9, 90]


def _parent_validate_sorted_records(
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


def _verdict(fn, records, output, key_size):
    """``None`` when ``fn`` accepts, else the error text."""
    try:
        fn(records, output, key_size)
    except ValidationError as exc:
        return str(exc)
    return None


@contextmanager
def _proposer_spy():
    """Count calls to the two proposers without changing what they do."""
    with mock.patch.object(
        validate, "_perm_from_ordinals", wraps=validate._perm_from_ordinals
    ) as hint, mock.patch.object(
        validate, "_perm_from_sort", wraps=validate._perm_from_sort
    ) as sort:
        yield hint, sort


def _hint_can_prove(records, output, key_size) -> bool:
    """Said without the code under test: the output's ordinals name each
    input row once and those rows are the output's."""
    n, record_size = output.shape
    if n == 0 or record_size - key_size < 8:
        return False
    ordinals = [
        int.from_bytes(bytes(row[key_size : key_size + 8]), "little") for row in output
    ]
    return sorted(ordinals) == list(range(n)) and all(
        bytes(records[o]) == bytes(row) for o, row in zip(ordinals, output)
    )


def _check(records, output, key_size):
    """Same verdict and text as the parent; returns whether the hint decided."""
    want = _verdict(_parent_validate_sorted_records, records, output, key_size)
    before = records.copy(), output.copy()
    with _proposer_spy() as (hint, sort):
        got = _verdict(validate_sorted_records, records, output, key_size)
    assert got == want
    assert np.array_equal(records, before[0]) and np.array_equal(output, before[1])
    if want is not None and "permutation" not in want:
        # count mismatch / descending keys: decided before any proposal
        assert hint.call_count == sort.call_count == 0
        return False
    assert hint.call_count == 1
    provable = _hint_can_prove(records, output, key_size)
    assert sort.call_count == (0 if provable else 1)
    assert not (provable and want is not None)
    return provable


def _sorted_output(records, key_size, shuffle):
    """A valid output: key order, equal keys in ``shuffle``'s order."""
    shuffled = records[shuffle]
    return shuffled[record_sort_indices(shuffled, key_size)]


@st.composite
def cases(draw):
    key_size = draw(st.sampled_from([1, 2, 8, 10]))
    value_size = draw(st.sampled_from(VALUE_SIZES))
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 40))
    fmt = RecordFormat(key_size=key_size, value_size=value_size)
    source = draw(st.sampled_from(["gensort", "gensort-ties", "foreign", "foreign-ties"]))
    seed = draw(st.integers(0, 2**16))
    records = make_records(n, fmt, seed=seed)
    rng = np.random.default_rng(seed)
    if source.startswith("foreign"):
        # non-gensort values: no ordinal, rows may repeat whole
        records[:, key_size:] = rng.integers(
            0, draw(st.sampled_from([2, 256])), size=(n, value_size), dtype=np.uint8
        )
    if source.endswith("ties"):
        # a 1-2 symbol key alphabet: leading words, whole keys, and (for
        # foreign values) whole records repeat
        records[:, :key_size] %= draw(st.sampled_from([1, 2]))
    output = _sorted_output(records, key_size, rng.permutation(n))
    mutation = draw(
        st.sampled_from(
            # clean outputs as often as all the damaged kinds together
            ["none"] * 6
            + ["swap", "dup", "flip-value", "flip-ordinal", "ordinal-beyond-n", "drop"]
        )
    )
    row = draw(st.integers(1, n - 1)) if n >= 2 else 0
    if n >= 2 and mutation == "swap":
        output[[row - 1, row]] = output[[row, row - 1]]
    elif n >= 2 and mutation == "dup":
        output[row] = output[row - 1]
    elif n >= 2 and mutation == "drop":
        output = output[:-1]
    elif n >= 1 and value_size and mutation == "flip-value":
        col = draw(st.integers(min(8, value_size - 1), value_size - 1))
        output[row, key_size + col] ^= 1 << draw(st.integers(0, 7))
    elif n >= 1 and value_size and mutation == "flip-ordinal":
        col = draw(st.integers(0, min(8, value_size) - 1))
        output[row, key_size + col] ^= 1 << draw(st.integers(0, 7))
    elif n >= 1 and value_size >= 8 and mutation == "ordinal-beyond-n":
        beyond = draw(st.sampled_from([n, n + 1, 2**63, 2**64 - 1]))
        output[row, key_size : key_size + 8] = np.frombuffer(
            beyond.to_bytes(8, "little"), dtype=np.uint8
        )
    return records, output, key_size


class TestSameVerdictAsParent:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(case=cases())
    def test_generated(self, case):
        _check(*case)

    @pytest.mark.parametrize("n", [0, 1, 2, 300, 2000])
    @pytest.mark.parametrize("value_size", VALUE_SIZES)
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_hint_decides_clean_gensort_output_and_nothing_shorter(
        self, n, value_size, ties
    ):
        fmt = RecordFormat(value_size=value_size)
        records = make_records(n, fmt, seed=n + value_size)
        if ties:
            records[:, : fmt.key_size] %= 2
        output = _sorted_output(
            records, fmt.key_size, np.random.default_rng(7).permutation(n)
        )
        assert _verdict(validate_sorted_records, records, output, fmt.key_size) is None
        assert _check(records, output, fmt.key_size) == (n > 0 and value_size >= 8)

    @pytest.mark.parametrize(
        "damage",
        ["dup", "flip-value", "flip-ordinal", "ordinal-beyond-n", "foreign-values"],
    )
    def test_hint_is_declined_and_the_sort_decides(self, damage):
        # 2,000 records are four blocks of the proof; the damage sits in
        # the last one.
        fmt = RecordFormat()
        k = fmt.key_size
        records = make_records(2000, fmt, seed=11)
        if damage == "foreign-values":
            records[:, k:] = 0x5A
        output = records[record_sort_indices(records, k)]
        if damage == "dup":
            output[1990] = output[1991]
        elif damage == "flip-value":
            output[1990, k + 40] ^= 0x10
        elif damage == "flip-ordinal":
            output[1990, k] ^= 0x01  # names another row that exists
        elif damage == "ordinal-beyond-n":
            output[1990, k + 7] = 0xFF
        assert not _check(records, output, k)
        valid = damage == "foreign-values"
        assert (_verdict(validate_sorted_records, records, output, k) is None) == valid
