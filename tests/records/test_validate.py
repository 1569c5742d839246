"""Tests for the valsort-workalike validator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.machine import Machine
from repro.records.format import RecordFormat, record_sort_indices
from repro.records.gensort import make_records
from repro.records.klv import KLVFormat, encode_klv
from repro.records.validate import (
    validate_sorted_file,
    validate_sorted_klv,
    validate_sorted_records,
)
from repro.sim.probe import Probe
from tests.records.test_format import _lexsort_oracle


@pytest.fixture
def sorted_pair(fmt):
    records = make_records(200, fmt, seed=9)
    output = records[record_sort_indices(records, fmt.key_size)]
    return records, output


class TestFixedRecords:
    def test_accepts_valid_output(self, fmt, sorted_pair):
        records, output = sorted_pair
        validate_sorted_records(records, output, fmt.key_size)

    def test_rejects_unsorted_output(self, fmt, sorted_pair):
        records, output = sorted_pair
        swapped = output.copy()
        swapped[[0, -1]] = swapped[[-1, 0]]
        with pytest.raises(ValidationError, match="ascending"):
            validate_sorted_records(records, swapped, fmt.key_size)

    def test_rejects_mutated_value(self, fmt, sorted_pair):
        records, output = sorted_pair
        corrupted = output.copy()
        corrupted[10, fmt.key_size + 3] ^= 0xFF
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, corrupted, fmt.key_size)

    def test_rejects_duplicated_record(self, fmt, sorted_pair):
        records, output = sorted_pair
        duped = output.copy()
        duped[5] = duped[6]
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, duped, fmt.key_size)

    def test_rejects_count_mismatch(self, fmt, sorted_pair):
        records, output = sorted_pair
        with pytest.raises(ValidationError, match="counts differ"):
            validate_sorted_records(records, output[:-1], fmt.key_size)

    def test_file_level_validation(self, pmem, fmt, sorted_pair):
        records, output = sorted_pair
        machine = Machine(profile=pmem)
        fin = machine.fs.create("in")
        fout = machine.fs.create("out")
        fin.poke(0, records.reshape(-1))
        fout.poke(0, output.reshape(-1))
        assert validate_sorted_file(fin, fout, fmt) == 200

    def test_file_size_not_multiple_rejected(self, pmem, fmt):
        machine = Machine(profile=pmem)
        fin = machine.fs.create("in")
        fout = machine.fs.create("out")
        fin.poke(0, np.zeros(150, dtype=np.uint8))
        fout.poke(0, np.zeros(150, dtype=np.uint8))
        with pytest.raises(ValidationError, match="multiple"):
            validate_sorted_file(fin, fout, fmt)

    def test_duplicate_keys_in_any_relative_order_accepted(self, fmt):
        records = make_records(50, fmt, seed=1)
        records[:, : fmt.key_size] = 7  # all keys identical
        # any permutation is a valid sort
        rng = np.random.default_rng(0)
        output = records[rng.permutation(50)]
        validate_sorted_records(records, output, fmt.key_size)


def _oracle_validate(input_records, output_records, key_size) -> bool:
    """The validator this one replaced, kept as the reference: key order
    by Python bytes comparison, multiset equality by a canonical
    ``np.lexsort`` of each side on every big-endian word of the record."""

    def canonical(records):
        return records[_lexsort_oracle(records)]

    if input_records.shape != output_records.shape:
        return False
    keys = [bytes(row[:key_size]) for row in output_records]
    if any(a > b for a, b in zip(keys, keys[1:])):
        return False
    return np.array_equal(canonical(input_records), canonical(output_records))


def _accepts(input_records, output_records, key_size) -> bool:
    try:
        validate_sorted_records(input_records, output_records, key_size)
    except ValidationError:
        return False
    return True


def _tied_records(seed=0):
    """12 records, 10 B keys + 6 B values: two tie groups of >= 3 equal
    keys (one differing from its neighbour only in key bytes 9-10, one
    with embedded and trailing NULs) between singleton keys."""
    rng = np.random.default_rng(seed)
    keys = [
        b"AAAAAAAA\x00\x01",
        b"AAAAAAAA\x00\x02", b"AAAAAAAA\x00\x02", b"AAAAAAAA\x00\x02",
        b"AAAAAAAA\x01\x00",
        b"B\x00B\x00\x00\x00\x00\x00\x00\x00", b"B\x00B\x00\x00\x00\x00\x00\x00\x00",
        b"B\x00B\x00\x00\x00\x00\x00\x00\x00", b"B\x00B\x00\x00\x00\x00\x00\x00\x00",
        b"B\x00B\x00\x00\x00\x00\x00\x00\x01",
        b"C" * 10,
        b"\xff" * 10,
    ]
    records = np.zeros((len(keys), 16), dtype=np.uint8)
    records[:, :10] = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, 10)
    records[:, 10:] = rng.permutation(len(keys) * 6).reshape(-1, 6) % 251  # distinct values
    return records


class TestTiesAndAdversaries:
    """The permutation check is exact: equal keys may come out in any
    order, and nothing else may differ by even one byte."""

    KEY = 10

    def _sorted_output(self, records, seed):
        """A valid output with every tie group internally shuffled."""
        rng = np.random.default_rng(seed)
        shuffled = records[rng.permutation(records.shape[0])]
        return shuffled[record_sort_indices(shuffled, self.KEY)]

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_groups_in_any_order_accepted(self, seed):
        records = _tied_records()
        rng = np.random.default_rng(100 + seed)
        input_records = records[rng.permutation(records.shape[0])]
        validate_sorted_records(input_records, self._sorted_output(records, seed), self.KEY)

    def test_one_flipped_value_byte_in_a_tie_group_rejected(self):
        records = _tied_records()
        output = self._sorted_output(records, 1)
        output[6, 13] ^= 0x01
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, output, self.KEY)

    def test_one_flipped_value_byte_outside_ties_rejected(self):
        records = _tied_records()
        output = self._sorted_output(records, 1)
        output[4, 15] ^= 0x80
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, output, self.KEY)

    def test_record_duplicated_over_same_key_neighbour_rejected(self):
        records = _tied_records()
        output = self._sorted_output(records, 2)
        assert bytes(output[2, :10]) == bytes(output[3, :10])
        output[3] = output[2]  # keys still sorted, count unchanged
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, output, self.KEY)

    def test_values_swapped_between_different_keys_rejected(self):
        records = _tied_records()
        output = self._sorted_output(records, 3)
        output[[0, 10], 10:] = output[[10, 0], 10:]
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, output, self.KEY)

    def test_input_ties_elsewhere_than_output_ties_rejected(self):
        """Same key *sequence length*, different tie structure: the
        tie canonicalisation must not paper over it."""
        records = _tied_records()
        output = self._sorted_output(records, 4)
        altered = records.copy()
        altered[0, :10] = altered[4, :10]  # input gains a tie the output lacks
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(altered, output, self.KEY)

    def test_single_descending_pair_rejected(self):
        records = _tied_records()
        output = self._sorted_output(records, 5)
        output[[3, 4]] = output[[4, 3]]  # differs only in key bytes 9-10
        with pytest.raises(ValidationError, match="ascending"):
            validate_sorted_records(records, output, self.KEY)

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_records(self, n):
        records = _tied_records()[:n]
        validate_sorted_records(records, records.copy(), self.KEY)

    def test_one_record_that_differs_rejected(self):
        records = _tied_records()[:1]
        other = records.copy()
        other[0, 12] ^= 1
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(records, other, self.KEY)

    def test_key_is_the_whole_record(self):
        rng = np.random.default_rng(0)
        records = rng.integers(0, 2, size=(64, 9), dtype=np.uint8)  # many identical rows
        output = records[record_sort_indices(records, 9)]
        validate_sorted_records(records, output, 9)
        wrong = output.copy()
        wrong[0] = wrong[-1]
        assert not _accepts(records, wrong, 9)

    def test_inputs_are_not_modified(self):
        records = _tied_records()
        output = self._sorted_output(records, 7)
        output.flags.writeable = False
        before = records.copy()
        validate_sorted_records(records, output, self.KEY)
        assert np.array_equal(records, before)

    def test_file_validation_reads_views_through_the_audit_hook(self, pmem):
        fmt = RecordFormat(key_size=10, value_size=6)
        records = _tied_records()
        machine = Machine(profile=pmem)
        fin, fout = machine.fs.create("in"), machine.fs.create("out")
        fin.poke(0, records.reshape(-1))
        fout.poke(0, self._sorted_output(records, 8).reshape(-1))
        raw = []

        class Audit(Probe):
            def subscriptions(self):
                return [("raw_move", self.note_raw)]

            def note_raw(self, name, kind, nbytes):
                raw.append((name, kind, nbytes))

        Audit().install(machine)
        assert validate_sorted_file(fin, fout, fmt) == 12
        assert raw == [("in", "peek", 192), ("out", "peek", 192)]
        assert bytes(fin.peek()) == records.tobytes()


class TestAgreesWithFullLexsortOracle:
    """On low-entropy records ties dominate -- leading words, whole keys
    and whole records all repeat -- and the verdict must still be the
    old full-record-lexsort validator's, accept or reject."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_verdict(self, data):
        key_size = data.draw(st.sampled_from([1, 2, 8, 9, 10]))
        value_size = data.draw(st.integers(0, 9))
        n = data.draw(st.integers(0, 24))
        symbols = st.sampled_from([0, 255])
        rows = data.draw(
            st.lists(
                st.lists(symbols, min_size=key_size + value_size, max_size=key_size + value_size),
                min_size=n, max_size=n,
            )
        )
        records = np.array(rows, dtype=np.uint8).reshape(n, key_size + value_size)
        output = records[data.draw(st.permutations(range(n)))] if n else records.copy()
        output = output[record_sort_indices(output, key_size)]
        mutation = data.draw(st.sampled_from(["none", "flip", "dup", "swap", "drop"]))
        if n >= 2 and mutation == "flip":
            r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, output.shape[1] - 1))
            output[r, c] ^= 0xFF
        elif n >= 2 and mutation == "dup":
            r = data.draw(st.integers(1, n - 1))
            output[r] = output[r - 1]
        elif n >= 2 and mutation == "swap":
            r = data.draw(st.integers(1, n - 1))
            output[[r - 1, r]] = output[[r, r - 1]]
        elif n >= 2 and mutation == "drop":
            output = output[:-1]
        assert _accepts(records, output, key_size) == _oracle_validate(
            records, output, key_size
        )


class TestKlvValidation:
    def _files(self, pmem, fmt, pairs_in, pairs_out):
        machine = Machine(profile=pmem)
        fin = machine.fs.create("in")
        fout = machine.fs.create("out")
        for f, pairs in ((fin, pairs_in), (fout, pairs_out)):
            keys = (
                np.frombuffer(
                    b"".join(k for k, _ in pairs), dtype=np.uint8
                ).reshape(len(pairs), fmt.key_size)
                if pairs
                else np.zeros((0, fmt.key_size), dtype=np.uint8)
            )
            values = [np.frombuffer(v, dtype=np.uint8) for _, v in pairs]
            f.poke(0, encode_klv(keys, values, fmt))
        return fin, fout

    def test_accepts_valid_klv(self, pmem):
        fmt = KLVFormat(key_size=2, len_size=1)
        pairs = [(b"bb", b"22"), (b"aa", b"1")]
        fin, fout = self._files(pmem, fmt, pairs, sorted(pairs))
        assert validate_sorted_klv(fin, fout, fmt) == 2

    def test_rejects_unsorted_klv(self, pmem):
        fmt = KLVFormat(key_size=2, len_size=1)
        pairs = [(b"aa", b"1"), (b"bb", b"2")]
        fin, fout = self._files(pmem, fmt, pairs, list(reversed(pairs)))
        with pytest.raises(ValidationError, match="ascending"):
            validate_sorted_klv(fin, fout, fmt)

    def test_rejects_value_swap(self, pmem):
        fmt = KLVFormat(key_size=2, len_size=1)
        pairs_in = [(b"aa", b"1"), (b"bb", b"2")]
        pairs_out = [(b"aa", b"2"), (b"bb", b"1")]
        fin, fout = self._files(pmem, fmt, pairs_in, pairs_out)
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_klv(fin, fout, fmt)
