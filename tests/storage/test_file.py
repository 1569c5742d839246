"""Tests for simulated files: data correctness plus timing accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FileExistsInSimError, FileNotFoundInSimError, OutOfSpaceError, StorageError
from repro.machine import Machine
from repro.sim.probe import Probe
from repro.device.profiles import pmem_profile


def run_op(machine, op):
    """Yield a single op from a throwaway process; return its result."""
    def job():
        return (yield op)

    return machine.run(job())


class TestReadWrite:
    def test_write_then_read_roundtrip(self, machine):
        f = machine.fs.create("f")
        payload = np.arange(1000, dtype=np.uint8) % 251
        run_op(machine, f.write(0, payload, tag="w"))
        data = run_op(machine, f.read(0, 1000, tag="r"))
        assert np.array_equal(data, payload)

    def test_write_at_offset_extends_file(self, machine):
        f = machine.fs.create("f")
        run_op(machine, f.write(500, b"abc", tag="w"))
        assert f.size == 503
        assert bytes(f.peek(500, 3)) == b"abc"

    def test_append_goes_to_end(self, machine):
        f = machine.fs.create("f")
        run_op(machine, f.append(b"aaa", tag="w"))
        run_op(machine, f.append(b"bbb", tag="w"))
        assert bytes(f.peek()) == b"aaabbb"

    def test_read_beyond_eof_raises(self, machine):
        f = machine.fs.create("f")
        f.poke(0, b"xyz")
        with pytest.raises(StorageError):
            f.read(0, 10, tag="r")

    def test_read_charges_time(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.zeros(1 << 20, dtype=np.uint8))
        run_op(machine, f.read(0, 1 << 20, tag="r", threads=16))
        assert machine.now > 0

    def test_reads_return_copies(self, machine):
        f = machine.fs.create("f")
        f.poke(0, b"abc")
        data = run_op(machine, f.read(0, 3, tag="r"))
        data[0] = 0
        assert bytes(f.peek(0, 3)) == b"abc"

    @pytest.mark.parametrize(
        "data",
        [
            np.array([1, 300, 70000, -1]),  # used to store [1, 44, 112, 255]
            np.array([1.5, 2.5]),
            np.array([True, False]),
            np.arange(4, dtype=np.int8),
            np.arange(4, dtype=np.uint16),
        ],
        ids=lambda a: str(a.dtype),
    )
    def test_non_uint8_arrays_are_rejected_not_narrowed(self, machine, data):
        f = machine.fs.create("f")
        for store in (
            lambda: f.poke(0, data),
            lambda: f.write(0, data, tag="w"),
            lambda: f.append(data, tag="w"),
        ):
            with pytest.raises(StorageError, match=str(data.dtype)):
                store()
        assert f.size == 0 and machine.fs.used == 0

    def test_bytes_like_and_uint8_still_accepted(self, machine):
        f = machine.fs.create("f")
        f.poke(0, b"ab")
        f.poke(2, bytearray(b"cd"))
        f.poke(4, np.frombuffer(b"efgh", dtype=np.uint8).reshape(2, 2)[:, 0])
        assert bytes(f.peek()) == b"abcdeg"


class TestAdopt:
    def test_adopts_without_copy_and_charges_capacity(self, machine):
        f = machine.fs.create("f")
        data = np.arange(1000, dtype=np.uint8) % 251
        f.adopt(data)
        assert f.size == 1000 and machine.fs.used == 1000
        assert np.shares_memory(f.peek_view(), data)
        assert np.array_equal(run_op(machine, f.read(0, 1000, tag="r")), data)

    def test_adopted_file_grows_and_truncates_like_any_other(self, machine):
        f = machine.fs.create("f")
        f.adopt(np.full(100, 7, dtype=np.uint8))
        run_op(machine, f.append(b"abc", tag="w"))
        assert f.size == 103 and bytes(f.peek(98, 5)) == b"\x07\x07abc"
        f.truncate(50)
        assert f.size == 50 and machine.fs.used == 50

    def test_audited_as_a_raw_poke(self, machine):
        notes = []

        class Audit(Probe):
            def subscriptions(self):
                return [("raw_move", self.note_raw)]

            def note_raw(self, name, kind, nbytes):
                notes.append((name, kind, nbytes))

        Audit().install(machine)
        machine.fs.create("f").adopt(np.zeros(64, dtype=np.uint8))
        assert notes == [("f", "poke", 64)]

    def test_rejects_non_empty_file_and_foreign_layouts(self, machine):
        f = machine.fs.create("f")
        for bad in (
            np.zeros(8, dtype=np.int32),
            np.zeros((2, 4), dtype=np.uint8),
            np.zeros(16, dtype=np.uint8)[::2],
            np.frombuffer(b"read-only", dtype=np.uint8),
        ):
            with pytest.raises(StorageError):
                f.adopt(bad)
        f.poke(0, b"x")
        with pytest.raises(StorageError):
            f.adopt(np.zeros(4, dtype=np.uint8))

    def test_out_of_space_leaves_the_file_empty(self):
        machine = Machine(profile=pmem_profile(capacity=1000))
        f = machine.fs.create("f")
        with pytest.raises(OutOfSpaceError):
            f.adopt(np.zeros(2000, dtype=np.uint8))
        assert f.size == 0 and machine.fs.used == 0


class TestStrided:
    def test_strided_gathers_fields(self, machine):
        f = machine.fs.create("f")
        records = (np.arange(50 * 10) % 256).astype(np.uint8).reshape(50, 10)
        f.poke(0, records.reshape(-1))
        keys = run_op(
            machine,
            f.read_strided(0, 50, stride=10, access_size=3, tag="r"),
        )
        assert keys.shape == (50, 3)
        assert np.array_equal(keys, records[:, :3])

    def test_strided_with_offset(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.arange(100, dtype=np.uint8))
        rows = run_op(
            machine, f.read_strided(10, 3, stride=20, access_size=2, tag="r")
        )
        assert rows.tolist() == [[10, 11], [30, 31], [50, 51]]

    def test_strided_zero_count(self, machine):
        f = machine.fs.create("f")
        rows = run_op(
            machine, f.read_strided(0, 0, stride=10, access_size=2, tag="r")
        )
        assert rows.shape == (0, 2)

    def test_stride_smaller_than_access_rejected(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.zeros(100, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_strided(0, 5, stride=2, access_size=5, tag="r")

    def test_strided_past_eof_rejected(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.zeros(50, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_strided(0, 10, stride=10, access_size=5, tag="r")


class TestGather:
    def test_gather_returns_requested_order(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.arange(100, dtype=np.uint8))
        rows = run_op(machine, f.read_gather([30, 0, 60], 4, tag="r"))
        assert rows.tolist() == [
            [30, 31, 32, 33],
            [0, 1, 2, 3],
            [60, 61, 62, 63],
        ]

    def test_gather_empty(self, machine):
        f = machine.fs.create("f")
        rows = run_op(machine, f.read_gather([], 4, tag="r"))
        assert rows.shape == (0, 4)

    def test_gather_out_of_bounds_rejected(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.zeros(10, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_gather([8], 4, tag="r")

    def test_gather_var_concatenates_in_order(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.arange(100, dtype=np.uint8))
        flat = run_op(
            machine, f.read_gather_var([10, 50], [2, 3], tag="r")
        )
        assert flat.tolist() == [10, 11, 50, 51, 52]

    def test_gather_var_shape_mismatch_rejected(self, machine):
        f = machine.fs.create("f")
        f.poke(0, np.zeros(10, dtype=np.uint8))
        with pytest.raises(StorageError):
            f.read_gather_var([0, 1], [1], tag="r")

    def test_gather_var_empty(self, machine):
        f = machine.fs.create("f")
        flat = run_op(machine, f.read_gather_var([], [], tag="r"))
        assert flat.size == 0


class TestFilesystem:
    def test_create_open_delete(self, machine):
        machine.fs.create("a")
        assert machine.fs.exists("a")
        assert machine.fs.open("a").name == "a"
        machine.fs.delete("a")
        assert not machine.fs.exists("a")

    def test_duplicate_create_rejected(self, machine):
        machine.fs.create("a")
        with pytest.raises(FileExistsInSimError):
            machine.fs.create("a")

    def test_missing_open_rejected(self, machine):
        with pytest.raises(FileNotFoundInSimError):
            machine.fs.open("nope")

    def test_missing_delete_rejected(self, machine):
        with pytest.raises(FileNotFoundInSimError):
            machine.fs.delete("nope")

    def test_capacity_accounting(self, machine):
        f = machine.fs.create("a")
        f.poke(0, np.zeros(1000, dtype=np.uint8))
        assert machine.fs.used == 1000
        machine.fs.delete("a")
        assert machine.fs.used == 0

    def test_overwrite_does_not_double_count(self, machine):
        f = machine.fs.create("a")
        f.poke(0, np.zeros(1000, dtype=np.uint8))
        f.poke(0, np.ones(1000, dtype=np.uint8))
        assert machine.fs.used == 1000

    def test_out_of_space(self):
        profile = pmem_profile(capacity=1000)
        machine = Machine(profile=profile)
        f = machine.fs.create("a")
        with pytest.raises(OutOfSpaceError):
            f.poke(0, np.zeros(2000, dtype=np.uint8))

    def test_out_of_space_reports_requested_vs_available(self):
        """Regression: ENOSPC must say how far over budget the request was."""
        profile = pmem_profile(capacity=1000)
        machine = Machine(profile=profile)
        f = machine.fs.create("a")
        f.poke(0, np.zeros(600, dtype=np.uint8))
        with pytest.raises(OutOfSpaceError) as exc_info:
            f.poke(600, np.zeros(700, dtype=np.uint8))
        err = exc_info.value
        assert err.requested == 700
        assert err.available == 400
        assert not err.transient
        assert "700" in str(err) and "400" in str(err)
        # the failed grow charged nothing
        assert machine.fs.used == 600

    def test_out_of_space_after_delete_frees_capacity(self):
        profile = pmem_profile(capacity=1000)
        machine = Machine(profile=profile)
        f = machine.fs.create("a")
        f.poke(0, np.zeros(800, dtype=np.uint8))
        machine.fs.delete("a")
        g = machine.fs.create("b")
        g.poke(0, np.zeros(900, dtype=np.uint8))
        assert machine.fs.used == 900

    def test_list_is_sorted(self, machine):
        for name in ("c", "a", "b"):
            machine.fs.create(name)
        assert machine.fs.list() == ["a", "b", "c"]
