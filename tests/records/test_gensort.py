"""Tests for the gensort-workalike generator."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.errors import RecordFormatError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset, make_records

_GOLDEN = json.loads(Path(__file__).with_name("gensort_golden.json").read_text())


class TestMakeRecords:
    def test_shape_and_dtype(self, fmt):
        records = make_records(100, fmt, seed=1)
        assert records.shape == (100, 100)
        assert records.dtype == np.uint8

    def test_deterministic_by_seed(self, fmt):
        a = make_records(50, fmt, seed=5)
        b = make_records(50, fmt, seed=5)
        c = make_records(50, fmt, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ascii_mode_keys_printable(self, fmt):
        records = make_records(200, fmt, seed=1, ascii_keys=True)
        keys = records[:, : fmt.key_size]
        assert keys.min() >= 32 and keys.max() <= 126

    def test_binary_keys_cover_range(self, fmt):
        records = make_records(5000, fmt, seed=1)
        keys = records[:, : fmt.key_size]
        assert keys.min() < 16 and keys.max() > 239

    def test_record_ids_embedded_in_values(self, fmt):
        records = make_records(300, fmt, seed=1)
        values = records[:, fmt.key_size :]
        ids = values[:, :8].copy().view("<u8").reshape(-1)
        assert ids.tolist() == list(range(300))

    def test_values_unique_per_record(self, fmt):
        records = make_records(100, fmt, seed=1)
        values = {bytes(v) for v in records[:, fmt.key_size :]}
        assert len(values) == 100

    def test_zero_records(self, fmt):
        assert make_records(0, fmt).shape == (0, 100)

    def test_negative_rejected(self, fmt):
        with pytest.raises(RecordFormatError):
            make_records(-1, fmt)

    def test_tiny_value_size(self):
        fmt = RecordFormat(key_size=4, value_size=2)
        records = make_records(10, fmt, seed=1)
        assert records.shape == (10, 6)

    def test_zero_value_size(self):
        fmt = RecordFormat(key_size=8, value_size=0)
        records = make_records(10, fmt, seed=1)
        assert records.shape == (10, 8)

    @pytest.mark.parametrize(
        "fmt, n, seed, ascii_keys, digest",
        [
            (RecordFormat(), 1000, 0, False,
             "d6d82e817bd582516ecab7b0b120f4b2df06b7ed1c3b8286400f1f837240b197"),
            (RecordFormat(), 1000, 0, True,
             "7aa4022f5688fa5e970cb9e5ee82cca85c1d89aa5ccd79638c5bbbfb7d1d69a6"),
            # value shorter than the 8-byte id prefix
            (RecordFormat(key_size=4, value_size=3), 257, 3, False,
             "b3a27666a258a9f64dc333095bfc89860a691c311fc48c5e0094016eed2c04f3"),
        ],
    )
    def test_dataset_bytes_are_frozen(self, fmt, n, seed, ascii_keys, digest):
        """Digests taken before ``make_records`` stopped zero-filling:
        every committed fingerprint depends on these exact bytes."""
        records = make_records(n, fmt, seed=seed, ascii_keys=ascii_keys)
        assert records.flags.c_contiguous and records.flags.writeable
        assert hashlib.sha256(records.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", _GOLDEN["grid"]["n"])
    def test_golden_digest_grid(self, n):
        """``gensort_golden.json`` holds SHA-256 of ``make_records`` over
        the whole grid, captured at the parent of the table-driven
        generator: block edges (255/256/257, 65537), value sizes around
        the 8-byte ordinal, both key modes, three seeds."""
        grid = _GOLDEN["grid"]
        for value_size in grid["value_size"]:
            fmt = RecordFormat(key_size=_GOLDEN["key_size"], value_size=value_size)
            for ascii_keys in grid["ascii_keys"]:
                for seed in grid["seed"]:
                    records = make_records(n, fmt, seed=seed, ascii_keys=ascii_keys)
                    case = (
                        f"n={n},value_size={value_size},"
                        f"ascii_keys={int(ascii_keys)},seed={seed}"
                    )
                    assert records.shape == (n, fmt.record_size), case
                    assert records.flags.c_contiguous and records.flags.writeable
                    digest = hashlib.sha256(records.tobytes()).hexdigest()
                    assert digest == _GOLDEN["sha256"][case], case

    def test_golden_grid_is_complete(self):
        cases = math.prod(len(axis) for axis in _GOLDEN["grid"].values())
        assert len(_GOLDEN["sha256"]) == cases == 252


class TestGenerateDataset:
    def test_file_holds_all_records(self, pmem, fmt):
        machine = Machine(profile=pmem)
        f = generate_dataset(machine, "input", 100, fmt, seed=3)
        assert f.size == 100 * fmt.record_size
        data = f.peek().reshape(-1, fmt.record_size)
        assert np.array_equal(data, make_records(100, fmt, seed=3))

    def test_generation_is_untimed(self, pmem, fmt):
        machine = Machine(profile=pmem)
        generate_dataset(machine, "input", 100, fmt)
        assert machine.now == 0.0
