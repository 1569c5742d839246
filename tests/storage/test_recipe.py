"""A generated file keeps its recipe: released bytes come back on demand.

``generate_dataset`` attaches the call that made a file's contents;
``SimFile.release`` then drops the host bytes while the file still holds
exactly that.  The contract:

* every read path returns the same bytes after a release as before;
* a read of a released file keeps nothing;
* any mutation first takes the bytes back (it lands on the recipe's
  bytes) and drops the recipe, so a later release is a no-op;
* ``size`` and ``fs.used`` never move on a release.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from tests.storage.test_file import run_op

FMT = RecordFormat()
RECORDS = 3_000


def _generated(machine, records=RECORDS, ascii_keys=False, name="in"):
    return generate_dataset(machine, name, records, FMT, seed=7, ascii_keys=ascii_keys)


def _digests(machine, f) -> list:
    """SHA-256 of what each read path returns from ``f``."""
    rec = FMT.record_size
    aligned = np.arange(RECORDS - 1, -1, -1, dtype=np.int64) * rec  # >= 512 rows
    unaligned = aligned[:100] + 3
    payloads = [
        f.peek(),
        f.peek(rec, 5 * rec),
        f.peek_view(),
        run_op(machine, f.read(17, 4_000, tag="r")),
        run_op(machine, f.read(0, 1_000, tag="r", out=np.empty(1_000, np.uint8))),
        run_op(machine, f.read_strided(0, RECORDS, rec, FMT.key_size, tag="s")),
        run_op(machine, f.read_gather(aligned, rec, tag="g")),
        run_op(machine, f.read_gather(unaligned, 50, tag="g")),
        run_op(machine, f.read_gather(
            aligned, rec, tag="g", out=np.empty(aligned.size * rec, np.uint8)
        )),
        run_op(machine, f.read_gather_var(unaligned, np.arange(100) % 7 + 1, tag="v")),
    ]
    return [hashlib.sha256(np.ascontiguousarray(p).tobytes()).hexdigest() for p in payloads]


@pytest.mark.parametrize("ascii_keys", [False, True], ids=["binary", "ascii"])
def test_every_read_path_reads_the_same_bytes_after_release(machine, ascii_keys):
    f = _generated(machine, ascii_keys=ascii_keys)
    before = _digests(machine, f)
    used, size = machine.fs.used, f.size
    f.release()
    assert f._data is None
    assert (machine.fs.used, f.size) == (used, size)
    assert _digests(machine, f) == before
    assert f._data is None  # the reads kept nothing


def test_reading_a_released_file_leaves_no_bytes_held(machine):
    warm = _generated(machine, name="warm")
    warm.release()
    warm.peek(), run_op(machine, warm.read(0, warm.size, tag="r"))  # warm every cache
    f = _generated(machine)
    f.release()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            payload = f.peek()
            payload = run_op(machine, f.read(0, f.size, tag="r"))
            del payload
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before >= f.size  # the reads did regenerate the file
    assert after - before < f.size // 10


def _traced_growth(call) -> tuple:
    """``(result, traced peak above the start)`` of ``call()``."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_peek_of_a_released_file_is_its_one_regeneration(machine):
    f = _generated(machine)
    f.release()
    f.peek()  # warm every cache
    regenerated, making = _traced_growth(f._recipe)
    recipe = hashlib.sha256(regenerated.tobytes()).hexdigest()
    del regenerated
    whole, peeking = _traced_growth(f.peek)
    # The generator's own temporaries (its keys: 0.1x) come on top of
    # the bytes, so one regeneration peaks at ~1.11x; a copy made 2x.
    assert peeking <= making + 0.01 * f.size, (peeking / f.size, making / f.size)
    assert peeking <= 1.2 * f.size
    assert hashlib.sha256(whole.tobytes()).hexdigest() == recipe
    assert whole.flags.writeable
    whole[:] = 0  # private: the file does not change
    assert hashlib.sha256(f.peek().tobytes()).hexdigest() == recipe
    part = f.peek(FMT.record_size, 2 * FMT.record_size)
    part[:] = 0  # a partial peek is a copy of the regeneration
    assert hashlib.sha256(f.peek().tobytes()).hexdigest() == recipe
    assert f._data is None


def test_a_write_into_a_released_file_lands_on_the_recipe_bytes(machine):
    f = _generated(machine)
    expected = f.peek()
    f.release()
    run_op(machine, f.write(100, b"xyz", tag="w"))
    expected[100:103] = np.frombuffer(b"xyz", np.uint8)
    assert np.array_equal(f.peek(), expected)
    f.release()  # no longer the recipe's contents
    assert f._data is not None and np.array_equal(f.peek(), expected)


def _mutate(machine, f, entry: str) -> None:
    if entry == "write":
        run_op(machine, f.write(10, b"w", tag="w"))
    elif entry == "append":
        run_op(machine, f.append(b"a", tag="w"))
    elif entry == "poke":
        f.poke(10, b"p")
    elif entry == "truncate":
        f.truncate(f.size - FMT.record_size)
    elif entry == "reserve":
        f.reserve(f.size + 4_096)
    elif entry == "staging":
        f.staging(f.size, 1)
    elif entry == "roll_back":
        f.roll_back(0, f.pre_image(0, 64))
    else:
        raise AssertionError(entry)


MUTATIONS = ["write", "append", "poke", "truncate", "reserve", "staging", "roll_back"]


@pytest.mark.parametrize("released_first", [False, True], ids=["held", "released"])
@pytest.mark.parametrize("entry", MUTATIONS)
def test_release_is_a_no_op_after_a_mutation(machine, entry, released_first):
    f = _generated(machine)
    if released_first:
        f.release()
    _mutate(machine, f, entry)
    contents = f.peek()
    f.release()
    assert f._data is not None
    assert np.array_equal(f.peek(), contents)


def test_release_is_a_no_op_after_adopt(machine):
    f = _generated(machine, records=0)
    f.adopt(np.arange(10, dtype=np.uint8))
    f.release()
    assert bytes(f.peek()) == bytes(range(10))


def test_release_is_a_no_op_on_a_written_file(machine):
    f = machine.fs.create("w")
    f.poke(0, b"abc")
    f.release()
    assert bytes(f.peek()) == b"abc"


_OPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 2_500), st.binary(min_size=1, max_size=300)),
    st.tuples(st.just("poke"), st.integers(0, 2_500), st.binary(min_size=1, max_size=300)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("reserve"), st.integers(0, 5_000)),
    st.tuples(st.just("release")),
    st.tuples(st.just("peek"), st.floats(0.0, 1.0), st.integers(0, 400)),
)


@settings(max_examples=80, deadline=None)
@given(
    records=st.integers(0, 20),
    ascii_keys=st.booleans(),
    ops=st.lists(_OPS, max_size=12),
)
def test_random_programs_match_a_bytearray(pmem, records, ascii_keys, ops):
    machine = Machine(profile=pmem)
    f = generate_dataset(machine, "in", records, FMT, seed=3, ascii_keys=ascii_keys)
    model = bytearray(f.peek().tobytes())
    for op in ops:
        kind = op[0]
        if kind in ("write", "poke"):
            _, offset, data = op
            if kind == "write":
                run_op(machine, f.write(offset, data, tag="w"))
            else:
                f.poke(offset, data)
            if offset > len(model):
                model.extend(bytes(offset - len(model)))
            model[offset : offset + len(data)] = data
        elif kind == "truncate":
            new_size = int(op[1] * len(model))
            f.truncate(new_size)
            del model[new_size:]
        elif kind == "reserve":
            f.reserve(op[1])
        elif kind == "release":
            f.release()
        else:
            offset = int(op[1] * len(model))
            nbytes = min(op[2], len(model) - offset)
            assert f.peek(offset, nbytes).tobytes() == bytes(model[offset : offset + nbytes])
        assert f.size == len(model) == machine.fs.used
    assert f.peek().tobytes() == bytes(model)
