"""gensort-workalike dataset generation.

The paper's inputs come from the sortbenchmark ``gensort`` tool:
fixed-size binary records with uniformly random keys.  We reproduce the
properties the algorithms depend on -- uniform random keys, fixed
geometry -- and embed the record's ordinal id at the start of each value
so permutation checking and debugging stay cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RecordFormatError
from repro.records.format import RecordFormat
from repro.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.storage.file import SimFile


def make_records(
    n_records: int,
    fmt: RecordFormat,
    seed: int = 0,
    ascii_keys: bool = False,
) -> np.ndarray:
    """Build an ``(n, record_size)`` uint8 matrix of gensort-style records.

    ``ascii_keys`` restricts key bytes to the printable range
    (gensort's ASCII mode); the default is full binary keys.
    """
    if n_records < 0:
        raise RecordFormatError("n_records must be >= 0")
    rng = np.random.default_rng(seed)
    # No zero-fill: keys and values between them overwrite every byte.
    records = np.empty((n_records, fmt.record_size), dtype=np.uint8)
    if ascii_keys:
        keys = rng.integers(32, 127, size=(n_records, fmt.key_size), dtype=np.uint8)
    else:
        # Full-range bytes are the generator's raw 64-bit words read low
        # byte first: the stream ``integers(0, 256, dtype=uint8)`` hands
        # out, without its per-byte buffering.
        nbytes = n_records * fmt.key_size
        words = rng.bit_generator.random_raw(ceil_div(nbytes, 8)).astype("<u8", copy=False)
        keys = words.view(np.uint8)[:nbytes].reshape(n_records, fmt.key_size)
    records[:, : fmt.key_size] = keys
    _fill_values(records, fmt.key_size)
    return records


def _fill_values(records: np.ndarray, key_size: int) -> None:
    """Deterministic value bytes, written in place after each row's key:
    little-endian id prefix + rolling fill.

    The id prefix makes each (id, position) byte recoverable, so a
    corrupted or duplicated record is detectable without hashing.
    """
    n_records, record_size = records.shape
    id_bytes = min(8, record_size - key_size)
    fill_at = key_size + id_bytes
    ids = np.arange(n_records, dtype="<u8")
    records[:, key_size:fill_at] = ids.view(np.uint8).reshape(n_records, 8)[:, :id_bytes]
    if record_size > fill_at:
        # The fill depends on the id only through ``id % 256`` (uint8
        # arithmetic wraps), so a 256-row table holds all of it and
        # whole blocks of 256 records take it as one broadcast.
        row = (np.arange(record_size - fill_at, dtype=np.uint32) * 7 % 256).astype(np.uint8)
        per_id = ((np.arange(256, dtype=np.uint32) * 131 + 7) % 256).astype(np.uint8)
        table = per_id[:, None] + row[None, :]
        blocks, rest = divmod(n_records, 256)
        records[: blocks * 256].reshape(blocks, 256, record_size)[:, :, fill_at:] = table
        records[blocks * 256 :, fill_at:] = table[:rest]


def generate_dataset(
    machine: "Machine",
    name: str,
    n_records: int,
    fmt: RecordFormat | None = None,
    seed: int = 0,
    ascii_keys: bool = False,
) -> "SimFile":
    """Create a simulated file containing a gensort-style dataset.

    Generation itself is untimed (the paper's datasets pre-exist on the
    device before sorting starts).
    """
    fmt = fmt if fmt is not None else RecordFormat()
    records = make_records(n_records, fmt, seed=seed, ascii_keys=ascii_keys)
    f = machine.fs.create(name)
    f.adopt(records.reshape(-1))
    return f
