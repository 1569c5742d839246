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
    low, high = (32, 127) if ascii_keys else (0, 256)
    records[:, : fmt.key_size] = rng.integers(
        low, high, size=(n_records, fmt.key_size), dtype=np.uint8
    )
    _fill_values(records[:, fmt.key_size :])
    return records


def _fill_values(values: np.ndarray) -> None:
    """Deterministic value bytes, written in place into an ``(n, v)`` view:
    little-endian id prefix + rolling fill.

    The id prefix makes each (id, position) byte recoverable, so a
    corrupted or duplicated record is detectable without hashing.
    """
    n_records, value_size = values.shape
    ids = np.arange(n_records, dtype=np.uint64)
    id_bytes = min(8, value_size)
    values[:, :id_bytes] = ids.view(np.uint8).reshape(n_records, 8)[:, :id_bytes]
    if value_size > id_bytes:
        # uint8 arithmetic wraps mod 256 naturally, so the outer "add"
        # stays tiny in memory (no 64-bit intermediates).
        row = (np.arange(value_size - id_bytes, dtype=np.uint32) * 7 % 256).astype(
            np.uint8
        )
        per_record = ((ids * np.uint64(131) + np.uint64(7)) % np.uint64(256)).astype(
            np.uint8
        )
        np.add(per_record[:, None], row[None, :], out=values[:, id_bytes:])


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
