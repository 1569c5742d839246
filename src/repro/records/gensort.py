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
    # No zero-fill: values, then keys, between them overwrite every byte.
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
    _fill_values(records, fmt.key_size)
    # One key-sized element per row (see _fill_values).
    key = np.dtype(f"V{fmt.key_size}")
    records[:, : fmt.key_size].view(key)[:, 0] = keys.view(key)[:, 0]
    return records


def _fill_values(records: np.ndarray, key_size: int) -> None:
    """Deterministic value bytes, written in place after each row's key:
    little-endian id prefix + rolling fill.

    The id prefix makes each (id, position) byte recoverable, so a
    corrupted or duplicated record is detectable without hashing.  Key
    bytes are left for the caller to write.
    """
    n_records, record_size = records.shape
    id_bytes = min(8, record_size - key_size)
    fill_at = key_size + id_bytes
    # The fill depends on the id only through ``id % 256`` (uint8
    # arithmetic wraps), so whole records repeat every 256 rows apart
    # from key and id: copy a 256-row template in contiguous blocks,
    # then write the ids over it.  A 2-D copy 8-90 bytes wide costs
    # several times as much per row as whole rows or one wide element.
    rows = min(n_records, 256)
    template = np.zeros((rows, record_size), dtype=np.uint8)
    per_id = (np.arange(rows, dtype=np.uint32) * 131 + 7).astype(np.uint8)
    fill = (np.arange(record_size - fill_at, dtype=np.uint32) * 7).astype(np.uint8)
    np.add(per_id[:, None], fill, out=template[:, fill_at:])
    blocks, rest = divmod(n_records, 256)
    records[: blocks * 256].reshape(blocks, template.size)[:] = template.reshape(-1)
    records[blocks * 256 :] = template[:rest]
    ids = np.arange(n_records, dtype="<u8")
    if id_bytes == 8:
        records[:, key_size:fill_at].view("<u8")[:, 0] = ids
    else:
        records[:, key_size:fill_at] = ids.view(np.uint8).reshape(n_records, 8)[:, :id_bytes]


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
