"""gensort-workalike dataset generation.

The paper's inputs come from the sortbenchmark ``gensort`` tool:
fixed-size binary records with uniformly random keys.  We reproduce the
properties the algorithms depend on -- uniform random keys, fixed
geometry -- and embed the record's ordinal id at the start of each value
so permutation checking and debugging stay cheap.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

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
    # No zero-fill: template, ids and keys between them write every byte.
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
    first = _first_block(fmt.key_size, fmt.value_size)
    ids = np.arange(_BLOCK_ROWS, dtype="<u8") if n_records > _BLOCK_ROWS else None
    # One key-sized element per row: a 2-D copy 8-90 bytes wide costs
    # several times as much per row as whole rows or one wide element.
    key = np.dtype(f"V{fmt.key_size}")
    keys = keys.view(key)[:, 0]
    # Each pass over a block runs while the block is still in cache.
    for at in range(0, n_records, _BLOCK_ROWS):
        block = records[at : at + _BLOCK_ROWS]
        block[:] = first[: block.shape[0]]
        if at:
            _write_ids(block, ids[: block.shape[0]], at, fmt.key_size)
        block[:, : fmt.key_size].view(key)[:, 0] = keys[at : at + _BLOCK_ROWS]
    return records


#: Whole records repeat every 256 rows apart from key and id (the fill
#: depends on the id only through ``id % 256``: uint8 arithmetic wraps).
_TEMPLATE_ROWS = 256
#: Rows generated per block (a multiple of the template): ~800 KB of
#: 100-byte records.
_BLOCK_ROWS = 32 * _TEMPLATE_ROWS


@functools.lru_cache(maxsize=4)
def _first_block(key_size: int, value_size: int) -> np.ndarray:
    """Records ``0 .. _BLOCK_ROWS - 1`` with their keys left zero: a
    little-endian id prefix, then a rolling fill of the id.  A later
    block differs from it only in its ids, so every block starts as a
    copy of it.  Built once per geometry and shared, so read-only."""
    record_size = key_size + value_size
    fill_at = key_size + min(8, value_size)
    block = np.zeros((_BLOCK_ROWS, record_size), dtype=np.uint8)
    per_id = (np.arange(_TEMPLATE_ROWS, dtype=np.uint32) * 131 + 7).astype(np.uint8)
    fill = (np.arange(record_size - fill_at, dtype=np.uint32) * 7).astype(np.uint8)
    template = block[:_TEMPLATE_ROWS]
    np.add(per_id[:, None], fill, out=template[:, fill_at:])
    block[_TEMPLATE_ROWS:].reshape(-1, template.size)[:] = template.reshape(-1)
    _write_ids(block, np.arange(_BLOCK_ROWS, dtype="<u8"), 0, key_size)
    block.flags.writeable = False
    return block


def _write_ids(block: np.ndarray, ids: np.ndarray, first_id: int, key_size: int) -> None:
    """The ordinals ``first_id ..`` of ``block``'s rows, little-endian,
    into the (up to) eight value bytes after each key; ``ids`` is
    ``arange(len(block))`` as ``<u8``.

    The id prefix makes each (id, position) byte recoverable, so a
    corrupted or duplicated record is detectable without hashing.
    """
    n_records, record_size = block.shape
    id_bytes = min(8, record_size - key_size)
    fill_at = key_size + id_bytes
    if id_bytes == 8:
        np.add(ids, first_id, out=block[:, key_size:fill_at].view("<u8")[:, 0])
    else:
        block[:, key_size:fill_at] = (ids + first_id).view(np.uint8).reshape(n_records, 8)[:, :id_bytes]


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
    device before sorting starts).  The file keeps its recipe, so
    :meth:`~repro.storage.file.SimFile.release` can drop the bytes of an
    input nothing will write.
    """
    fmt = fmt if fmt is not None else RecordFormat()
    recipe = DatasetRecipe(n_records, fmt, seed, ascii_keys)
    records = recipe()
    f = machine.fs.create(name)
    f.adopt(records, recipe=recipe)
    return f


class DatasetRecipe(NamedTuple):
    """What :func:`generate_dataset` made a file from; calling it makes
    the file's bytes again (one tuple: a service keeps one per job)."""

    n_records: int
    fmt: RecordFormat
    seed: int
    ascii_keys: bool

    def __call__(self) -> np.ndarray:
        return make_records(*self).reshape(-1)
