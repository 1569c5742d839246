"""WiscSort for variable-length values (paper Sec 3.7.3).

Two changes versus the fixed-size algorithm:

* the IndexMap gains a value-length attribute: entries are
  ``(key, pointer, vlength)``, with the pointer addressing the *value*
  bytes in the input file;
* RUN read is **serial**: value lengths are only discovered by reading
  each record's header, so one reader thread walks the file ("this
  restriction is shared by other sorting algorithms as well").

Value gathers in the RECORD-read steps use variable-size random reads
partitioned over the gather pool.  MergePass is WiscSort's
(:class:`~repro.core.wiscsort.IndexMapMergeSort`): runs are slices of
the scanned IndexMap, and the final merge emits byte-sized batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.base import SortConfig
from repro.core.indexmap import IndexMap
from repro.core.kway import PendingRows, drive_merge
from repro.core.scheduler import pipelined_batches
from repro.core.wiscsort import IndexMapMergeSort
from repro.device.profile import Pattern
from repro.errors import RecordFormatError
from repro.records.klv import KLVFormat
from repro.records.validate import validate_sorted_klv
from repro.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.file import SimFile


def scan_klv_headers(
    stream: np.ndarray, fmt: KLVFormat
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk a KLV stream; returns (keys, value_offsets, vlens).

    The walk is inherently serial: the next header's position depends on
    the current value length.
    """
    stream = np.ascontiguousarray(stream, dtype=np.uint8).reshape(-1)
    keys: List[np.ndarray] = []
    offsets: List[int] = []
    lengths: List[int] = []
    pos = 0
    total = stream.size
    shifts = [8 * i for i in range(fmt.len_size)]
    while pos < total:
        if pos + fmt.header_size > total:
            raise RecordFormatError(f"truncated KLV header at {pos}")
        keys.append(stream[pos : pos + fmt.key_size])
        length = 0
        for i, shift in enumerate(shifts):
            length |= int(stream[pos + fmt.key_size + i]) << shift
        pos += fmt.header_size
        if pos + length > total:
            raise RecordFormatError(f"truncated KLV value at {pos}")
        offsets.append(pos)
        lengths.append(length)
        pos += length
    if not keys:
        return (
            np.zeros((0, fmt.key_size), dtype=np.uint8),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    return (
        np.stack(keys),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )


def reencode_klv(
    keys: np.ndarray, vlens: np.ndarray, values_flat: np.ndarray, fmt: KLVFormat
) -> np.ndarray:
    """Rebuild a KLV stream from sorted keys + gathered value bytes."""
    n = keys.shape[0]
    pieces: List[np.ndarray] = []
    cursor = 0
    for i in range(n):
        header = np.empty(fmt.header_size, dtype=np.uint8)
        header[: fmt.key_size] = keys[i]
        length = int(vlens[i])
        for j in range(fmt.len_size):
            header[fmt.key_size + j] = (length >> (8 * j)) & 0xFF
        pieces.append(header)
        pieces.append(values_flat[cursor : cursor + length])
        cursor += length
    if not pieces:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(pieces)


class WiscSortKLV(IndexMapMergeSort):
    """WiscSort over Key-Length-Value encoded variable-size records."""

    _proc_name = "wiscsort-klv"

    def __init__(
        self,
        fmt: Optional[KLVFormat] = None,
        config: Optional[SortConfig] = None,
        force_merge_pass: bool = False,
        merge_chunk_entries: Optional[int] = None,
        output_name: str = "wiscsort-klv.out",
    ):
        super().__init__()
        self.fmt = fmt if fmt is not None else KLVFormat()
        self.config = config if config is not None else SortConfig()
        self.force_merge_pass = force_merge_pass
        self.merge_chunk_entries = merge_chunk_entries
        self.output_name = output_name
        self.used_merge_pass: Optional[bool] = None
        #: The header scan's IndexMap, input order; runs are its slices.
        self._map: Optional[IndexMap] = None
        self.name = f"wiscsort-klv[{self.config.concurrency}]"

    # ------------------------------------------------------------------
    def _validate(self, machine, input_file, output_file) -> int:
        return validate_sorted_klv(input_file, output_file, self.fmt)

    def _check_input(self, input_file: "SimFile") -> None:
        """Nothing to check up front: the header scan walks the stream."""

    # ------------------------------------------------------------------
    def _serial_scan(self, machine, input_file, first_byte: int, nbytes: int):
        """Serially read headers across ``[first_byte, first_byte+nbytes)``.

        The device streams the extent sequentially with one thread; only
        the header bytes cross the memory bus.
        """
        fmt = self.fmt
        with machine.fs.unaudited("KLV header scan, charged via io_raw below"):
            data = input_file.peek(first_byte, nbytes)  # reprolint: disable=DEV001 -- charged via the io_raw scan op below
        keys, offsets, vlens = scan_klv_headers(data, fmt)
        work = machine.profile.io_work(Pattern.SEQ, nbytes)
        op = machine.io_raw(
            work,
            "read",
            Pattern.SEQ,
            user_bytes=len(keys) * fmt.header_size,
            tag="RUN read",
            threads=1,
        )
        yield op
        yield machine.compute(
            machine.host.touch_seconds(len(keys)), tag="RUN read", cores=1
        )
        return IndexMap(
            keys=keys,
            pointers=offsets + first_byte,
            pointer_size=fmt.pointer_size,
            vlens=vlens,
            len_size=fmt.len_size,
        )

    def _batches_by_bytes(self, imap: IndexMap) -> List[IndexMap]:
        """Split a sorted IndexMap so each batch's output fits the buffer."""
        fmt = self.fmt
        limit = self.config.write_buffer
        batches: List[IndexMap] = []
        start = 0
        acc = 0
        for i in range(len(imap)):
            rec_bytes = fmt.header_size + int(imap.vlens[i])
            if acc + rec_bytes > limit and i > start:
                batches.append(imap.slice(start, i))
                start = i
                acc = 0
            acc += rec_bytes
        if start < len(imap):
            batches.append(imap.slice(start, len(imap)))
        return batches

    def _run_then_merge(self, machine, input_file, output, controller):
        """RUN phase: one serial header scan, then OnePass when the
        IndexMap fits, else MergePass over chunks of it."""
        self._map = yield from self._serial_scan(machine, input_file, 0, input_file.size)
        n = len(self._map)
        if n == 0:
            return
        self._chunk = self._plan_chunk(machine, n, n * self._map.entry_size)
        self.used_merge_pass = self._chunk < n
        if self.used_merge_pass:
            yield from super()._run_then_merge(machine, input_file, output, controller)
            return
        yield machine.sort_compute(n, tag="RUN sort", cores=controller.sort_cores())
        yield from self._emit(machine, input_file, output, controller, self._map.sorted())

    def _plan_runs(self, machine, input_file):
        return self._chunk_runs(len(self._map))

    def _build_run(self, machine, input_file, controller, name, spec):
        first, count = spec
        part = self._map.slice(first, first + count)
        yield machine.sort_compute(len(part), tag="RUN sort", cores=controller.sort_cores())
        return machine.fs.create(name).write(
            0, part.sorted().to_bytes(), tag="RUN write",
            threads=controller.write_threads(),
        )

    def _plan_chunk(self, machine, n: int, map_bytes: int) -> int:
        if machine.dram.would_fit(map_bytes + self.config.write_buffer) and not self.force_merge_pass:
            return n
        if self.merge_chunk_entries is not None:
            return max(1, min(self.merge_chunk_entries, n - 1))
        entry = self.fmt.index_entry_size
        if machine.dram.budget is not None:
            # Chunk IndexMaps fill the DRAM cap, as in the fixed-size sort.
            avail = machine.dram.available or 0
            return max(1, min(avail // entry, n - 1))
        return max(1, ceil_div(n, 4))

    def _emit(self, machine, input_file, output, controller, imap: IndexMap):
        """Gather values batch-by-batch and write the sorted KLV stream."""
        fmt = self.fmt
        gather_pool = controller.read_threads(Pattern.RAND)
        write_pool = controller.write_threads()
        batches = self._batches_by_bytes(imap)

        def produce(batch: IndexMap):
            return input_file.read_gather_var(
                batch.pointers, batch.vlens, tag="RECORD read", threads=gather_pool
            )

        def consume(batch: IndexMap, values_flat):
            stream = reencode_klv(batch.keys, batch.vlens, values_flat, fmt)
            # append: safe because each batch's write op is created only
            # after the previous one has been applied to the file.
            return output.append(stream, tag="RUN write", threads=write_pool)

        yield from pipelined_batches(
            machine, self.config.concurrency, batches, produce, consume
        )

    def _final_merge(self, machine, input_file, output, controller, run_names,
                     resume=None):
        """Merge to byte-sized batches, each emitted like OnePass."""
        fmt = self.fmt
        entry = fmt.index_entry_size
        cursors = self._final_cursors(machine, input_file, run_names)
        pending = PendingRows(entry)
        pending_bytes = 0

        def flush():
            nonlocal pending_bytes
            if pending.count:
                merged = IndexMap.from_bytes(
                    pending.pop(pending.count).reshape(-1),
                    fmt.key_size, fmt.pointer_size, fmt.len_size,
                )
                pending_bytes = 0
                yield from self._emit(machine, input_file, output, controller, merged)

        def sink(emitted):
            nonlocal pending_bytes
            part = IndexMap.from_bytes(
                emitted.reshape(-1), fmt.key_size, fmt.pointer_size, fmt.len_size
            )
            pending.push(emitted)
            pending_bytes += int(part.vlens.sum()) + len(part) * fmt.header_size
            if pending_bytes >= self.config.write_buffer:
                yield from flush()

        yield from drive_merge(
            machine, cursors, controller.read_threads(Pattern.SEQ), sink
        )
        yield from flush()
