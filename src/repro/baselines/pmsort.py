"""PMSort (Hua et al. [43]) and the paper's PMSort+ extensions.

PMSort separates keys from values (it writes only key-pointer runs),
but -- per the paper's critique (Sec 2.4.3) -- it:

1. loads *both* keys and values into DRAM during the RUN phase
   (sequential full-record reads, then an in-memory gather of keys:
   "causing two copies rather than one"),
2. sorts with single-threaded quicksort,
3. avoids concurrent random reads -- the published system is
   single-threaded end to end.

``PMSortPlus`` is the paper's own multi-threaded extension used in
Fig 7: same data movement, but with the Fig 2a (NO_SYNC) or Fig 2b
(IO_OVERLAP) concurrency models; its merge phase queues random-read
offsets so value gathering is concurrent, like WiscSort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.core.base import ConcurrencyModel, SortConfig, SortSystem
from repro.core.controller import ThreadPoolController
from repro.core.indexmap import IndexMap
from repro.core.kway import (
    PendingRows,
    RunCursor,
    drive_merge,
    window_bytes_per_run,
)
from repro.core.scheduler import _op_runner, transfer_batch
from repro.device.profile import Pattern
from repro.errors import ConfigError
from repro.records.format import RecordFormat
from repro.records.validate import validate_sorted_file
from repro.registry import register_system
from repro.sim.engine import Join, Spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.storage.file import SimFile


@register_system("pmsort")
class PMSort(SortSystem):
    """Faithful single-threaded PMSort."""

    name = "pmsort[single-thread]"

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        output_name: str = "pmsort.out",
    ):
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else SortConfig()
        self.output_name = output_name

    # ------------------------------------------------------------------
    def _validate(self, machine, input_file, output_file) -> int:
        return validate_sorted_file(input_file, output_file, self.fmt)

    def _execute(self, machine: "Machine", input_file: "SimFile") -> "SimFile":
        if input_file.size % self.fmt.record_size:
            raise ConfigError("input size not a multiple of record size")
        output = machine.fs.create(self.output_name)
        machine.run(self._drive(machine, input_file, output), name="pmsort")
        return output

    def _drive(self, machine, input_file, output):
        run_names = yield from self._run_phase(machine, input_file)
        yield from self._merge_phase(machine, input_file, output, run_names)
        for name in run_names:
            machine.fs.delete(name)

    def _run_phase(self, machine, input_file):
        """Sequential full-record reads + single-thread quicksort."""
        fmt = self.fmt
        rec = fmt.record_size
        chunk_records = max(1, self.config.read_buffer // rec)
        chunk_bytes = chunk_records * rec
        run_names: List[str] = []
        for i, offset in enumerate(range(0, input_file.size, chunk_bytes)):
            nbytes = min(chunk_bytes, input_file.size - offset)
            data = yield input_file.read(offset, nbytes, tag="RUN read", threads=1)
            records = data.reshape(-1, rec)
            n = records.shape[0]
            first_record = offset // rec
            # In-memory gather of keys+pointers from the record buffer
            # (the "redundant read" copy the paper criticises).
            yield machine.copy(n * fmt.key_size, tag="RUN other", cores=1)
            yield machine.compute(
                machine.host.touch_seconds(n), tag="RUN other", cores=1
            )
            imap = IndexMap.for_fixed_records(
                records[:, : fmt.key_size], first_record, rec, fmt.pointer_size
            )
            # Single-threaded quicksort.
            yield machine.sort_compute(n, tag="RUN sort", cores=1)
            run_name = f"{self.output_name}.indexmap.{i}"
            run_file = machine.fs.create(run_name)
            run_names.append(run_name)
            yield run_file.write(
                0, imap.sorted().to_bytes(), tag="RUN write", threads=1
            )
        return run_names

    def _merge_phase(self, machine, input_file, output, run_names):
        """Single-threaded merge; values fetched serially (1 thread)."""
        fmt = self.fmt
        entry = fmt.index_entry_size
        k = len(run_names)
        if k == 0:
            return
        window = window_bytes_per_run(self.config.read_buffer, k, entry)
        cursors = [
            RunCursor(machine.fs.open(name), entry, fmt.key_size, window)
            for name in run_names
        ]
        queue_records = max(1, self.config.write_buffer // fmt.record_size)
        pending = PendingRows(entry)
        out_offset = 0

        def flush(final: bool = False):
            nonlocal out_offset
            for batch in pending.batches(queue_records, final):
                take = batch.shape[0]
                imap = IndexMap.from_bytes(
                    batch.reshape(-1), fmt.key_size, fmt.pointer_size
                )
                # PMSort sorts the offset queue and collects the values
                # in a single-threaded *monotone* scan of the input
                # ("avoids performing random reads", like Hubbard [44]):
                # ascending offsets keep the device in its sequential
                # regime, but every record still pays the per-access
                # overhead, and one thread caps the bandwidth.  A second
                # in-memory copy puts records back in key order.
                file_order = np.argsort(imap.pointers, kind="stable")
                sweep = machine.io_raw(
                    machine.profile.random_batch_work(
                        np.full(take, fmt.record_size, dtype=np.int64)
                    ),
                    "read",
                    Pattern.SEQ,
                    user_bytes=take * fmt.record_size,
                    tag="RECORD read",
                    threads=1,
                )
                yield sweep
                with machine.fs.unaudited("PMSort record sweep, charged via io_raw above"):
                    all_records = input_file.peek().reshape(-1, fmt.record_size)  # reprolint: disable=DEV001 -- charged via the io_raw sweep op above
                data = all_records[imap.pointers[file_order] // fmt.record_size]
                key_order = np.empty_like(file_order)
                key_order[file_order] = np.arange(file_order.size)
                yield machine.copy(
                    take * fmt.record_size, tag="MERGE other", cores=1
                )
                yield output.write(
                    out_offset, data[key_order].reshape(-1),
                    tag="MERGE write", threads=1,
                )
                out_offset += take * fmt.record_size

        def sink(emitted):
            pending.push(emitted)
            return flush()

        # Faithful to the published system: window refills are serial,
        # one single-threaded read after another.
        yield from drive_merge(machine, cursors, 1, sink, serial_refills=True)
        yield from flush(final=True)


@register_system("pmsort+")
class PMSortPlus(SortSystem):
    """PMSort's data movement under Fig 2a/2b concurrency (the paper's
    own extension for a fair multi-threaded comparison)."""

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        output_name: str = "pmsort-plus.out",
    ):
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else SortConfig(
            concurrency=ConcurrencyModel.IO_OVERLAP
        )
        if self.config.concurrency is ConcurrencyModel.NO_IO_OVERLAP:
            raise ConfigError(
                "PMSortPlus models Fig 2a/2b only; NO_IO_OVERLAP with "
                "key-value separation is WiscSort"
            )
        self.output_name = output_name
        self.name = f"pmsort+[{self.config.concurrency}]"

    # ------------------------------------------------------------------
    def _validate(self, machine, input_file, output_file) -> int:
        return validate_sorted_file(input_file, output_file, self.fmt)

    def _execute(self, machine: "Machine", input_file: "SimFile") -> "SimFile":
        if input_file.size % self.fmt.record_size:
            raise ConfigError("input size not a multiple of record size")
        controller = ThreadPoolController(machine, self.config)
        output = machine.fs.create(self.output_name)
        machine.run(
            self._drive(machine, input_file, output, controller), name="pmsort+"
        )
        return output

    def _drive(self, machine, input_file, output, controller):
        run_names = yield from self._run_phase(machine, input_file, controller)
        yield from self._merge_phase(
            machine, input_file, output, controller, run_names
        )
        for name in run_names:
            machine.fs.delete(name)

    def _run_phase(self, machine, input_file, controller):
        """PMSort data movement, multi-threaded: sequential full-record
        reads, concurrent sort, IndexMap runs; chunk writes overlap the
        next chunk's read (both Fig 2a and 2b lack the read/write
        barrier)."""
        fmt = self.fmt
        rec = fmt.record_size
        chunk_records = max(1, self.config.read_buffer // rec)
        chunk_bytes = chunk_records * rec
        read_pool = controller.read_threads(Pattern.SEQ)
        write_pool = controller.write_threads()
        run_names: List[str] = []
        pending = None
        for i, offset in enumerate(range(0, input_file.size, chunk_bytes)):
            nbytes = min(chunk_bytes, input_file.size - offset)
            data = yield input_file.read(
                offset, nbytes, tag="RUN read", threads=read_pool
            )
            records = data.reshape(-1, rec)
            n = records.shape[0]
            yield machine.copy(
                n * fmt.key_size, tag="RUN other", cores=controller.sort_cores()
            )
            imap = IndexMap.for_fixed_records(
                records[:, : fmt.key_size], offset // rec, rec, fmt.pointer_size
            )
            yield machine.sort_compute(
                n, tag="RUN sort", cores=controller.sort_cores()
            )
            run_name = f"{self.output_name}.indexmap.{i}"
            run_file = machine.fs.create(run_name)
            run_names.append(run_name)
            write_op = run_file.write(
                0, imap.sorted().to_bytes(), tag="RUN write", threads=write_pool
            )
            if pending is not None:
                yield Join(pending)
            pending = yield Spawn(_op_runner(write_op), "pmsort-run-write")
        if pending is not None:
            yield Join(pending)
        return run_names

    def _merge_phase(self, machine, input_file, output, controller, run_names):
        """Concurrent offset-queue gathers; NO_SYNC moves values straight
        from input to output (no write buffer), IO_OVERLAP double-buffers."""
        fmt = self.fmt
        entry = fmt.index_entry_size
        k = len(run_names)
        if k == 0:
            return
        window = window_bytes_per_run(self.config.read_buffer, k, entry)
        cursors = [
            RunCursor(machine.fs.open(name), entry, fmt.key_size, window)
            for name in run_names
        ]
        gather_pool = controller.read_threads(Pattern.RAND)
        write_pool = controller.write_threads()
        queue_records = max(1, self.config.write_buffer // fmt.record_size)
        pending = PendingRows(entry)
        out_offset = 0
        overlap_writes: List = []

        def flush(final: bool = False):
            nonlocal out_offset
            for batch in pending.batches(queue_records, final):
                imap = IndexMap.from_bytes(
                    batch.reshape(-1), fmt.key_size, fmt.pointer_size
                )
                write_at = out_offset
                out_offset += batch.shape[0] * fmt.record_size
                yield from transfer_batch(
                    machine,
                    self.config.concurrency,
                    input_file.read_gather(
                        imap.pointers, fmt.record_size, tag="RECORD read",
                        threads=gather_pool,
                    ),
                    lambda data: output.write(
                        write_at, data.reshape(-1), tag="MERGE write",
                        threads=write_pool,
                    ),
                    overlap_writes,
                    "pmsort-merge-write",
                )

        def sink(emitted):
            pending.push(emitted)
            return flush()

        yield from drive_merge(
            machine, cursors, controller.read_threads(Pattern.SEQ), sink
        )
        yield from flush(final=True)
        if overlap_writes:
            yield Join(overlap_writes)
