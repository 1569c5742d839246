"""External merge sort over whole records (the paper's main baseline).

This is the "competitive" implementation of Sec 2.4/4.1: unlike a naive
port it *is* given the thread-pool controller and (in the default
NO_IO_OVERLAP flavour) interference-aware scheduling, i.e. it satisfies
BRAID properties I and D -- but it still bundles keys with values, so it
reads and writes the full record stream twice (run + merge), violating
B, R and A.

Phase tags follow Fig 4's legend: RUN read / RUN sort / RUN other /
RUN write / MERGE read / MERGE other / MERGE write.  "RUN other" is the
copying of records between the read buffer, key array and output buffer;
"MERGE other" is the single-threaded min-finding plus the single-
threaded record copy into the write buffer which the paper calls out as
impossible to parallelise for record runs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import ConcurrencyModel, SortConfig
from repro.core.kway import (
    PendingRows,
    RunCursor,
    StagedRows,
    drive_merge,
    window_bytes_per_run,
)
from repro.core.recovery import CheckpointedRunMergeSort, unpack_entries
from repro.core.scheduler import _op_runner
from repro.device.profile import Pattern
from repro.records.format import RecordFormat, record_sort_indices
from repro.records.validate import validate_sorted_file
from repro.registry import register_system
from repro.sim.engine import Join, Spawn


@register_system("ems")
class ExternalMergeSort(CheckpointedRunMergeSort):
    """Record-moving external merge sort with configurable concurrency.

    Checkpointing (``checkpoint=True``) makes it the comparison baseline
    of the fault-injection experiments; see repro.core.recovery.
    """

    _proc_name = "ems"

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        output_name: str = "ems.out",
        checkpoint: bool = False,
    ):
        # ``merge_passes`` is the M of Sec 2.4.1's traffic formula,
        # (1+M) x dataset; M = 1 in dominant cases.
        super().__init__()
        self.checkpoint = checkpoint
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else SortConfig()
        self.output_name = output_name
        self.name = f"ems[{self.config.concurrency}]"
        #: The run phase's one read buffer (while it lasts).
        self._read_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _validate(self, machine, input_file, output_file) -> int:
        return validate_sorted_file(input_file, output_file, self.fmt)

    # ------------------------------------------------------------------
    @property
    def _merge_entry_size(self) -> int:
        return self.fmt.record_size

    def _plan_runs(self, machine, input_file):
        """One record run per read-buffer-sized chunk of the input."""
        rec = self.fmt.record_size
        chunk_bytes = max(1, self.config.read_buffer // rec) * rec
        plan = []
        for i, offset in enumerate(range(0, input_file.size, chunk_bytes)):
            nbytes = min(chunk_bytes, input_file.size - offset)
            plan.append((f"{self.output_name}.run.{i}", nbytes, (offset, nbytes)))
        return plan

    def _build_run(self, machine, input_file, controller, name, spec):
        """Read a record chunk and sort it; returns its run-file write."""
        fmt = self.fmt
        offset, nbytes = spec
        # Every chunk lands in the one read buffer of the run phase.
        if self._read_buffer is None or self._read_buffer.size < nbytes:
            self._read_buffer = np.empty(nbytes, dtype=np.uint8)
        data = yield input_file.read(
            offset, nbytes, tag="RUN read",
            threads=controller.read_threads(Pattern.SEQ),
            out=self._read_buffer[:nbytes],
        )
        records = data.reshape(-1, fmt.record_size)
        n = records.shape[0]
        # Build the key array (key + read-buffer pointer).
        yield machine.copy(
            n * fmt.key_size, tag="RUN other", cores=controller.sort_cores()
        )
        yield machine.sort_compute(n, tag="RUN sort", cores=controller.sort_cores())
        order = record_sort_indices(records, fmt.key_size)
        # Copy full records from read buffer to the output buffer: the
        # run file's reserved extent, so the write moves no bytes.  A
        # checkpointed sort copies (its writes can be torn and rolled
        # back), and the read buffer itself is never a write payload.
        yield machine.copy(nbytes, tag="RUN other", cores=controller.sort_cores())
        run = machine.fs.create(name)
        run.reserve(nbytes)
        staged = None if self._ckpt is not None else run.staging(0, nbytes)
        ordered = records.take(
            order, axis=0, mode="clip",
            out=None if staged is None else staged.reshape(records.shape),
        )
        return run.write(
            0, ordered.reshape(-1), tag="RUN write",
            threads=controller.write_threads(),
        )

    # ------------------------------------------------------------------
    def _merge_tail(self, machine, input_file, output, controller, run_names):
        """Entered once every run is durable (normal run or recovery):
        the merge reads only the runs, recovery resumes from them, and
        validation makes the input again, so its bytes go now, with the
        run phase's read buffer."""
        input_file.release()
        self._read_buffer = None
        yield from super()._merge_tail(
            machine, input_file, output, controller, run_names
        )

    def _merge_group(self, machine, input_file, controller, group, out_file):
        yield from self._merge_to(machine, out_file, controller, group)

    def _final_merge(self, machine, input_file, output, controller, run_names,
                     resume=None):
        yield from self._merge_to(
            machine, output, controller, run_names, final=True, resume=resume
        )

    def _merge_to(self, machine, output, controller, run_names, final=False,
                  resume=None):
        """Single merge pass: windowed cursors, single-threaded merging.

        ``final`` enables per-flush manifest commits (the final merge of
        a checkpointed run); ``resume`` re-enters such a merge from its
        last committed state after a crash.
        """
        fmt = self.fmt
        rec = fmt.record_size
        if not run_names:
            return
        window = window_bytes_per_run(self.config.read_buffer, len(run_names), rec)
        cursors = [
            RunCursor(machine.fs.open(name), rec, fmt.key_size, window)
            for name in run_names
        ]
        write_pool = controller.write_threads()
        flush_records = max(1, self.config.write_buffer // rec)
        # Merged records go straight into the output's reserved extent,
        # copied from their windows once; a checkpointed sort copies them
        # through a write buffer, as its run build does.
        staged = self._ckpt is None and output.staging(
            output.size, sum(c.file.size for c in cursors)
        ) is not None
        pending = StagedRows(output, rec) if staged else PendingRows(rec)
        out_records = 0
        if resume is not None:
            for cursor, consumed in zip(cursors, resume["consumed"]):
                cursor.skip_entries(consumed)
            pending.push(unpack_entries(resume.get("residual", ""), rec))
            out_records = resume["out_records"]
        overlap_writes: List = []

        def flush(last: bool = False):
            nonlocal out_records
            for batch in pending.batches(flush_records, last):
                write_op = output.write(
                    out_records * rec, batch.reshape(-1), tag="MERGE write",
                    threads=write_pool,
                )
                out_records += batch.shape[0]
                if self.config.concurrency is ConcurrencyModel.NO_IO_OVERLAP:
                    yield write_op
                    if final and self._ckpt is not None:
                        yield from self._ckpt.save(
                            self._merge_checkpoint(
                                run_names, out_records, cursors, pending
                            )
                        )
                else:
                    overlap_writes.append(
                        (yield Spawn(_op_runner(write_op), self._merge_write_proc))
                    )

        def sink(emitted):
            # Single-threaded record copy to the write buffer, on top of
            # the driver's single-threaded min-finding (Sec 4.1).
            yield machine.copy(emitted.size, tag="MERGE other", cores=1)
            pending.push(emitted)
            yield from flush()

        yield from drive_merge(
            machine, cursors, controller.read_threads(Pattern.SEQ), sink,
            emit_to=pending.destination if staged else None,
        )
        yield from flush(last=True)
        if overlap_writes:
            yield Join(overlap_writes)
