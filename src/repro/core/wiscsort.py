"""WiscSort: BRAID-compliant external sorting (paper Sec 3).

The algorithm follows Fig 3's data-flow exactly:

OnePass (IndexMap fits in DRAM):
  1. *RUN read*    -- strided gather of keys, pointers generated on the fly
  2. *RUN sort*    -- concurrent in-place sort of the IndexMap
  3. *RECORD read* -- concurrent random reads of values into the write buffer
  4. *RUN write*   -- sequential flush of the write buffer to the output

MergePass (IndexMap exceeds DRAM):
  1-2 as above per chunk, then
  5. *RUN write*   -- persist each sorted IndexMap chunk as a run file
  6. *MERGE read*  -- window the IndexMap files into the read buffer
  7. *MERGE other* -- find minima, enqueue pointers on the offset queue
  8. *RECORD read* -- batch-gather values once the offset queue fills
  9. *MERGE write* -- flush the write buffer to the output

Reads and writes never overlap under the default NO_IO_OVERLAP model;
the IO_OVERLAP and NO_SYNC variants exist to reproduce Fig 7's ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.base import SortConfig
from repro.core.indexmap import IndexMap, entry_pointers
from repro.core.kway import (
    PendingRows,
    RunCursor,
    drive_merge,
    window_bytes_per_run,
)
from repro.core.recovery import CheckpointedRunMergeSort, unpack_entries
from repro.core.scheduler import pipelined_batches, transfer_batch
from repro.device.profile import Pattern
from repro.errors import ConfigError
from repro.records.format import RecordFormat
from repro.records.validate import validate_sorted_file
from repro.registry import register_system
from repro.sim.engine import Join
from repro.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.storage.file import SimFile


class IndexMapMergeSort(CheckpointedRunMergeSort):
    """MergePass over key-pointer runs (Fig 3 steps 5-9).

    Every run is a sorted IndexMap chunk of ``_chunk`` records;
    intermediate rounds merge entries only, and the final merge queues
    pointers on the offset queue and collects their values one write
    buffer at a time.  WiscSort, PMSort+ and PMSort share all of it and
    differ in how a run is loaded (:meth:`_build_run`) and, for PMSort,
    in how values are collected (:meth:`_collect_values`); KLV WiscSort
    brings its own final merge.
    """

    _run_write_proc = "imap-write"
    _inter_tag = "indexmerge"
    #: Refill merge windows one after another (PMSort's single thread).
    _serial_refills = False

    def __init__(self):
        super().__init__()
        #: Entries per IndexMap run, planned per sort.
        self._chunk = 0

    def _validate(self, machine, input_file, output_file) -> int:
        return validate_sorted_file(input_file, output_file, self.fmt)

    @property
    def _merge_entry_size(self) -> int:
        return self.fmt.index_entry_size

    def _plan_runs(self, machine, input_file):
        return self._chunk_runs(input_file.size // self.fmt.record_size)

    def _chunk_runs(self, n: int):
        """One IndexMap run per ``_chunk`` of ``n`` entries."""
        entry = self.fmt.index_entry_size
        plan = []
        for i, first in enumerate(range(0, n, self._chunk)):
            count = min(self._chunk, n - first)
            plan.append(
                (f"{self.output_name}.indexmap.{i}", count * entry, (first, count))
            )
        return plan

    def _run_cursors(self, machine, run_names, window) -> List[RunCursor]:
        return [self._run_cursor(machine, name, window) for name in run_names]

    def _run_cursor(self, machine, name, window) -> RunCursor:
        fmt = self.fmt
        return RunCursor(machine.fs.open(name), fmt.index_entry_size, fmt.key_size, window)

    def _final_cursors(self, machine, input_file, run_names) -> List[RunCursor]:
        """The final merge's cursor fleet, read buffer split evenly (none
        for an empty input)."""
        if not run_names:
            return []
        window = window_bytes_per_run(
            self.config.read_buffer, len(run_names), self.fmt.index_entry_size
        )
        return self._run_cursors(machine, run_names, window)

    def _merge_group(self, machine, input_file, controller, group, out_file):
        """Intermediate merge phase: merge IndexMap runs entry-wise.

        No value gathering happens here -- only key-pointer entries
        stream through the read buffer and out to the intermediate run;
        values are gathered exactly once, in the final phase, which is
        key-value separation's second dividend.
        """
        entry = self.fmt.index_entry_size
        window = window_bytes_per_run(self.config.read_buffer, len(group), entry)
        write_pool = controller.write_threads()
        pending = PendingRows(entry)

        def flush():
            if pending.count:
                yield out_file.append(
                    pending.pop(pending.count).reshape(-1), tag="MERGE write",
                    threads=write_pool,
                )

        def sink(emitted):
            pending.push(emitted)
            if pending.count * entry >= self.config.write_buffer:
                yield from flush()

        yield from drive_merge(
            machine, self._run_cursors(machine, group, window),
            controller.read_threads(Pattern.SEQ), sink,
            serial_refills=self._serial_refills,
        )
        yield from flush()

    def _final_merge(self, machine, input_file, output, controller, run_names,
                     resume=None):
        """Steps 6-9: cursor merge + offset queue + batched gathers.

        ``resume`` (crash recovery) carries the last committed merge
        checkpoint: per-run consumed entry counts, durable output record
        count and the taken-but-unflushed residual entries.
        """
        fmt = self.fmt
        rec = fmt.record_size
        cursors = self._final_cursors(machine, input_file, run_names)
        pending = PendingRows(fmt.index_entry_size)
        out_records = 0
        if resume is not None:
            for cursor, consumed in zip(cursors, resume["consumed"]):
                cursor.skip_entries(consumed)
            pending.push(
                unpack_entries(resume.get("residual", ""), fmt.index_entry_size)
            )
            out_records = resume["out_records"]
        queue_capacity = max(1, self.config.write_buffer // rec)
        overlap_writes: List = []

        def flush(final: bool = False):
            """Drain full offset-queue batches to the output."""
            nonlocal out_records
            for batch in pending.batches(queue_capacity, final):
                write_at = out_records * rec
                out_records += batch.shape[0]
                yield from self._collect_values(
                    machine, input_file, output, controller,
                    entry_pointers(batch, fmt.key_size, fmt.pointer_size),
                    write_at, overlap_writes,
                )
                if self._ckpt is not None:
                    yield from self._ckpt.save(
                        self._merge_checkpoint(
                            run_names, out_records, cursors, pending
                        )
                    )

        def sink(emitted):
            # Step 7's min-finding is charged by the driver; enqueue the
            # pointers and gather once the offset queue fills (step 8).
            pending.push(emitted)
            return flush() if pending.count >= queue_capacity else ()

        with self._span(machine, "phase:final-merge", fanin=len(cursors)):
            yield from drive_merge(
                machine, cursors, controller.read_threads(Pattern.SEQ), sink,
                serial_refills=self._serial_refills,
            )
            yield from flush(final=True)
            if overlap_writes:
                yield Join(overlap_writes)

    def _collect_values(self, machine, input_file, output, controller, pointers,
                        write_at, overlap_writes):
        """Steps 8-9 for one offset-queue batch: a concurrent random
        gather of the records ``pointers`` address, written at byte
        ``write_at``; an overlapped write joins ``overlap_writes``.

        Values gather straight into the output's reserved extent, so the
        write moves no bytes; a checkpointed sort copies (its writes can
        be torn and rolled back)."""
        rec = self.fmt.record_size
        staged = None if self._ckpt is not None else output.staging(
            write_at, len(pointers) * rec
        )
        yield from transfer_batch(
            machine,
            controller.config.concurrency,
            input_file.read_gather(
                pointers, rec, tag="RECORD read",
                threads=controller.read_threads(Pattern.RAND), out=staged,
            ),
            lambda data: output.write(
                write_at, data.reshape(-1), tag="MERGE write",
                threads=controller.write_threads(),
            ),
            overlap_writes,
            self._merge_write_proc,
        )


@register_system("wiscsort")
class WiscSort(IndexMapMergeSort):
    """The paper's sorting system for fixed-size records."""

    _proc_name = "wiscsort"
    _trace_phases = True

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        force_merge_pass: bool = False,
        merge_chunk_entries: Optional[int] = None,
        output_name: str = "wiscsort.out",
        compression: Optional["CompressionModel"] = None,
        checkpoint: bool = False,
    ):
        super().__init__()
        #: Persist a manifest after every durable milestone so the sort
        #: can resume via :meth:`recover` after a simulated crash.  Off
        #: by default -- with it off no manifest op is ever issued.
        self.checkpoint = checkpoint
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else SortConfig()
        self.force_merge_pass = force_merge_pass
        self.merge_chunk_entries = merge_chunk_entries
        self.output_name = output_name
        #: Optional Sec 5 extension: compress IndexMap run files.
        self.compression = compression
        self._run_frames: dict = {}
        self.achieved_compression_ratio: Optional[float] = None
        self.used_merge_pass: Optional[bool] = None
        mode = "merge" if force_merge_pass else "auto"
        self.name = f"wiscsort[{self.config.concurrency}:{mode}]"

    # ------------------------------------------------------------------
    def _execute(self, machine: "Machine", input_file: "SimFile") -> "SimFile":
        gen, output, name = self._prepare(machine, input_file)
        machine.run(gen, name=name)
        return output

    def _prepare(self, machine: "Machine", input_file: "SimFile"):
        """Plan the sort without driving the engine.

        Returns ``(generator, output_file, process_name)``.  The split
        lets a standalone run drive the generator via ``machine.run``
        while an already-running engine (cluster shards, the job
        scheduler) spawns it as a child process instead -- the engine
        cannot be re-entered from inside a simulated process.
        """
        fmt = self.fmt
        self._check_input(input_file)
        n = input_file.size // fmt.record_size
        if n > fmt.max_addressable_records():
            raise ConfigError(
                f"{n} records exceed {fmt.pointer_size}-byte pointer range"
            )
        self._check_checkpoint_config()
        controller = self._controller(machine)
        output = machine.fs.create(self.output_name)
        self._arm_checkpoint(machine.fs)
        if not self._plan_pass(machine, n):
            gen = self._one_pass(machine, input_file, output, controller, n)
            name = "wiscsort-onepass"
        else:
            gen = self._run_then_merge(machine, input_file, output, controller)
            name = "wiscsort-mergepass"
        return gen, output, name

    def sort_process(self, machine: "Machine", input_file: "SimFile"):
        """Run the whole sort as one simulated process (yield from).

        For callers that already own a running engine: cluster shards
        sorting concurrently, or scheduler-admitted jobs.  Returns the
        output file as the process result.
        """
        gen, output, _name = self._prepare(machine, input_file)
        yield from gen
        return output

    def _check_checkpoint_config(self) -> None:
        if self.checkpoint and self.compression is not None:
            raise ConfigError(
                "checkpointing is incompatible with IndexMap compression "
                "(run-file sizes are no longer predictable, so torn runs "
                "cannot be told apart from complete ones)"
            )
        super()._check_checkpoint_config()

    def _plan_pass(self, machine: "Machine", n: int) -> bool:
        """Fix the chunking of this sort; True selects MergePass."""
        self._chunk = self._plan_chunk(machine, n)
        self.used_merge_pass = self._chunk < n
        return self.used_merge_pass

    def _plan_chunk(self, machine: "Machine", n: int) -> int:
        """Entries per IndexMap chunk; == n selects OnePass."""
        if n == 0:
            return 0
        entry = self.fmt.index_entry_size
        full_map = n * entry
        # The paper's criterion: OnePass iff the whole IndexMap fits in
        # the available DRAM (Sec 3.6 / 4.1 -- buffers are accounted
        # separately from the 20 GB IndexMap cap).
        fits = machine.dram.would_fit(full_map)
        if fits and not self.force_merge_pass:
            return n
        if self.merge_chunk_entries is not None:
            chunk = self.merge_chunk_entries
        elif machine.dram.budget is not None:
            # Same criterion as the OnePass check: each chunk's IndexMap
            # fills the DRAM cap (buffers are accounted separately).
            avail = machine.dram.available or 0
            chunk = max(1, avail // entry)
        else:
            chunk = ceil_div(n, 4)
        return max(1, min(chunk, max(1, n - 1) if self.force_merge_pass else n))

    # ------------------------------------------------------------------
    # OnePass
    # ------------------------------------------------------------------
    def _one_pass(self, machine, input_file, output, controller, n: int,
                  start_records: int = 0):
        if n == 0:
            return
        output.reserve(input_file.size)
        with machine.trace_span("phase:onepass", records=n):
            imap = yield from self._load_chunk(
                machine, input_file, controller, first_record=0, count=n
            )
            yield from self._scatter_gather_out(
                machine, input_file, output, controller, imap.sorted_pointers(),
                skip_records=start_records,
            )
            yield from self._complete(machine.fs)

    def _load_chunk(self, machine, input_file, controller, first_record, count):
        """Steps 1-2: strided key gather + concurrent in-place sort, which
        is charged here; the caller orders the part of the IndexMap it
        goes on to read (OnePass the pointers, a run whole entries)."""
        fmt = self.fmt
        read_pool = controller.read_threads(Pattern.RAND)
        with self._span(machine, "run", cat="chunk", first=first_record, records=count):
            keys = yield input_file.read_strided(
                offset=first_record * fmt.record_size,
                count=count,
                stride=fmt.record_size,
                access_size=fmt.key_size,
                tag="RUN read",
                threads=read_pool,
            )
            # Pointer generation on the fly (Sec 3.7 step 1).
            yield machine.compute(
                machine.host.touch_seconds(count),
                tag="RUN read",
                cores=controller.sort_cores(),
            )
            imap = IndexMap.for_fixed_records(
                keys, first_record, fmt.record_size, fmt.pointer_size
            )
            yield machine.sort_compute(
                count, tag="RUN sort", cores=controller.sort_cores()
            )
        return imap

    def _scatter_gather_out(self, machine, input_file, output, controller,
                            pointers, skip_records: int = 0):
        """Steps 3-4: batched random value gathers + sequential writes.

        ``skip_records`` supports crash recovery: output batches below it
        are already durable and are not regenerated (write-minimising
        recovery -- the cheap key gather and sort are redone, the
        expensive value writes are not).
        """
        fmt = self.fmt
        rec = fmt.record_size
        batch_records = max(1, self.config.write_buffer // rec)
        gather_pool = controller.read_threads(Pattern.RAND)
        write_pool = controller.write_threads()
        model = self.config.concurrency
        n = len(pointers)
        starts = [s for s in range(0, n, batch_records) if s >= skip_records]

        def produce(start):
            batch = pointers[start : start + batch_records]
            # Values gather straight into the output's reserved extent,
            # so the write that follows moves no bytes; a checkpointed
            # sort copies (its writes can be torn and rolled back).
            staged = None if self._ckpt is not None else output.staging(
                start * rec, batch.size * rec
            )
            return input_file.read_gather(
                batch, rec, tag="RECORD read", threads=gather_pool, out=staged
            )

        def consume(start, data):
            offset = start * rec
            return output.write(
                offset, data.reshape(-1), tag="RUN write", threads=write_pool
            )

        with machine.trace_span("phase:output", batches=len(starts)):
            if self._ckpt is not None:
                # Checkpointed OnePass: strictly sequential (NO_IO_OVERLAP
                # is enforced), one manifest commit per durable output
                # batch.
                for start in starts:
                    data = yield produce(start)
                    yield consume(start, data)
                    yield from self._commit(
                        {
                            "phase": "onepass",
                            "out_records": min(n, start + batch_records),
                            "n_records": n,
                        }
                    )
                return
            yield from pipelined_batches(machine, model, starts, produce, consume)

    # ------------------------------------------------------------------
    # MergePass: the run builder and compressed runs (the merge is
    # IndexMapMergeSort's)
    # ------------------------------------------------------------------
    def _build_run(self, machine, input_file, controller, name, spec):
        """Steps 1, 2 and 5 for one chunk."""
        imap = yield from self._load_chunk(machine, input_file, controller, *spec)
        run_file = machine.fs.create(name)
        payload = imap.sorted().to_bytes()
        if self.compression is not None:
            from repro.core.compression import CompressedRunWriter

            raw_bytes = payload.size
            payload, frames, ratio = CompressedRunWriter(
                self.compression
            ).build_frames(payload, self.fmt.index_entry_size)
            self._run_frames[name] = frames
            self.achieved_compression_ratio = ratio
            yield machine.compute(
                self.compression.compress_seconds(raw_bytes),
                tag="RUN compress",
                cores=controller.sort_cores(),
            )
        return run_file.write(
            0, payload, tag="RUN write", threads=controller.write_threads()
        )

    def _run_cursor(self, machine, name, window):
        """Runs written compressed decompress as they are windowed."""
        frames = self._run_frames.get(name)
        if frames is None:
            return super()._run_cursor(machine, name, window)
        from repro.core.compression import CompressedRunCursor

        fmt = self.fmt
        return CompressedRunCursor(
            machine.fs.open(name), frames, fmt.index_entry_size, fmt.key_size,
            machine, self.compression,
        )

    # ------------------------------------------------------------------
    # Crash recovery (the state machine lives in CheckpointedRunMergeSort)
    # ------------------------------------------------------------------
    def _recover_without_runs(self, machine, input_file, output, controller,
                              state, metrics):
        """OnePass wrote no runs: redo the cheap key gather and sort,
        resume the output after its last durable batch."""
        rec = self.fmt.record_size
        n = input_file.size // rec
        # Same machine configuration => same OnePass/MergePass decision
        # and chunking as the crashed run.
        if self._plan_pass(machine, n):
            return None
        out_records = state["out_records"] if state.get("phase") == "onepass" else 0
        self._keep_prefix(output, out_records * rec, metrics)
        return self._one_pass(
            machine, input_file, output, controller, n, start_records=out_records
        )


@register_system("wiscsort-merge")
def _wiscsort_forced_merge(
    fmt: Optional[RecordFormat] = None, config: Optional[SortConfig] = None
) -> WiscSort:
    """WiscSort with MergePass forced regardless of DRAM headroom."""
    return WiscSort(fmt, config=config, force_merge_pass=True)
