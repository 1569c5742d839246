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

Both are WiscSort's MergePass (:class:`~repro.core.wiscsort.IndexMapMergeSort`)
with their own run loader; PMSort also brings its monotone value sweep.
Neither declares a ``checkpoint`` flag: a crash plan is refused.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.base import ConcurrencyModel, SortConfig
from repro.core.controller import ThreadPoolController
from repro.core.indexmap import IndexMap
from repro.core.wiscsort import IndexMapMergeSort
from repro.device.profile import Pattern
from repro.errors import ConfigError
from repro.records.format import RecordFormat
from repro.registry import register_system


@register_system("pmsort+")
class PMSortPlus(IndexMapMergeSort):
    """PMSort's data movement under Fig 2a/2b concurrency (the paper's
    own extension for a fair multi-threaded comparison)."""

    _proc_name = "pmsort+"
    _run_write_proc = "pmsort-run-write"
    _merge_write_proc = "pmsort-merge-write"

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        output_name: str = "pmsort-plus.out",
    ):
        if config is None:
            config = SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
        if config.concurrency is ConcurrencyModel.NO_IO_OVERLAP:
            raise ConfigError(
                "PMSortPlus models Fig 2a/2b only; NO_IO_OVERLAP with "
                "key-value separation is WiscSort"
            )
        self._setup(fmt, config, output_name)
        self.name = f"pmsort+[{config.concurrency}]"

    def _setup(self, fmt, config, output_name) -> None:
        """The constructor minus PMSort+'s refusal of NO_IO_OVERLAP."""
        super().__init__()
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config
        self.output_name = output_name

    # ------------------------------------------------------------------
    def _plan_runs(self, machine, input_file):
        """One run per read buffer of whole records."""
        self._chunk = max(1, self.config.read_buffer // self.fmt.record_size)
        return super()._plan_runs(machine, input_file)

    def _build_run(self, machine, input_file, controller, name, spec):
        """Sequential full-record reads, an in-memory gather of keys and
        pointers from the record buffer, then the sort.  Under Fig 2a and
        2b the run's write overlaps the next chunk's read (neither has the
        read/write barrier); PMSort's one thread writes it serially."""
        fmt = self.fmt
        rec = fmt.record_size
        first, count = spec
        data = yield input_file.read(
            first * rec, count * rec, tag="RUN read",
            threads=controller.read_threads(Pattern.SEQ),
        )
        records = data.reshape(-1, rec)
        yield from self._gather_keys(machine, controller, count)
        imap = IndexMap.for_fixed_records(
            records[:, : fmt.key_size], first, rec, fmt.pointer_size
        )
        yield machine.sort_compute(count, tag="RUN sort", cores=controller.sort_cores())
        return machine.fs.create(name).write(
            0, imap.sorted().to_bytes(), tag="RUN write",
            threads=controller.write_threads(),
        )

    def _gather_keys(self, machine, controller, n: int):
        """The "redundant read" copy the paper criticises."""
        yield machine.copy(
            n * self.fmt.key_size, tag="RUN other", cores=controller.sort_cores()
        )


@register_system("pmsort")
class PMSort(PMSortPlus):
    """Faithful single-threaded PMSort."""

    name = "pmsort[single-thread]"
    _proc_name = "pmsort"
    # Faithful to the published system: window refills are serial, one
    # single-threaded read after another.
    _serial_refills = True

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        output_name: str = "pmsort.out",
    ):
        # Any concurrency model is accepted and ignored (see _controller).
        self._setup(fmt, config if config is not None else SortConfig(), output_name)

    def _controller(self, machine) -> ThreadPoolController:
        """One thread and one core everywhere, whatever the model: run
        writes never overlap and refills never run concurrently."""
        return ThreadPoolController.of(machine, replace(
            self.config, concurrency=ConcurrencyModel.NO_IO_OVERLAP,
            read_threads=1, write_threads=1, sort_cores=1,
        ))

    def _gather_keys(self, machine, controller, n: int):
        yield from super()._gather_keys(machine, controller, n)
        # Pointer generation for the key array.
        yield machine.compute(
            machine.host.touch_seconds(n), tag="RUN other",
            cores=controller.sort_cores(),
        )

    def _collect_values(self, machine, input_file, output, controller, pointers,
                        write_at, overlap_writes):
        """PMSort sorts the offset queue and collects the values in a
        single-threaded *monotone* scan of the input ("avoids performing
        random reads", like Hubbard [44]): ascending offsets keep the
        device in its sequential regime, but every record still pays the
        per-access overhead, and one thread caps the bandwidth.  A second
        in-memory copy puts records back in key order."""
        rec = self.fmt.record_size
        take = pointers.size
        file_order = np.argsort(pointers, kind="stable")
        yield machine.io_raw(
            machine.profile.random_batch_work(np.full(take, rec, dtype=np.int64)),
            "read",
            Pattern.SEQ,
            user_bytes=take * rec,
            tag="RECORD read",
            threads=1,
        )
        with machine.fs.unaudited("PMSort record sweep, charged via io_raw above"):
            all_records = input_file.peek().reshape(-1, rec)  # reprolint: disable=DEV001 -- charged via the io_raw sweep op above
        data = all_records[pointers[file_order] // rec]
        key_order = np.empty_like(file_order)
        key_order[file_order] = np.arange(file_order.size)
        yield machine.copy(take * rec, tag="MERGE other", cores=1)
        yield output.write(
            write_at, data[key_order].reshape(-1), tag="MERGE write", threads=1,
        )
