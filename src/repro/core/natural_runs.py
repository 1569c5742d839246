"""Natural-run detection (Sec 6 related work: MONTRES-NVM, NVMSorting).

"They detect naturally sorted portions of the data set which are
ignored during the run generation phase to reduce the total number of
writes.  These natural runs are merged on the fly during MERGE phase."
The paper notes WiscSort is orthogonal to this idea and that combining
them could further help -- this module does the combining.

:class:`NaturalRunWiscSort` behaves like WiscSort MergePass, but any
run-generation chunk whose keys are already non-decreasing is *not*
sorted and *no IndexMap file is written* for it: during the merge phase
a :class:`NaturalRunCursor` windows the chunk's keys directly from the
input file with strided gathers, synthesising pointers on the fly.
On fully or mostly presorted inputs this eliminates most RUN-phase
writes and MERGE-phase IndexMap reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.core.indexmap import IndexMap
from repro.core.kway import RunCursor, window_bytes_per_run
from repro.core.wiscsort import WiscSort
from repro.device.profile import Pattern
from repro.errors import ConfigError, SimulationError
from repro.records.format import adjacent_order, keys_ascending
from repro.registry import register_system

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.file import SimFile


def find_natural_runs(keys: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal non-decreasing segments of a key sequence.

    Returns half-open ``(start, stop)`` row ranges covering all rows.
    """
    n = keys.shape[0]
    if n == 0:
        return []
    descents, _tied = adjacent_order(keys)
    boundaries = np.flatnonzero(descents) + 1
    edges = [0, *boundaries.tolist(), n]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def sortedness(keys: np.ndarray) -> float:
    """Fraction of adjacent pairs already in order (1.0 = fully sorted)."""
    n = keys.shape[0]
    if n <= 1:
        return 1.0
    runs = find_natural_runs(keys)
    in_order = sum(stop - start - 1 for start, stop in runs)
    return in_order / (n - 1)


class NaturalRunCursor(RunCursor):
    """Merge cursor over a presorted input region -- no run file.

    Windows are filled by strided key gathers directly from the input
    file; pointers are synthesised from the region's record positions,
    so the emitted entries are byte-compatible with IndexMap entries.
    """

    def __init__(
        self,
        input_file: "SimFile",
        first_record: int,
        n_records: int,
        record_size: int,
        key_size: int,
        pointer_size: int,
        window_bytes: int,
    ):
        entry_size = key_size + pointer_size
        super().__init__(input_file, entry_size, key_size, window_bytes)
        self.first_record = first_record
        self.n_records = n_records
        self.record_size = record_size
        self.pointer_size = pointer_size
        self._consumed = 0  # records already windowed

    @property
    def file_exhausted(self) -> bool:  # type: ignore[override]
        return self._consumed >= self.n_records

    def refill_op(self, tag: str, threads: int = 1):
        if not self.needs_refill:
            raise SimulationError("refill_op called on a non-empty cursor")
        count = min(self.window_entries, self.n_records - self._consumed)
        start_record = self.first_record + self._consumed
        self._pending_start = start_record
        self._pending_count = count
        self._consumed += count
        self.bytes_loaded += count * self.key_size
        return self.file.read_strided(
            offset=start_record * self.record_size,
            count=count,
            stride=self.record_size,
            access_size=self.key_size,
            tag=tag,
            threads=threads,
        )

    def accept(self, keys: np.ndarray):  # type: ignore[override]
        imap = IndexMap.for_fixed_records(
            keys, self._pending_start, self.record_size, self.pointer_size
        )
        self.window = imap.to_bytes().reshape(-1, self.entry_size)
        return None


@register_system("wiscsort-natural")
class NaturalRunWiscSort(WiscSort):
    """WiscSort MergePass with natural-run elision.

    During run generation each chunk's gathered keys are checked for
    sortedness (a cheap linear scan, charged as touch work).  Presorted
    chunks skip the in-memory sort and the IndexMap write; at merge time
    they are windowed straight from the input.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.name = self.name.replace("wiscsort[", "wiscsort-nr[")
        self.natural_chunks = 0
        self.sorted_chunks = 0
        self._natural_regions: List[Tuple[int, int]] = []

    def _check_checkpoint_config(self) -> None:
        if self.checkpoint:
            raise ConfigError(
                "checkpointing is incompatible with natural-run elision "
                "(which chunks were elided is state the manifest does not "
                "describe, so recovery would merge them in twice)"
            )

    # -- run phase ------------------------------------------------------
    def _run_phase(self, machine, input_file, controller):
        fmt = self.fmt
        write_pool = controller.write_threads()
        read_pool = controller.read_threads(Pattern.RAND)
        run_names: List[str] = []
        self._natural_regions = []
        for run_name, _size, (first, count) in self._plan_runs(machine, input_file):
            keys = yield input_file.read_strided(
                offset=first * fmt.record_size,
                count=count,
                stride=fmt.record_size,
                access_size=fmt.key_size,
                tag="RUN read",
                threads=read_pool,
            )
            # Sortedness check: one linear pass over the chunk's keys.
            yield machine.compute(
                machine.host.touch_seconds(count), tag="RUN read",
                cores=controller.sort_cores(),
            )
            if keys_ascending(keys):
                self.natural_chunks += 1
                self._natural_regions.append((first, count))
                continue
            self.sorted_chunks += 1
            imap = IndexMap.for_fixed_records(
                keys, first, fmt.record_size, fmt.pointer_size
            )
            yield machine.sort_compute(
                count, tag="RUN sort", cores=controller.sort_cores()
            )
            run_names.append(run_name)
            yield machine.fs.create(run_name).write(
                0, imap.sorted().to_bytes(), tag="RUN write", threads=write_pool
            )
        return run_names

    # -- merge phase ----------------------------------------------------
    def _final_cursors(self, machine, input_file, run_names):
        """IndexMap runs plus one input-windowing cursor per natural
        region, the read buffer split evenly among all of them."""
        fmt = self.fmt
        window = window_bytes_per_run(
            self.config.read_buffer,
            len(run_names) + len(self._natural_regions),
            fmt.index_entry_size,
        )
        return self._run_cursors(machine, run_names, window) + [
            NaturalRunCursor(
                input_file, first, count, fmt.record_size, fmt.key_size,
                fmt.pointer_size, window,
            )
            for first, count in self._natural_regions
        ]
