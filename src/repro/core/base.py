"""Shared sorting-system interface, configuration and results.

Every sorting system in the reproduction (WiscSort, external merge sort,
PMSort, sample sort) implements :class:`SortSystem` and is driven the
same way by tests, examples and benchmarks::

    machine = Machine(profile=pmem_profile())
    input_file = generate_dataset(machine, "input", 400_000)
    result = WiscSort(fmt).run(machine, input_file)
    print(result.total_time, result.phases)

Each run expects a *fresh* machine so phase statistics are attributable.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigError
from repro.units import MiB, fmt_seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine
    from repro.storage.file import SimFile


class ConcurrencyModel(enum.Enum):
    """The three concurrency mechanisms of the paper's Fig 2.

    * ``NO_SYNC`` (Fig 2a): every worker independently loops
      read-sort-write; no pool sizing, reads and writes overlap freely.
    * ``IO_OVERLAP`` (Fig 2b): thread-pool controller sizes read/write
      pools, but reads of the next batch overlap writes of the previous.
    * ``NO_IO_OVERLAP`` (Fig 2c): pool sizing *and* interference-aware
      scheduling -- reads and writes never overlap (WiscSort's choice).
    """

    NO_SYNC = "no-sync"
    IO_OVERLAP = "io-overlap"
    NO_IO_OVERLAP = "no-io-overlap"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class SortConfig:
    """Tunables shared by all sorting systems.

    Buffer defaults mirror the paper's setup scaled by the same factor
    as record counts (10 GB read / 5 GB write buffers -> 10 MB / 5 MB).
    ``None`` thread counts defer to the thread-pool controller.
    """

    read_buffer: int = 10 * MiB
    write_buffer: int = 5 * MiB
    concurrency: ConcurrencyModel = ConcurrencyModel.NO_IO_OVERLAP
    read_threads: Optional[int] = None
    write_threads: Optional[int] = None
    sort_cores: Optional[int] = None
    validate: bool = True

    def __post_init__(self):
        if self.read_buffer < 4096 or self.write_buffer < 4096:
            raise ConfigError("buffers must be at least 4 KiB")
        for name in ("read_threads", "write_threads", "sort_cores"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be >= 1 or None")


@dataclass
class SortResult:
    """Outcome of one sorting run on one machine."""

    system: str
    total_time: float
    phases: Dict[str, float]
    internal_read: float
    internal_written: float
    user_read: float
    user_written: float
    output_name: str
    n_records: int
    validated: bool
    extras: Dict[str, float] = field(default_factory=dict)

    def phase(self, tag: str) -> float:
        """Busy time of one phase tag (0.0 when the phase never ran)."""
        return self.phases.get(tag, 0.0)

    def summary(self) -> str:
        parts = ", ".join(
            f"{tag}={fmt_seconds(t)}" for tag, t in self.phases.items()
        )
        return f"{self.system}: total={fmt_seconds(self.total_time)} ({parts})"


class SortSystem(ABC):
    """Base class: orchestrates a run and harvests machine statistics."""

    #: Human-readable system name (overridden per subclass/instance).
    name: str = "abstract-sort"

    @abstractmethod
    def _execute(self, machine: "Machine", input_file: "SimFile") -> "SimFile":
        """Run the sort; returns the output file.

        Implementations spawn simulated processes on ``machine`` and run
        the engine to completion.
        """

    def _validate(
        self, machine: "Machine", input_file: "SimFile", output_file: "SimFile"
    ) -> int:
        """Check output correctness; returns the record count."""
        raise NotImplementedError

    def finish(
        self,
        machine: "Machine",
        input_file: "SimFile",
        output_file: "SimFile",
        validate: bool,
    ) -> int:
        """A completed sort's last step: validate the output when asked
        (returns the record count, else -1), then release both files.

        Nothing reads the input after this, so a generated one drops its
        bytes (:meth:`~repro.storage.file.SimFile.release`), and so does
        an output whose validation proved it a reordering of such an
        input; a later read makes them again.
        """
        n_records = self._validate(machine, input_file, output_file) if validate else -1
        input_file.release()
        output_file.release()
        return n_records

    def _execute_recover(
        self, machine: "Machine", input_file: "SimFile"
    ) -> "SimFile":
        """Resume after a crash from the last durable checkpoint.

        Only checkpoint-enabled systems implement this; the default
        refuses (nothing durable exists to resume from).
        """
        raise NotImplementedError(f"{self.name} does not support recovery")

    def run(
        self,
        machine: "Machine",
        input_file: "SimFile",
        validate: bool = True,
    ) -> SortResult:
        """Execute the sort and package timing/traffic results."""
        return self._drive_and_harvest(machine, input_file, validate, recover=False)

    def recover(
        self,
        machine: "Machine",
        input_file: "SimFile",
        validate: bool = True,
    ) -> SortResult:
        """Resume an interrupted sort after :meth:`Machine.reboot`.

        Replays the checkpoint manifest, discards torn state, redoes
        only lost work, and packages results exactly like :meth:`run`.
        Because device statistics survive reboots, phase times and
        traffic in the result cover the *entire* workload including
        pre-crash and redone work; ``extras`` carries the
        salvaged-vs-redone byte accounting of this recovery.
        """
        return self._drive_and_harvest(machine, input_file, validate, recover=True)

    def _drive_and_harvest(
        self,
        machine: "Machine",
        input_file: "SimFile",
        validate: bool,
        recover: bool,
    ) -> SortResult:
        t0 = machine.now
        read0 = machine.stats.bytes_read_internal
        written0 = machine.stats.bytes_written_internal
        # Root tracing span; ``trace_span`` is a no-op context manager
        # on untraced machines (and clusters duck-typed as machines).
        with machine.trace_span(f"sort:{self.name}", cat="sort", recover=recover):
            if recover:
                output_file = self._execute_recover(machine, input_file)
            else:
                output_file = self._execute(machine, input_file)
            n_records = self.finish(machine, input_file, output_file, validate)
        phases = {
            tag: stats.busy_time for tag, stats in machine.stats.tag_table()
        }
        user_read = sum(
            s.user_bytes
            for t, s in machine.stats.tags.items()
            if "read" in t.lower()
        )
        user_written = sum(
            s.user_bytes
            for t, s in machine.stats.tags.items()
            if "write" in t.lower()
        )
        result = SortResult(
            system=self.name,
            total_time=machine.now - t0,
            phases=phases,
            internal_read=machine.stats.bytes_read_internal - read0,
            internal_written=machine.stats.bytes_written_internal - written0,
            user_read=user_read,
            user_written=user_written,
            output_name=output_file.name,
            n_records=n_records,
            validated=validate,
        )
        metrics = getattr(self, "last_recovery", None)
        if recover and metrics:
            result.extras.update(metrics)
            if machine.faults is not None:
                machine.faults.stats.salvaged_bytes += int(
                    metrics.get("salvaged_bytes", 0)
                )
                machine.faults.stats.redone_bytes += int(
                    metrics.get("redone_bytes", 0)
                )
        return result
