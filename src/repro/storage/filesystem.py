"""A flat simulated filesystem on one device.

Tracks used capacity against the device profile's ``capacity`` so that
experiments honour the paper's constraint that the dataset, IndexMap
files and output all fit on the BRAID device (Sec 2.5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.device.device import make_io_op
from repro.device.profile import Pattern
from repro.errors import (
    FileExistsInSimError,
    FileNotFoundInSimError,
    OutOfSpaceError,
)
from repro.sim.fluid import FluidOp
from repro.sim.probe import scope
from repro.storage.file import SimFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine


class Volume:
    """What a file uses of the device it lives on: the capacity account,
    the probe bus, the fault injector and the builder of its device ops
    (:meth:`io`).

    It keeps what those read -- the machine's profile, statistics,
    domain and probe bus -- and neither the machine nor the name table
    (:class:`SimFS`): a file points here, so either back-reference would
    be a cycle holding a dropped machine's files until the cyclic
    garbage collector runs.  A file that outlives its machine keeps
    working against its volume.
    """

    def __init__(self, machine: "Machine"):
        self.profile = machine.profile
        self.stats = machine.stats
        self.domain = machine.domain
        self.used = 0
        #: Optional :class:`repro.faults.injector.FaultInjector`.  When
        #: installed *and armed*, every timed SimFile operation consults
        #: it; ``None`` (or an unarmed injector) is the zero-overhead
        #: fast path.
        self.injector = None
        #: The machine's probe bus (shared cluster-wide on shards):
        #: SimFile reports byte ranges, raw moves and timed-move scopes
        #: to it, one empty-tuple loop per operation when nobody listens.
        self.probes = machine.probes

    def unaudited(self, reason: str = ""):
        """Declare a raw (peek/poke) byte move as analytically charged.

        A charge-auditing probe treats untimed access during a run as a
        charge-accounting violation; code that moves bytes raw *and*
        charges the device through an explicit analytic op (the
        sample-sort / PMSort / KLV-scan idiom) wraps the raw access in
        this context to vouch for it.  No-op when nobody audits.
        """
        return scope(self.probes.exempt_scope, reason)

    @property
    def capacity(self) -> int:
        return self.profile.capacity

    def io(
        self,
        direction: str,
        pattern: Pattern,
        nbytes: int,
        tag: str,
        accesses: int = 1,
        stride: int = 0,
        threads: int = 1,
        host_bytes: int | None = None,
    ) -> FluidOp:
        """A device I/O op; work derived from the profile's cost model."""
        op = make_io_op(
            self.profile,
            direction,
            pattern,
            nbytes,
            tag,
            accesses=accesses,
            stride=stride,
            threads=threads,
            host_bytes=host_bytes,
        )
        if self.domain is not None:
            op.attrs["domain"] = self.domain
        for fn in self.probes.charge:
            fn(direction, nbytes, tag)
        self.stats.credit_submission(tag, nbytes, direction, pattern._value_)
        return op

    def io_raw(
        self,
        work: float,
        direction: str,
        pattern: Pattern,
        user_bytes: int,
        tag: str,
        threads: int = 1,
    ) -> FluidOp:
        """A device I/O op with explicitly precomputed internal work."""
        host_ratio = (user_bytes / work) if work > 0 else 0.0
        op = FluidOp(
            work,
            kind="io",
            tag=tag,
            direction=direction,
            pattern=pattern,
            threads=threads,
            host_ratio=host_ratio,
            user_bytes=user_bytes,
        )
        if self.domain is not None:
            op.attrs["domain"] = self.domain
        for fn in self.probes.charge:
            fn(direction, user_bytes, tag)
        self.stats.credit_submission(tag, user_bytes, direction, pattern._value_)
        return op

    def charge_growth(self, nbytes: int, name: str = "") -> None:
        """Account for a file growing by ``nbytes`` (called by SimFile)."""
        if nbytes <= 0:
            return
        available = self.capacity - self.used
        if nbytes > available:
            where = f" growing {name!r}" if name else ""
            raise OutOfSpaceError(
                f"device full{where}: requested {nbytes} B but only "
                f"{available} B available (used {self.used} of "
                f"{self.capacity} B)",
                requested=nbytes,
                available=available,
            )
        self.used += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of capacity (truncation / torn-write rollback)."""
        if nbytes < 0:
            raise OutOfSpaceError("cannot release negative bytes")
        self.used -= nbytes


class SimFS:
    """Name -> :class:`SimFile` mapping over one :class:`Volume`.

    The table holds its files and each file holds only the volume, so
    dropping the machine frees the table and every file no one else
    holds by reference counting.  The volume's op builders, audit scope,
    probe bus and ``used`` count read through from here.
    """

    def __init__(self, machine: "Machine"):
        self.volume = Volume(machine)
        self._files: Dict[str, SimFile] = {}
        self.io = self.volume.io
        self.io_raw = self.volume.io_raw
        self.unaudited = self.volume.unaudited
        self.probes = self.volume.probes

    @property
    def used(self) -> int:
        return self.volume.used

    def create(self, name: str) -> SimFile:
        """Create an empty file; fails if the name exists."""
        if name in self._files:
            raise FileExistsInSimError(name)
        f = SimFile(self.volume, name)
        self._files[name] = f
        return f

    def open(self, name: str) -> SimFile:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundInSimError(name) from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        """Remove a file and release its space."""
        f = self._files.pop(name, None)
        if f is None:
            raise FileNotFoundInSimError(name)
        self.volume.release(f.size)

    def rename(self, old: str, new: str) -> None:
        """Atomically rename ``old`` to ``new``, replacing any existing file.

        This is the checkpoint layer's commit primitive: a manifest is
        written to a temporary name and renamed over the live one, so a
        crash leaves either the old or the new manifest intact, never a
        torn mixture.  Modelled as a free metadata operation.
        """
        f = self._files.pop(old, None)
        if f is None:
            raise FileNotFoundInSimError(old)
        existing = self._files.pop(new, None)
        if existing is not None:
            self.volume.release(existing.size)
        f.name = new
        self._files[new] = f

    def list(self) -> List[str]:
        return sorted(self._files)
