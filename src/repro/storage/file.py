"""A simulated file on a BRAID device.

Data movement is performed eagerly with numpy (correctness), while the
returned :class:`~repro.sim.fluid.FluidOp` carries the timing cost the
issuing process must ``yield``.  The read ops hand their payload back as
the resume value, so simulated threads read naturally::

    data = yield simfile.read(0, 4096, tag="RUN read")

Pooled operations: ``threads=N`` tells the rate model the op stands for
N device threads working in parallel, which is how the sort
implementations express thread-pool-sized I/O without spawning N
simulated processes per buffer.

Fault injection: when the file's volume carries an *armed*
:class:`~repro.faults.injector.FaultInjector`, every timed operation is
routed through it -- the injector may return the plain op (no fault), a
retrying command object (transient faults, backoff in simulated time),
or raise (crash / permanent media error).  With no injector, or an
installed-but-empty one, the fast path below is taken and behaviour is
bit-identical to a fault-free build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro.device.profile import Pattern
from repro.errors import StorageError
from repro.sim.fluid import FluidOp
from repro.sim.probe import scope

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.filesystem import Volume


class SimFile:
    """A growable byte file stored on a simulated device."""

    __slots__ = ("_vol", "name", "_data", "_recipe", "size")

    def __init__(self, volume: "Volume", name: str):
        #: What the file uses of its device (not the name table, which
        #: holds the file: see :class:`~repro.storage.filesystem.Volume`).
        self._vol = volume
        self.name = name
        #: The bytes, or None once :meth:`release` dropped them.
        self._data: np.ndarray | None = np.zeros(0, dtype=np.uint8)
        #: While the contents are still what a generator made: the
        #: zero-argument callable that makes them again (see :meth:`adopt`).
        self._recipe: Callable[[], np.ndarray] | None = None
        self.size = 0

    # ------------------------------------------------------------------
    # Raw (untimed) access, for test fixtures and validation only
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0, nbytes: int | None = None) -> np.ndarray:
        """Untimed read of file contents (no device cost charged): a
        private, writeable array.  A released file's whole contents are
        its one regeneration, not a copy of it."""
        view = self.peek_view(offset, nbytes)
        if self._data is None and view.size == self.size:
            view.flags.writeable = True  # its base is that regeneration
            return view
        return view.copy()

    def peek_view(self, offset: int = 0, nbytes: int | None = None) -> np.ndarray:
        """:meth:`peek` without the copy: a read-only view of the bytes,
        valid until the file is next written (validation reads it once)."""
        if nbytes is None:
            nbytes = self.size - offset
        self._check_extent(offset, nbytes)
        for fn in self._vol.probes.raw_move:
            fn(self.name, "peek", nbytes)
        view = self._contents()[offset : offset + nbytes]
        view.flags.writeable = False
        return view

    def poke(self, offset: int, data: np.ndarray | bytes) -> None:
        """Untimed write (workload generation / fixtures)."""
        arr = _as_u8(data)
        for fn in self._vol.probes.raw_move:
            fn(self.name, "poke", arr.size)
        self._own()
        new_size = max(self.size, offset + arr.size)
        if new_size > self.size:
            self._vol.charge_growth(new_size - self.size, name=self.name)
        self._store(offset, arr)
        self.size = new_size

    def adopt(
        self, data: np.ndarray, recipe: Callable[[], np.ndarray] | None = None
    ) -> None:
        """Untimed: make ``data`` this (empty) file's contents, no copy.

        For dataset generators, which build the whole file in one array
        only to store it: the caller hands the array over and must not
        touch it again.  ``recipe``, when given, is a zero-argument
        callable returning a fresh array equal to ``data``: it lets
        :meth:`release` drop the bytes until the file is next mutated.
        """
        if self.size or data.dtype != np.uint8 or data.ndim != 1 or not (
            data.flags.c_contiguous and data.flags.writeable
        ):
            raise StorageError(
                f"{self.name!r} can only adopt a writeable contiguous 1-D uint8 "
                f"array while empty"
            )
        for fn in self._vol.probes.raw_move:
            fn(self.name, "poke", data.size)
        self._vol.charge_growth(data.size, name=self.name)
        self._data = data
        self._recipe = recipe
        self.size = data.size

    def adopt_order(self, source: "SimFile", order: np.ndarray, record_size: int) -> None:
        """Untimed: note that this file holds ``source``'s records in
        ``order`` (a validation's proof, see
        :func:`~repro.records.validate.validate_sorted_file`), so
        :meth:`release` can drop its bytes until it is next mutated.

        A no-op unless ``source`` still holds its recipe's contents; the
        new recipe keeps that recipe and ``order``, not ``source``.
        """
        if source._recipe is not None:
            self._recipe = _Reordered(source._recipe, order, record_size)

    def release(self) -> None:
        """Untimed: drop the host bytes of a file whose contents are
        still its recipe's (a no-op for any other file).

        ``size`` and ``fs.used`` stay.  A read regenerates a transient
        copy and keeps nothing; a mutation takes the bytes back first.
        """
        if self._recipe is not None:
            self._data = None

    def reserve(self, nbytes: int) -> None:
        """Untimed: size the backing array for a file of ``nbytes``.

        Only host memory moves: nothing is charged to the device and
        ``size`` and ``fs.used`` stay.  The reservation is not zeroed
        (its bytes are written once, by the gather that fills them): a
        hole past ``size`` still reads as zeros because :meth:`_store`
        zero-fills ``[size, offset)`` before a write past the end.
        Writes within the reservation never regrow the array, and
        :meth:`staging` can hand out its extents.
        """
        self._own()
        if nbytes > self._data.size:
            grown = np.empty(nbytes, dtype=np.uint8)
            grown[: self.size] = self._data[: self.size]
            self._data = grown

    def staging(self, offset: int, nbytes: int) -> np.ndarray | None:
        """The reserved, unwritten extent ``[offset, offset + nbytes)``
        as a writeable view, for a gather to fill ahead of the timed
        :meth:`write` of that extent, which then moves no bytes.

        The view is the file's own memory: a write past it before its
        own write zero-fills it like any hole.  ``None`` (copy instead)
        when the extent is not reserved, starts below ``size``, or a
        fault injector is installed: a torn, retried or rolled-back
        write must copy from a payload the file does not own.
        """
        self._own()
        if (
            self._vol.injector is not None
            or offset < self.size
            or offset + nbytes > self._data.size
        ):
            return None
        return self._data[offset : offset + nbytes]

    def truncate(self, new_size: int) -> None:
        """Discard bytes past ``new_size`` (torn-write rollback, recovery).

        Released capacity is returned to the filesystem; the zeroed tail
        stays allocated in the backing array (it is simulator memory, not
        simulated device space).
        """
        if new_size < 0 or new_size > self.size:
            raise StorageError(
                f"cannot truncate {self.name!r} (size {self.size}) to {new_size}"
            )
        if new_size == self.size:
            return
        self._own()
        self._data[new_size : self.size] = 0
        self._vol.release(self.size - new_size)
        self.size = new_size

    def pre_image(self, offset: int, nbytes: int) -> np.ndarray:
        """Untimed and unprobed: a copy of the bytes a write of
        ``nbytes`` at ``offset`` would overwrite (those below ``size``),
        for a fault injector to put back with :meth:`roll_back`."""
        end = max(offset, min(self.size, offset + nbytes))
        return self._contents()[offset:end].copy()

    def roll_back(self, offset: int, pre: np.ndarray) -> None:
        """Untimed, unprobed: a :meth:`pre_image`'s tail back at ``offset``."""
        self._own()
        self._data[offset : offset + pre.size] = pre

    # ------------------------------------------------------------------
    # Timed operations (yield the returned op from a simulated thread)
    # ------------------------------------------------------------------
    def read(
        self,
        offset: int,
        nbytes: int,
        tag: str,
        threads: int = 1,
        out: np.ndarray | None = None,
    ) -> FluidOp:
        """Sequential read; resumes with a copy of the bytes: a fresh
        array, or ``out`` (exactly ``nbytes`` uint8) filled in place."""
        self._check_extent(offset, nbytes)
        for fn in self._vol.probes.file_span:
            fn(self, "r", offset, nbytes)
        inj = self._vol.injector
        if inj is not None and inj.armed:
            return inj.issue_read(
                self,
                nbytes,
                tag,
                lambda: self._build_read(offset, nbytes, tag, threads, out),
            )
        return self._build_read(offset, nbytes, tag, threads, out)

    def _build_read(
        self, offset: int, nbytes: int, tag: str, threads: int, out: np.ndarray | None
    ) -> FluidOp:
        with self._audit("read", nbytes):
            data = self._contents()
            if out is None:
                payload = data[offset : offset + nbytes].copy()
            else:
                payload = out
                payload[:] = data[offset : offset + nbytes]
            op = self._machine_io("read", Pattern.SEQ, nbytes, tag, threads=threads)
        op.on_complete = lambda _op: payload
        return op

    def write(
        self, offset: int, data: np.ndarray | bytes, tag: str, threads: int = 1
    ) -> FluidOp:
        """Sequential write at ``offset`` (extends the file if needed)."""
        arr = _as_u8(data)
        for fn in self._vol.probes.file_span:
            # Logged at issue time (eager data movement): retries by an
            # armed injector re-move the same bytes, not a new access.
            fn(self, "w", offset, arr.size)
        inj = self._vol.injector
        if inj is not None and inj.armed:
            return inj.issue_write(self, offset, arr, tag, threads)
        with self._audit("write", arr.size):
            self.poke(offset, arr)
            return self._machine_io("write", Pattern.SEQ, arr.size, tag, threads=threads)

    def append(self, data: np.ndarray | bytes, tag: str, threads: int = 1) -> FluidOp:
        """Sequential write at the current end of file."""
        return self.write(self.size, data, tag, threads=threads)

    def read_strided(
        self,
        offset: int,
        count: int,
        stride: int,
        access_size: int,
        tag: str,
        threads: int = 1,
    ) -> FluidOp:
        """Gather ``count`` fixed-size fields at a regular stride.

        This is WiscSort's key gather: only ``count * access_size`` user
        bytes cross the bus, while the device pays the calibrated
        strided-gather cost.  Resumes with a ``(count, access_size)``
        uint8 matrix.
        """
        if count == 0:
            payload = np.zeros((0, access_size), dtype=np.uint8)
            with self._audit("read", 0):
                op = self._machine_io(
                    "read", Pattern.STRIDED, 0, tag, accesses=1, stride=stride, threads=threads
                )
            op.on_complete = lambda _op: payload
            return op
        if stride < access_size:
            raise StorageError("stride smaller than access size")
        last = offset + (count - 1) * stride + access_size
        self._check_extent(offset, last - offset)
        listeners = self._vol.probes.file_batch
        if listeners:
            starts = offset + np.arange(count, dtype=np.int64) * stride
            for fn in listeners:
                fn(self, "r", starts, access_size)

        def build() -> FluidOp:
            with self._audit("read", count * access_size):
                # One wide element per field: a 2-D copy only
                # ``access_size`` bytes wide costs more per row.
                fields = np.ndarray(
                    (count,), f"V{access_size}", self._contents(), offset, (stride,)
                )
                payload = fields.copy().view(np.uint8).reshape(count, access_size)
                op = self._machine_io(
                    "read",
                    Pattern.STRIDED,
                    count * access_size,
                    tag,
                    accesses=count,
                    stride=stride,
                    threads=threads,
                )
            op.on_complete = lambda _op: payload
            return op

        inj = self._vol.injector
        if inj is not None and inj.armed:
            return inj.issue_read(self, count * access_size, tag, build)
        return build()

    def read_gather(
        self,
        offsets: np.ndarray | Sequence[int],
        access_size: int,
        tag: str,
        threads: int = 1,
        out: np.ndarray | None = None,
    ) -> FluidOp:
        """Random reads of fixed-size records at arbitrary offsets.

        Resumes with a ``(len(offsets), access_size)`` uint8 matrix in
        the order of ``offsets``: a fresh array, or ``out`` (a
        :meth:`staging` view of exactly that many bytes) reshaped.
        """
        starts = np.asarray(offsets, dtype=np.int64)
        if starts.size == 0:
            payload = np.zeros((0, access_size), dtype=np.uint8)
            with self._audit("read", 0):
                op = self._machine_io("read", Pattern.RAND, 0, tag, threads=threads)
            op.on_complete = lambda _op: payload
            return op
        if starts.min() < 0 or int(starts.max()) + access_size > self.size:
            raise StorageError(
                f"gather outside file {self.name!r} (size {self.size})"
            )
        for fn in self._vol.probes.file_batch:
            fn(self, "r", starts, access_size)

        def build() -> FluidOp:
            with self._audit("read", int(starts.size) * access_size):
                payload = self._take_rows(
                    starts, access_size,
                    None if out is None else out.reshape(starts.size, access_size),
                )
                op = self._machine_io(
                    "read",
                    Pattern.RAND,
                    int(starts.size) * access_size,
                    tag,
                    accesses=int(starts.size),
                    threads=threads,
                )
            op.on_complete = lambda _op: payload
            return op

        inj = self._vol.injector
        if inj is not None and inj.armed:
            return inj.issue_read(self, int(starts.size) * access_size, tag, build)
        return build()

    def read_gather_var(
        self,
        offsets: np.ndarray | Sequence[int],
        lengths: np.ndarray | Sequence[int],
        tag: str,
        threads: int = 1,
    ) -> FluidOp:
        """Random reads of variable-length spans (KLV value gathers).

        Resumes with a single concatenated uint8 buffer in input order.
        """
        starts = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(lengths, dtype=np.int64)
        if starts.shape != sizes.shape:
            raise StorageError("offsets and lengths must have equal shape")
        vol = self._vol
        if starts.size == 0:
            with self._audit("read", 0):
                op = vol.io_raw(0.0, "read", Pattern.RAND, 0, tag, threads=threads)
            op.on_complete = lambda _op: np.zeros(0, dtype=np.uint8)
            return op
        ends = starts + sizes
        if starts.min() < 0 or int(ends.max()) > self.size:
            raise StorageError(f"variable gather outside file {self.name!r}")
        for fn in self._vol.probes.file_batch:
            fn(self, "r", starts, sizes)

        def build() -> FluidOp:
            with self._audit("read", int(sizes.sum())):
                # One contiguous slice per span (no per-byte index);
                # plain ints keep the per-span cost to the slice itself.
                data = self._contents()
                payload = np.concatenate(
                    [data[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
                )
                work = vol.profile.random_batch_work(sizes)
                op = vol.io_raw(
                    work, "read", Pattern.RAND, int(sizes.sum()), tag, threads=threads
                )
            op.on_complete = lambda _op: payload
            return op

        inj = self._vol.injector
        if inj is not None and inj.armed:
            return inj.issue_read(self, int(sizes.sum()), tag, build)
        return build()

    # ------------------------------------------------------------------
    def _rows(self, offset: int, count: int, stride: int, access_size: int) -> np.ndarray:
        """``(count, access_size)`` view of the file, row ``i`` being the
        bytes at ``offset + i * stride``: gathers copy from it without
        building an index (numpy checks the extent against the buffer)."""
        return np.ndarray(
            (count, access_size), np.uint8, self._contents(), offset, (stride, 1)
        )

    def _take_rows(
        self, starts: np.ndarray, access_size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The ``access_size`` bytes at each of ``starts``, into ``out``
        or a fresh array.  The caller has bounds-checked ``starts`` (as
        row indices numpy would wrap negative offsets silently)."""
        # Whole rows of the contiguous record matrix, one memcpy each,
        # when every offset is record-aligned, as every sort's value
        # gather is.  Finding that out pays from ~500 rows up (measured).
        if access_size and starts.size >= 512:
            records = starts // access_size
            if (records * access_size == starts).all():
                matrix = self._rows(0, self.size // access_size, access_size, access_size)
                # "clip" skips a check already made, which with ``out``
                # would also gather into a temporary first.
                return matrix.take(records, axis=0, out=out, mode="clip")
        # Otherwise rows of the view of every access_size-byte window, by
        # indexing: ``take`` would first copy that overlapping view whole.
        rows = self._rows(0, self.size - access_size + 1, 1, access_size)[starts]
        if out is None:
            return rows
        out[...] = rows
        return out

    def _audit(self, direction: str, nbytes: int):
        """Probe scope around one timed op's byte move and its charge
        (a shared no-op context when nobody listens)."""
        return scope(self._vol.probes.move_scope, direction, nbytes)

    def _machine_io(
        self,
        direction: str,
        pattern: Pattern,
        nbytes: int,
        tag: str,
        accesses: int = 1,
        stride: int = 0,
        threads: int = 1,
    ) -> FluidOp:
        return self._vol.io(
            direction,
            pattern,
            nbytes,
            tag,
            accesses=accesses,
            stride=stride,
            threads=threads,
        )

    def _contents(self) -> np.ndarray:
        """The backing array; for a released file, its bytes made again
        for one read and not kept."""
        data = self._data
        return self._recipe() if data is None else data

    def _own(self) -> None:
        """Before a mutation: the contents stop being the recipe's, and
        a released file takes its bytes back."""
        if self._recipe is not None:
            if self._data is None:
                self._data = self._recipe()
            self._recipe = None

    def _check_extent(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise StorageError(
                f"access [{offset}, {offset + nbytes}) outside file "
                f"{self.name!r} of size {self.size}"
            )

    def _store(self, offset: int, arr: np.ndarray) -> None:
        """Copy ``arr`` in at ``offset``, growing the backing array; the
        bytes between the old end of file and ``offset`` read as zeros.
        A staged ``arr`` (see :meth:`staging`) is already in place."""
        end = offset + arr.size
        if end > self._data.size:
            new_cap = max(end, self._data.size * 2, 4096)
            if arr.size == new_cap:
                # The write is the whole new array (a first write that
                # covers the file): one allocation, one move, nothing to
                # zero-fill or carry over.
                self._data = arr.copy()
                return
            grown = np.zeros(new_cap, dtype=np.uint8)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        elif offset > self.size:
            # Past the end of file the bytes are staged or never
            # written (a reservation is not zeroed): the hole reads zeros.
            self._data[self.size : offset] = 0
        if arr.base is self._data and arr.ctypes.data == self._data.ctypes.data + offset:
            return
        self._data[offset:end] = arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimFile({self.name!r}, size={self.size})"


class _Reordered(NamedTuple):
    """The recipe of a proven output: the records ``source`` makes, in
    ``order`` (a compact copy, never a view of the output's bytes)."""

    source: Callable[[], np.ndarray]
    order: np.ndarray
    record_size: int

    def __call__(self) -> np.ndarray:
        records = self.source().reshape(-1, self.record_size)
        return records.take(self.order, axis=0, mode="clip").reshape(-1)


def _as_u8(data: np.ndarray | bytes) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:  # a cast would keep each element's low byte
            raise StorageError(f"file data must be bytes or uint8, got a {data.dtype} array")
        return np.ascontiguousarray(data).reshape(-1)
    return np.frombuffer(bytes(data), dtype=np.uint8)
