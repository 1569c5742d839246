"""K-way merge machinery shared by all merge-based sorting systems.

The merge phase of every system (external merge sort over record runs,
WiscSort/PMSort over IndexMap runs) follows the paper's cursor protocol
(Sec 3.7, steps 6-9): the read buffer is split evenly among the run
files, cursors track the current window of each run, exhausted windows
are refilled, and when a run drains its buffer share is redistributed.
:func:`drive_merge` *is* that protocol, written once on top of
:class:`MergeFrontier` (whose uniform fleets keep their windows in one
:class:`_FrontierIndex` slab and step by taking a prefix of one sorted
pool of their keys); a sorting system supplies only cursors and a sink
(what an emitted batch costs and where it goes), usually staged through
a :class:`PendingRows` buffer.

For simulation efficiency the merge is executed in *batches* rather than
record-at-a-time: all windowed entries whose key is <= the smallest
"window-end" key across still-readable runs are globally safe to emit
(any unread entry of run *j* is >= the last key currently windowed from
run *j*).  Batching changes nothing about the output or the I/O pattern
-- it only aggregates the per-record CPU cost into one op.

:func:`merge_step` and :func:`redistribute_on_drain` at the bottom of
the file are the original full-scan formulation of the same protocol.
Nothing under ``src/`` calls them; they are kept as the test oracle
``tests/core/test_merge_frontier.py`` and ``tests/core/test_kway.py``
compare the driver against.
"""

from __future__ import annotations

import weakref
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.records.format import key_columns as _key_columns
from repro.records.format import key_sort_indices, key_words
from repro.sim.engine import ParallelOps
from repro.sim.fluid import vector_enabled
from repro.storage.file import SimFile
from repro.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

#: Where a merge step's ``n`` emitted rows go (see :func:`drive_merge`).
EmitTo = Callable[[int], np.ndarray]


class RunCursor:
    """Window over one sorted run file of fixed-size entries.

    The driver loop must uphold the protocol::

        while not cursor.done:
            if cursor.needs_refill:
                data = yield cursor.refill_op(tag, threads)
                cursor.accept(data)
            ...

    Hot-path note: installing a window (via :meth:`accept` or assigning
    ``cursor.window``) precomputes the window's big-endian uint64 key
    columns and its last key as Python ``bytes``.  ``count_leq`` then
    runs two-level binary search over the cached columns (the window is
    sorted) instead of re-deriving columns and scanning a boolean mask
    per call, and ``take`` advances an offset rather than reslicing.
    """

    def __init__(
        self,
        run_file: SimFile,
        entry_size: int,
        key_size: int,
        window_bytes: int,
    ):
        if entry_size < key_size:
            raise SimulationError("entry_size must be >= key_size")
        self.file = run_file
        self.entry_size = entry_size
        self.key_size = key_size
        self.window_entries = max(1, window_bytes // entry_size)
        self.pos = 0
        #: ``[_start, _n, taken]``: offset of the next untaken entry in
        #: the installed window, the window's length, entries consumed
        #: so far.  The cursor's own list, except while a
        #: :class:`_FrontierIndex` holds its window: then a column of
        #: the index's table, brought up to date on read through
        #: ``_owner`` (a weak reference to the index, or None).
        self._state = [0, 0, 0]
        self._owner = None
        #: Set by the adopting index: it searches its own key pool, so
        #: the scalar search caches are skipped on install.
        self._index_owned = False
        #: The cursor's slab row while an index owns it: a refill that
        #: fits is read straight into it.
        self._slot = None
        self.window = np.zeros((0, entry_size), dtype=np.uint8)
        self.bytes_loaded = 0

    # ------------------------------------------------------------------
    def _live_state(self):
        owner = self._owner
        if owner is not None:
            index = owner()
            if index is not None and index.stale:
                index.sync()
        return self._state

    @property
    def _start(self) -> int:
        return int(self._live_state()[0])

    @property
    def _n(self) -> int:
        return int(self._live_state()[1])

    @property
    def taken(self) -> int:
        """Entries consumed via :meth:`take` (checkpoint/recovery state)."""
        return int(self._live_state()[2])

    @property
    def window(self) -> np.ndarray:
        """Entries not yet taken from the current window (a view)."""
        start = self._live_state()[0]
        return self._window[start:] if start else self._window

    @window.setter
    def window(self, data: np.ndarray) -> None:
        self._window = data
        n = data.shape[0]
        self._state[:2] = (0, n)
        if n and not self._index_owned:
            keys = data[:, : self.key_size]
            self._cols = _key_columns(keys)
            self._first_bytes = keys[0].tobytes()
            self._last_bytes = keys[-1].tobytes()
        else:
            self._cols = []
            self._first_bytes = None
            self._last_bytes = None

    @property
    def remaining(self) -> int:
        """Entries left in the current window."""
        state = self._live_state()
        return int(state[1] - state[0])

    @property
    def file_exhausted(self) -> bool:
        return self.pos >= self.file.size

    @property
    def done(self) -> bool:
        return self.file_exhausted and self.remaining == 0

    @property
    def needs_refill(self) -> bool:
        return self.remaining == 0 and not self.file_exhausted

    def grow_window(self, extra_bytes: int) -> None:
        """Absorb buffer space released by a drained neighbour (Sec 3.7)."""
        self.window_entries += max(0, extra_bytes // self.entry_size)

    def refill_op(self, tag: str, threads: int = 1):
        """Build the sequential read op for the next window."""
        if not self.needs_refill:
            raise SimulationError("refill_op called on a non-empty cursor")
        nbytes = min(self.window_entries * self.entry_size, self.file.size - self.pos)
        slot = self._slot
        out = None
        if slot is not None and nbytes <= slot.nbytes:
            out = slot.reshape(-1)[:nbytes]
        op = self.file.read(self.pos, nbytes, tag=tag, threads=threads, out=out)
        self.pos += nbytes
        self.bytes_loaded += nbytes
        return op

    def accept(self, data: np.ndarray) -> None:
        """Install the bytes returned by a refill op as the new window."""
        if data.size % self.entry_size:
            raise SimulationError("window is not a whole number of entries")
        self.window = data.reshape(-1, self.entry_size)

    # ------------------------------------------------------------------
    def last_key(self) -> np.ndarray:
        return self.window[-1, : self.key_size]

    def count_leq(self, bound: np.ndarray) -> int:
        """How many windowed entries have key <= bound (window is sorted)."""
        return self._count_leq_words(key_words(bound))

    def _count_leq_words(self, bound_words: Tuple[int, ...]) -> int:
        """count_leq with the bound pre-split into uint64 words.

        Narrows the candidate band column by column: rows strictly below
        the bound word are counted; rows equal to it stay undecided and
        pass to the next column.  Exact unsigned-lexicographic count,
        O(cols * log n).
        """
        if self._index_owned:
            raise SimulationError("cursor is searched by its merge frontier")
        lo, hi = self._state[:2]
        if lo >= hi:
            return 0
        less = 0
        for col, b in zip(self._cols, bound_words):
            seg = col[lo:hi]
            lt = int(seg.searchsorted(b, side="left"))
            r = int(seg.searchsorted(b, side="right"))
            less += lt
            lo, hi = lo + lt, lo + r
            if lo == hi:
                break
        return less + (hi - lo)

    def take(self, count: int) -> np.ndarray:
        state = self._state
        start = state[0]
        state[0] = end = start + count
        state[2] += count
        if end < state[1]:
            self._first_bytes = self._window[end, : self.key_size].tobytes()
        return self._window[start:end]

    def skip_entries(self, count: int) -> None:
        """Crash-recovery resume: mark the first ``count`` file entries
        as already consumed.

        Must be called before the first refill (empty window); the next
        refill reads from the new position.  Entries that were merely
        *windowed* (prefetched) before a crash are volatile and simply
        re-read -- only ``taken`` counts, which the checkpoint recorded,
        are skipped.
        """
        nbytes = count * self.entry_size
        if self.remaining:
            raise SimulationError("skip_entries requires an empty window")
        if nbytes > self.file.size:
            raise SimulationError(
                f"cannot skip {count} entries past end of {self.file.name!r}"
            )
        self.pos = nbytes
        self._state[2] = count


def _frontier_step(
    live: List[RunCursor],
    exhausted_flags: Optional[dict] = None,
    emit_to: Optional[EmitTo] = None,
) -> Tuple[np.ndarray, int, List[RunCursor]]:
    """Emit one batch of globally-safe entries from non-empty cursors.

    Precondition: every cursor in ``live`` has a non-empty window.
    Returns ``(entries, ways, emptied)`` -- the key-sorted emitted rows,
    the number of participating runs, and the cursors whose window the
    step drained (they need a refill, or are done if their file is
    exhausted).  ``exhausted_flags`` optionally maps cursors to a cached
    ``file_exhausted`` value so the property need not be re-evaluated
    every step.  ``emit_to`` is as for :func:`drive_merge`.
    """
    if exhausted_flags is None:
        bounds = [c._last_bytes for c in live if not c.file_exhausted]
    else:
        bounds = [c._last_bytes for c in live if not exhausted_flags[c]]
    pieces = []
    emptied: List[RunCursor] = []
    if bounds:
        # Python bytes comparison is unsigned lexicographic, identical
        # to min_key over the stacked key rows (all bounds equal-width).
        threshold_bytes = min(bounds)
        threshold = key_words(threshold_bytes)
        for cursor in live:
            # A cursor contributes iff its window head is <= the
            # threshold; the bytes compare skips the binary search for
            # the (typical) majority of cursors that contribute nothing.
            if cursor._first_bytes > threshold_bytes:
                continue
            count = cursor._count_leq_words(threshold)
            if count:
                pieces.append(cursor.take(count))
                if cursor._start == cursor._n:
                    emptied.append(cursor)
    else:
        # Every file fully windowed: drain everything.
        for cursor in live:
            pieces.append(cursor.take(cursor.remaining))
            emptied.append(cursor)
    if not pieces:
        # Impossible: the cursor that defines the threshold always has
        # its whole window <= threshold.
        raise SimulationError("merge_step emitted nothing")
    merged = np.concatenate(pieces, axis=0)
    key_size = live[0].key_size
    order = key_sort_indices(merged[:, :key_size])
    out = None if emit_to is None else emit_to(order.size)
    return merged.take(order, axis=0, out=out, mode="clip"), len(live), emptied


class _FrontierIndex:
    """The window slab of a uniform cursor fleet and its sorted key pool.

    One slab row per live cursor, ``width`` entry slots each: ``E``
    holds the windows, and a refill whose window fits lands straight in
    its row (:meth:`RunCursor.refill_op` reads into ``slot``), so every
    refilled byte moves once.  ``pool`` is every windowed, untaken entry
    as one ascending array of fixed-width byte strings ``key || zero gap
    || slot number`` (the number big-endian, ``itype``): ordered by key,
    ties by slot, i.e. by (row, position).  numpy's
    bytes comparison (trailing-NUL-stripped lexicographic) is order- and
    equality-isomorphic to fixed-width unsigned lexicographic comparison
    on equal-width strings, so that is the scalar path's order.

    A step is one ``searchsorted`` of ``threshold || 0xFF..`` over the
    pool and one ``take`` of the prefix's slot numbers from ``E`` --
    always a fresh array, because a refill overwrites its row while
    ``PendingRows`` may still hold the batch.  The threshold is the top
    of ``heap``, the last keys of the rows whose files have more to
    read; a row drains exactly when its last key is <= the threshold, so
    the drained rows are the heap entries equal to it plus the entries
    of ``final`` (rows whose file is fully windowed) at or below it.
    A refill merges the new window's strings into the pool at their
    ``searchsorted`` positions.  Rows and key order are what a step
    needs; nothing per row is stored by it.

    Cursor bookkeeping is lazy.  A drained cursor is detached: its
    ``_state`` becomes its own exact list.  A windowed cursor's
    ``_state`` is a column of ``table`` (start, length, taken), and its
    reads call :meth:`sync` through a weak reference (a strong one would
    be a cycle pinning the machine's files until the cyclic GC runs)
    when the pool has changed since: one ``bincount`` of the pool's slot
    rows gives every row's remaining count.

    Bit-identity with :func:`_frontier_step` (asserted by the
    equivalence suite): the threshold and the drained set are the
    scalar ones, the prefix is exactly the entries with key <= the
    threshold, and their order is the scalar path's stable key sort of
    pieces concatenated in ascending row order (rows keep construction
    order across reallocations).

    The slab is sized by what windows hold, not by their capacity (two
    100k-entry runs under a 10 MiB buffer have 349,525-entry windows),
    and a window outgrowing it -- drained neighbours handed over their
    share -- reallocates for the live rows only: keeping dead rows
    reaches fan-in x read buffer on pre-sorted input.  Only uniform
    fleets of plain :class:`RunCursor` qualify (subclasses may redefine
    window semantics); :class:`MergeFrontier` falls back to the scalar
    step otherwise or when ``REPRO_SIM_VECTOR=0``.
    """

    __slots__ = (
        "row_cursors", "key_size", "width", "E", "slots", "pool", "keep",
        "dtype", "itype", "pad", "table", "columns", "ns", "taken0", "heap",
        "final", "stale",
        "ref", "__weakref__",
    )

    def __init__(self, cursors: List[RunCursor]):
        self.ref = weakref.ref(self)
        self.stale = False
        # The first refills fit their rows exactly.
        self.width = max(
            c.remaining
            or min(c.window_entries, (c.file.size - c.pos) // c.entry_size)
            for c in cursors
        )
        self._build(cursors)

    @staticmethod
    def eligible(cursors: List[RunCursor]) -> bool:
        if not cursors:
            return False
        first = cursors[0]
        return all(
            type(c) is RunCursor
            and c.key_size == first.key_size
            and c.entry_size == first.entry_size
            for c in cursors
        )

    def _build(self, cursors: List[RunCursor], grow: bool = False) -> None:
        """(Re)allocate for ``cursors`` (live, construction order) and
        move their untaken entries in.  A quarter of headroom over the
        previous width keeps a run of drains (``grow``) to O(log)
        reallocations."""
        if self.stale:
            self.sync()
        windows = [c.window for c in cursors]
        self.row_cursors = list(cursors)
        k = len(cursors)
        first = cursors[0]
        self.key_size = ks = first.key_size
        self.width = width = max(
            1,
            self.width + self.width // 4 if grow else self.width,
            max(w.shape[0] for w in windows),
        )
        self.itype = itype = np.dtype(">u4" if k * width < 0xFFFFFFFF else ">u8")
        # Pool strings are padded to a multiple of 8 bytes with zeros
        # between key and slot (copies of aligned items are cheaper).
        size = -(-(ks + itype.itemsize) // 8) * 8
        self.pad = b"\xff" * (size - ks)
        self.dtype = np.dtype("S%d" % size)
        self.E = np.empty((k * width, first.entry_size), dtype=np.uint8)
        #: Every slot's string tail: the zero gap, then its number.
        self.slots = np.zeros((k * width, size - ks), dtype=np.uint8)
        self.slots[:, -itype.itemsize :] = (
            np.arange(k * width, dtype=itype).view(np.uint8).reshape(k * width, -1)
        )
        #: Row r's column is an attached cursor's ``_state``: start,
        #: length, taken, as of the last :meth:`sync`; the lists hold
        #: each attached row's length and its taken count when indexed.
        self.table = np.zeros((3, k), dtype=np.int64)
        self.columns = list(self.table.T)
        self.ns = [0] * k
        self.taken0 = [0] * k
        self.heap: List[Tuple[bytes, int]] = []
        self.final: List[Tuple[bytes, int]] = []
        self.pool = np.empty(0, dtype=self.dtype)
        self.keep = np.empty(0, dtype=bool)
        blocks = []
        for i, (c, window) in enumerate(zip(cursors, windows)):
            c._vrow = i
            c._index_owned = True
            c._slot = self.E[i * width : (i + 1) * width]
            n = window.shape[0]
            c._state = [0, n, c.taken]
            c._owner = None
            if n:
                c._slot[:n] = window
                c._window = c._slot[:n]
                blocks.append(self._attach(c))
            else:
                # Awaiting its refill: lets go of any older slab.
                c._window = c._slot[:0]
        if blocks:
            self._merge(np.sort(np.concatenate(blocks)))

    def _attach(self, c: RunCursor) -> np.ndarray:
        """Index a cursor whose window fills the head of its slot: its
        state becomes a table column, its last key a threshold
        candidate.  Returns the window's pool strings, ascending."""
        i = c._vrow
        _start, n, taken = c._state
        self.ns[i] = n
        self.taken0[i] = taken
        # Start and taken come from the next sync.
        self.stale = True
        c._state = self.columns[i]
        c._owner = self.ref
        lo = i * self.width
        ks = self.key_size
        block = np.concatenate(
            (self.E[lo : lo + n, :ks], self.slots[lo : lo + n]), axis=1
        )
        heappush(
            self.final if c.file_exhausted else self.heap,
            (block[-1, :ks].tobytes(), i),
        )
        return block.reshape(-1).view(self.dtype)

    def _merge(self, new: np.ndarray) -> None:
        """Merge ascending strings into the pool: their final positions
        first, then the old strings fill the rest in order."""
        pool = self.pool
        if not pool.size:
            self.pool = new
            return
        size = pool.size + new.size
        at = pool.searchsorted(new)
        at += np.arange(new.size)
        merged = np.empty(size, dtype=self.dtype)
        if self.keep.size < size:
            self.keep = np.empty(2 * size, dtype=bool)
        keep = self.keep[:size]
        keep.fill(True)
        keep[at] = False
        merged[at] = new
        merged[keep] = pool
        self.pool = merged

    def load(self, cursors: List[RunCursor]) -> None:
        """Index freshly accepted windows (the cursors are detached)."""
        if max(c._state[1] for c in cursors) > self.width:
            self._build([r for r in self.row_cursors if r is not None], grow=True)
            return
        E, width = self.E, self.width
        blocks = []
        for c in cursors:
            window = c._window
            if window.base is not E:
                # Read elsewhere (it outgrew its slot before a
                # reallocation, or a fault retry built it): copy it in.
                lo = c._vrow * width
                n = window.shape[0]
                E[lo : lo + n] = window
                c._window = E[lo : lo + n]
            blocks.append(self._attach(c))
        self._merge(blocks[0] if len(blocks) == 1 else np.sort(np.concatenate(blocks)))

    def detach(self, c: RunCursor) -> None:
        """Give a drained cursor its exact state as its own list."""
        i = c._vrow
        n = self.ns[i]
        c._state = [n, n, self.taken0[i] + n]
        c._owner = None

    def mark_dead(self, c: RunCursor) -> None:
        """Retire a drained cursor: its row is dropped by the next
        reallocation and the cursor lets go of the slab."""
        self.row_cursors[c._vrow] = None
        c._slot = None
        c.window = np.zeros((0, c.entry_size), dtype=np.uint8)

    def _slots(self, strings: np.ndarray) -> np.ndarray:
        """The slot numbers of contiguous pool strings (a view)."""
        if not strings.size:
            return np.zeros(0, dtype=np.intp)
        size = strings.itemsize
        return np.ndarray(
            strings.shape, self.itype, strings, size - self.itype.itemsize, (size,)
        )

    def sync(self) -> None:
        """Materialise every attached row's start and taken from the pool."""
        rows = self._slots(self.pool) // self.width
        left = np.bincount(rows.astype(np.intp), minlength=len(self.row_cursors))
        starts, ns, taken = self.table
        ns[:] = self.ns
        np.subtract(ns, left, out=starts)
        np.add(self.taken0, starts, out=taken)
        self.stale = False

    def step_batch(
        self, emit_to: Optional[EmitTo] = None
    ) -> Tuple[np.ndarray, List[RunCursor]]:
        """One frontier step over the pool; see class docstring and, for
        ``emit_to``, :func:`drive_merge`."""
        heap, final, pool = self.heap, self.final, self.pool
        drained = []
        if heap:
            threshold = heap[0][0]
            cut = pool.searchsorted(threshold + self.pad, side="right")
            while heap and heap[0][0] == threshold:
                drained.append(heappop(heap)[1])
            while final and final[0][0] <= threshold:
                drained.append(heappop(final)[1])
        else:
            # Every file fully windowed: drain everything left.
            cut = pool.size
            drained.extend(i for _key, i in final)
            final.clear()
        if not cut:
            # Impossible under the driver protocol: the row that
            # defines the threshold always contributes its head.
            raise SimulationError("merge_step emitted nothing")
        slots = self._slots(pool[:cut])
        self.pool = pool[cut:]
        self.stale = True
        emptied = [self.row_cursors[i] for i in sorted(drained)]
        for c in emptied:
            self.detach(c)
        out = None if emit_to is None else emit_to(slots.size)
        return self.E.take(slots, axis=0, out=out, mode="clip"), emptied


class MergeFrontier:
    """Incremental cursor bookkeeping for a k-way merge loop.

    The naive loop (the test oracle at the bottom of this file)
    re-derives everything from the full cursor list every step --
    ``any(not c.done)``, ``[c for c in cursors if c.needs_refill]``,
    the live filter inside :func:`merge_step` and two
    more filters inside :func:`redistribute_on_drain` -- which is O(k)
    property evaluations per emitted batch and dominates wide merges.
    The frontier tracks the same state transitions incrementally: a
    cursor only changes state when a step empties its window, so refill
    and drain sets fall out of :func:`_frontier_step` for free, and
    ``file_exhausted`` is evaluated once per refill instead of once per
    step.  Buffer-share redistribution on drain is applied identically
    to :func:`redistribute_on_drain`.
    """

    def __init__(self, cursors: List[RunCursor]):
        self.cursors = list(cursors)
        self.live = [c for c in self.cursors if not c.done]
        self.to_refill = [c for c in self.live if c.needs_refill]
        self._exhausted = {c: c.file_exhausted for c in self.live}
        # Cursors already done before the merge starts (empty run files)
        # still hold a buffer share; the reference loop hands it to the
        # survivors on its first redistribute call, i.e. after the first
        # step -- not before the first refill.
        self._initial_drained = [
            c for c in self.cursors if c.done and c.window_entries > 0
        ]
        #: Window slab (vector path); ``None`` falls back to the scalar
        #: :func:`_frontier_step` -- non-uniform or subclassed cursor
        #: fleets, or ``REPRO_SIM_VECTOR=0``.
        self._index = (
            _FrontierIndex(self.live)
            if vector_enabled() and _FrontierIndex.eligible(self.live)
            else None
        )

    @property
    def done(self) -> bool:
        return not self.live

    def take_refills(self) -> List[RunCursor]:
        """Cursors whose window must be refilled before the next step."""
        refills, self.to_refill = self.to_refill, []
        return refills

    def note_refilled(self, cursors: List[RunCursor]) -> None:
        """After ``accept`` calls: refresh cached exhaustion state and
        index the accepted windows."""
        exhausted = self._exhausted
        for c in cursors:
            exhausted[c] = c.file_exhausted
        if self._index is not None and cursors:
            self._index.load(cursors)

    def step(self, emit_to: Optional[EmitTo] = None) -> Tuple[np.ndarray, int]:
        """One merge step; updates refill/drain bookkeeping.  ``emit_to``
        is as for :func:`drive_merge`."""
        if self._index is not None:
            emitted, emptied = self._index.step_batch(emit_to)
            ways = len(self.live)
        else:
            emitted, ways, emptied = _frontier_step(
                self.live, self._exhausted, emit_to
            )
        newly_drained: List[RunCursor] = []
        for c in emptied:
            if self._exhausted[c]:
                newly_drained.append(c)
            else:
                self.to_refill.append(c)
        drained = self._initial_drained + newly_drained
        if newly_drained:
            dset = set(newly_drained)
            self.live = [c for c in self.live if c not in dset]
            for c in newly_drained:
                del self._exhausted[c]
                if self._index is not None:
                    self._index.mark_dead(c)
        if drained:
            if self.live:
                self._initial_drained = []
                # Same arithmetic as redistribute_on_drain: the freshly
                # drained cursors' buffer share moves to the survivors.
                freed_entries = sum(c.window_entries for c in drained)
                for c in drained:
                    c.window_entries = 0
                share = ceil_div(freed_entries, len(self.live))
                for c in self.live:
                    c.window_entries += share
        return emitted, ways

class PendingRows:
    """Emitted-but-unflushed merge output: the write buffer of a record
    merge, or the offset queue of a key-pointer merge.

    Rows go in as the frontier emits them and come out in exact-size
    batches; whatever is left is the *residual* a merge checkpoint
    persists alongside the per-run consumed counts.
    """

    def __init__(self, entry_size: int):
        self._empty = np.zeros((0, entry_size), dtype=np.uint8)
        self._chunks: List[np.ndarray] = []
        self.count = 0

    def push(self, rows: np.ndarray) -> None:
        if rows.shape[0]:
            self._chunks.append(rows)
            self.count += rows.shape[0]

    def residual(self) -> np.ndarray:
        """Every buffered row as one matrix (the rows stay buffered)."""
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks, axis=0)]
        return self._chunks[0] if self._chunks else self._empty

    def pop(self, n: int) -> np.ndarray:
        """Remove and return exactly the first ``n`` rows: a view when
        they lie in one pushed chunk, else only the chunks they straddle
        concatenated."""
        chunks = self._chunks
        self.count -= n
        taken = []
        while n:
            head = chunks[0]
            if head.shape[0] > n:
                chunks[0] = head[n:]
                head = head[:n]
            else:
                del chunks[0]
            taken.append(head)
            n -= head.shape[0]
        return taken[0] if len(taken) == 1 else np.concatenate(taken or [self._empty])

    def batches(self, capacity: int, final: bool = False) -> Iterator[np.ndarray]:
        """Pop full ``capacity``-row batches; ``final`` adds the short tail."""
        while self.count >= capacity or (final and self.count):
            yield self.pop(min(capacity, self.count))


class StagedRows(PendingRows):
    """:class:`PendingRows` whose rows are already where they are going:
    the merge emits them (:meth:`destination` as ``emit_to``) straight
    into ``file``'s reserved extent past its end, so a popped batch is
    that extent and its write moves no bytes.  The caller writes each
    batch at the file's end before popping the next, and uses this only
    where :meth:`SimFile.staging` hands the whole extent out.
    """

    def __init__(self, file: SimFile, entry_size: int):
        super().__init__(entry_size)
        self.file = file
        self.entry_size = entry_size

    def destination(self, n: int) -> np.ndarray:
        """The ``n`` rows after the buffered ones."""
        return self._extent(self.count, n)

    def push(self, rows: np.ndarray) -> None:
        self.count += rows.shape[0]  # emitted in place

    def residual(self) -> np.ndarray:
        return self._extent(0, self.count)

    def pop(self, n: int) -> np.ndarray:
        rows = self._extent(0, n)
        self.count -= n
        return rows

    def _extent(self, first: int, n: int) -> np.ndarray:
        size = self.entry_size
        start = self.file.size + first * size
        return self.file.staging(start, n * size).reshape(n, size)


def drive_merge(
    machine: "Machine",
    cursors: List[RunCursor],
    read_threads: int,
    on_batch: Callable[[np.ndarray], Iterator],
    serial_refills: bool = False,
    emit_to: Optional[EmitTo] = None,
):
    """The cursor protocol of Sec 3.7 steps 6-9 (generator; yield from).

    Refills every exhausted window -- concurrently, the read pool split
    evenly among them, or one ``read_threads``-wide read after another
    when ``serial_refills`` (PMSort's single-threaded merge) -- installs
    the windows (compressed cursors answer with a decompress op, charged
    before the step), emits the globally safe prefix, charges its
    single-core min-finding as ``MERGE other`` and hands the key-sorted
    rows to ``on_batch`` (a generator function: the system's sink).
    Drained runs hand their buffer share to the survivors inside
    :meth:`MergeFrontier.step`.  ``emit_to(n)``, when given, is the
    ``(n, entry_size)`` array a step's ``n`` rows are emitted into (see
    :class:`StagedRows`); otherwise each step emits a fresh array.
    """
    frontier = MergeFrontier(cursors)
    while not frontier.done:
        refills = frontier.take_refills()
        if refills:
            if serial_refills:
                datas = []
                for cursor in refills:
                    datas.append(
                        (yield cursor.refill_op(tag="MERGE read", threads=read_threads))
                    )
            else:
                per_op = max(1, read_threads // len(refills))
                datas = yield ParallelOps(
                    [c.refill_op(tag="MERGE read", threads=per_op) for c in refills]
                )
            cpu_ops = [
                op
                for op in (c.accept(d) for c, d in zip(refills, datas))
                if op is not None
            ]
            # The windows hold the payloads now; the slab lets go of
            # each as it copies it, so the read buffer never exists twice.
            del datas
            if cpu_ops:
                # Frame decompression (compressed IndexMap runs only).
                yield ParallelOps(cpu_ops)
            frontier.note_refilled(refills)
        emitted, ways = frontier.step(emit_to)
        yield machine.compute(
            machine.host.merge_compare_seconds(emitted.shape[0], ways),
            tag="MERGE other",
            cores=1,
        )
        yield from on_batch(emitted)


def window_bytes_per_run(read_buffer: int, n_runs: int, entry_size: int) -> int:
    """Split the read buffer evenly among runs, aligned to entries."""
    if n_runs < 1:
        raise SimulationError("need at least one run")
    per_run = read_buffer // n_runs
    return max(entry_size, (per_run // entry_size) * entry_size)


# ----------------------------------------------------------------------
# Test oracle: the original full-scan formulation of the protocol.
# ----------------------------------------------------------------------
def merge_step(cursors: List[RunCursor]) -> Tuple[np.ndarray, int]:
    """Emit one batch of globally-safe entries from the cursor set.

    Preconditions: every non-done cursor has a non-empty window.
    Returns ``(entries, ways)`` where ``entries`` is a key-sorted matrix
    of emitted rows and ``ways`` the number of runs still participating
    (for merge-cost accounting).  Raises if nothing can be emitted
    (which the protocol makes impossible).
    """
    live = [c for c in cursors if c.remaining]
    if not live:
        return np.zeros((0, cursors[0].entry_size if cursors else 0), dtype=np.uint8), 0
    emitted, ways, _emptied = _frontier_step(live)
    return emitted, ways


def redistribute_on_drain(cursors: List[RunCursor]) -> None:
    """Hand a freshly-drained cursor's buffer share to live neighbours.

    "the read buffer space allotted to this IndexMap will be transferred
    to a neighboring IndexMaps evenly" (Sec 3.7, step 9).
    """
    live = [c for c in cursors if not c.done]
    drained = [c for c in cursors if c.done and c.window_entries > 0]
    if not live or not drained:
        return
    freed_entries = sum(c.window_entries for c in drained)
    for c in drained:
        c.window_entries = 0
    share = ceil_div(freed_entries, len(live))
    for c in live:
        c.window_entries += share
