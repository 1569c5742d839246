"""K-way merge machinery shared by all merge-based sorting systems.

The merge phase of every system (external merge sort over record runs,
WiscSort/PMSort over IndexMap runs) follows the paper's cursor protocol
(Sec 3.7, steps 6-9): the read buffer is split evenly among the run
files, cursors track the current window of each run, exhausted windows
are refilled, and when a run drains its buffer share is redistributed.
:func:`drive_merge` *is* that protocol, written once on top of
:class:`MergeFrontier`; a sorting system supplies only cursors and a
sink (what an emitted batch costs and where it goes), usually staged
through a :class:`PendingRows` buffer.

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
        #: Set by :class:`_FrontierIndex` when it mirrors this cursor's
        #: windows: the scalar search caches (``_cols``, first/last key
        #: bytes) are then skipped on install and materialized lazily if
        #: a scalar consumer ever asks.
        self._index_owned = False
        self.window = np.zeros((0, entry_size), dtype=np.uint8)
        self.bytes_loaded = 0
        #: Entries consumed via :meth:`take` (checkpoint/recovery state).
        self.taken = 0

    # ------------------------------------------------------------------
    @property
    def window(self) -> np.ndarray:
        """Entries not yet taken from the current window (a view)."""
        if self._start:
            return self._window[self._start :]
        return self._window

    @window.setter
    def window(self, data: np.ndarray) -> None:
        self._window = data
        self._start = 0
        self._n = data.shape[0]
        if self._n and not self._index_owned:
            self._install_search_caches()
        else:
            self._cols = []
            self._first_bytes = None
            self._last_bytes = None

    def _install_search_caches(self) -> None:
        keys = self._window[:, : self.key_size]
        # Native-endian copies of the big-endian comparison columns:
        # identical numeric values, faster searchsorted.
        self._cols = [
            np.ascontiguousarray(c, dtype=np.uint64)
            for c in _key_columns(keys)
        ]
        self._first_bytes = keys[self._start].tobytes()
        self._last_bytes = keys[-1].tobytes()

    @property
    def remaining(self) -> int:
        """Entries left in the current window."""
        return self._n - self._start

    @property
    def file_exhausted(self) -> bool:
        return self.pos >= self.file.size

    @property
    def done(self) -> bool:
        return self.file_exhausted and self._n - self._start == 0

    @property
    def needs_refill(self) -> bool:
        return self._n - self._start == 0 and not self.file_exhausted

    def grow_window(self, extra_bytes: int) -> None:
        """Absorb buffer space released by a drained neighbour (Sec 3.7)."""
        self.window_entries += max(0, extra_bytes // self.entry_size)

    def refill_op(self, tag: str, threads: int = 1):
        """Build the sequential read op for the next window."""
        if not self.needs_refill:
            raise SimulationError("refill_op called on a non-empty cursor")
        nbytes = min(self.window_entries * self.entry_size, self.file.size - self.pos)
        op = self.file.read(self.pos, nbytes, tag=tag, threads=threads)
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
        lo, hi = self._start, self._n
        if lo >= hi:
            return 0
        if not self._cols:
            # Index-owned cursor: caches were skipped on install;
            # materialize them for this scalar consumer.
            self._install_search_caches()
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
        start = self._start
        end = start + count
        self._start = end
        self.taken += count
        if end < self._n:
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
        if self._n - self._start:
            raise SimulationError("skip_entries requires an empty window")
        if nbytes > self.file.size:
            raise SimulationError(
                f"cannot skip {count} entries past end of {self.file.name!r}"
            )
        self.pos = nbytes
        self.taken = count


def _frontier_step(
    live: List[RunCursor], exhausted_flags: Optional[dict] = None
) -> Tuple[np.ndarray, int, List[RunCursor]]:
    """Emit one batch of globally-safe entries from non-empty cursors.

    Precondition: every cursor in ``live`` has a non-empty window.
    Returns ``(entries, ways, emptied)`` -- the key-sorted emitted rows,
    the number of participating runs, and the cursors whose window the
    step drained (they need a refill, or are done if their file is
    exhausted).  ``exhausted_flags`` optionally maps cursors to a cached
    ``file_exhausted`` value so the property need not be re-evaluated
    every step.
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
    return merged[order], len(live), emptied


class _FrontierIndex:
    """Columnar mirror of every live window for batched frontier steps.

    One row per cursor: ``S`` is a ``(k, W)`` matrix of fixed-width
    ``S<key_size>`` byte strings (the window keys) and k-vectors ``L`` /
    ``F`` track each row's last and current-head key.  Only *keys* are
    mirrored: the entries themselves stay in the cursors' own windows
    (a second copy of the read buffer would double its footprint once
    whole 100-byte records flow through the frontier).  numpy's bytes
    comparison (trailing-NUL-stripped lexicographic) is order- and
    equality-isomorphic to fixed-width unsigned lexicographic
    comparison: at the first differing byte position either both
    stripped strings still extend past it (same byte decides both
    compares) or exactly the NUL-holding side ended early (prefix <
    extension, same verdict).  A frontier step is therefore a handful of
    whole-array bytes compares -- threshold = min over ``L`` of the
    still-readable rows (cached between steps; it only changes on
    refill or drain), ``F <= threshold`` picks the contributing rows,
    ``S[rows] <= threshold`` gives the emit counts, and the emitted
    entries are the matching slices of the contributing cursors'
    windows, concatenated in row order.

    Bit-identity with :func:`_frontier_step` (asserted by the
    equivalence suite): per-row emit counts equal ``_count_leq_words``
    exactly (isomorphic predicate; already-taken rows are covered by
    threshold monotonicity -- the frontier threshold never decreases,
    so everything taken under an earlier threshold is ``<=`` the
    current one); pieces are gathered in ascending row order, which is
    the scalar path's ``live`` order (live-list filtering preserves
    construction order); and the final stable argsort over the gathered
    keys is the same permutation as the stable ``np.lexsort`` inside
    :func:`key_sort_indices` (same ordering and tie classes by the
    isomorphism, and both sorts are stable).

    The index owns its cursors' windows outright -- they skip their
    scalar search caches on install (see ``RunCursor._index_owned``).
    Only uniform fleets of plain :class:`RunCursor` qualify (subclasses
    may redefine window semantics); :class:`MergeFrontier` falls back
    to the scalar step otherwise or when ``REPRO_SIM_VECTOR=0``.
    """

    __slots__ = (
        "row_cursors",
        "k",
        "key_size",
        "sdtype",
        "width",
        "S",
        "L",
        "F",
        "starts",
        "ns",
        "ready",
        "exhausted",
        "_threshold",
        "_tdirty",
    )

    def __init__(self, cursors: List[RunCursor]):
        self.row_cursors = list(cursors)
        self.k = len(self.row_cursors)
        first = self.row_cursors[0]
        self.key_size = first.key_size
        self.sdtype = np.dtype("S%d" % self.key_size)
        width = 1
        for c in self.row_cursors:
            width = max(width, c._n)
        self.width = width
        k = self.k
        self.S = np.zeros((k, width), dtype=self.sdtype)
        self.L = np.zeros(k, dtype=self.sdtype)
        self.F = np.zeros(k, dtype=self.sdtype)
        self.starts = np.zeros(k, dtype=np.int64)
        self.ns = np.zeros(k, dtype=np.int64)
        #: Rows with an installed window; unready live rows are awaiting
        #: their refill and never participate in a step (the driver
        #: protocol refills before stepping).
        self.ready = np.zeros(k, dtype=bool)
        self.exhausted = np.zeros(k, dtype=bool)
        #: Cached frontier threshold key (``None`` = drain-all); valid
        #: while ``_tdirty`` is clear -- the threshold depends only on
        #: last keys and exhaustion, which change on refill/death, not
        #: on takes.
        self._threshold: Optional[bytes] = None
        self._tdirty = True
        for i, c in enumerate(self.row_cursors):
            c._vrow = i
            c._index_owned = True
            if c._n:
                self.load_row(c)
            else:
                self.exhausted[i] = c.file_exhausted

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

    def _grow(self, needed: int) -> None:
        new_width = max(needed, self.width * 2)
        fresh_s = np.zeros((self.k, new_width), dtype=self.sdtype)
        fresh_s[:, : self.width] = self.S
        self.S = fresh_s
        self.width = new_width

    def load_row(self, c: RunCursor) -> None:
        """(Re)install a cursor's freshly accepted window into its row."""
        i = c._vrow
        n = c._n
        if n > self.width:
            self._grow(n)
        start = c._start
        keys = np.ascontiguousarray(c._window[:, : self.key_size])
        skeys = keys.reshape(-1).view(self.sdtype)
        self.S[i, :n] = skeys
        self.L[i] = skeys[n - 1]
        self.F[i] = skeys[start]
        self.starts[i] = start
        self.ns[i] = n
        self.ready[i] = True
        self.exhausted[i] = c.file_exhausted
        self._tdirty = True

    def mark_dead(self, c: RunCursor) -> None:
        """Retire a drained cursor's row (zero rows emit nothing)."""
        i = c._vrow
        self.ready[i] = False
        self.exhausted[i] = True
        self.starts[i] = 0
        self.ns[i] = 0
        self._tdirty = True

    def _refresh_threshold(self) -> None:
        # Lexicographic min of the still-readable last keys.  ``None``
        # means every file is fully windowed (drain-all mode).  numpy
        # has no min-reduction for bytes dtypes, so take the Python min
        # over the (at most k) candidates.
        sel = self.ready & ~self.exhausted
        if sel.any():
            self._threshold = min(self.L[sel].tolist())
        else:
            self._threshold = None
        self._tdirty = False

    def step_batch(self) -> Tuple[np.ndarray, List[RunCursor]]:
        """One frontier step over the mirrors; see class docstring."""
        ns = self.ns
        starts = self.starts
        if self._tdirty:
            self._refresh_threshold()
        threshold = self._threshold
        if threshold is not None:
            # Contributing rows: installed window whose head key is <=
            # the threshold -- the matrix analogue of the scalar path's
            # ``_first_bytes > threshold_bytes`` skip.
            mask = self.F <= threshold
            mask &= self.ready
            rows = np.nonzero(mask)[0]
            if not rows.size:
                # Impossible under the driver protocol: the cursor that
                # defines the threshold always contributes its head.
                raise SimulationError("merge_step emitted nothing")
            # Emit counts for just those rows: entries with key <= the
            # threshold, counted by binary search over each sorted
            # mirrored row -- exactly _count_leq_words' predicate by
            # the isomorphism.  Entries before `starts` were taken
            # under an earlier (<=) threshold, so the count minus
            # `starts` is the number of fresh entries to take.
            S = self.S
            counts = [
                S[r, :n].searchsorted(threshold, side="right")
                for r, n in zip(rows.tolist(), ns[rows].tolist())
            ]
            lens = np.asarray(counts, dtype=np.int64) - starts[rows]
        else:
            # Every file fully windowed: drain everything left.
            rows = np.nonzero(self.ready)[0]
            if not rows.size:
                raise SimulationError("merge_step emitted nothing")
            lens = (ns - starts)[rows]
        new_starts = starts[rows] + lens
        ns_r = ns[rows]
        # Cursor bookkeeping (replaces per-piece ``take`` calls); the
        # emitted pieces are slices of the cursors' own windows, rows
        # ascending -- the scalar path's piece concatenation order.
        emptied: List[RunCursor] = []
        pieces: List[np.ndarray] = []
        row_cursors = self.row_cursors
        ready = self.ready
        for r, s_new, n_row, cnt in zip(
            rows.tolist(), new_starts.tolist(), ns_r.tolist(), lens.tolist()
        ):
            c = row_cursors[r]
            pieces.append(c._window[s_new - cnt : s_new])
            c._start = s_new
            c.taken += cnt
            if s_new == n_row:
                # Await refill (or death): a drained row must not keep
                # feeding its stale last key into the threshold.
                ready[r] = False
                emptied.append(c)
        starts[rows] = new_starts
        if rows.size == 1:
            # Single contributing window: the slice is already sorted
            # (a stable sort would be the identity permutation).
            i = int(rows[0])
            e = int(new_starts[0])
            if e < ns[i]:
                self.F[i] = self.S[i, e]
            return pieces[0], emptied
        merged = np.concatenate(pieces, axis=0)
        skeys = (
            np.ascontiguousarray(merged[:, : self.key_size])
            .reshape(-1)
            .view(self.sdtype)
        )
        # Refresh head keys of rows that still have entries windowed.
        open_mask = new_starts < ns_r
        alive = rows[open_mask]
        if alive.size:
            self.F[alive] = self.S[alive, new_starts[open_mask]]
        order = np.argsort(skeys, kind="stable")
        return merged[order], emptied


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
        #: Columnar batch index (vector path); ``None`` falls back to
        #: the scalar :func:`_frontier_step` -- non-uniform or
        #: subclassed cursor fleets, or ``REPRO_SIM_VECTOR=0``.
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
        """Refresh cached exhaustion state after ``accept`` calls."""
        exhausted = self._exhausted
        index = self._index
        for c in cursors:
            exhausted[c] = c.file_exhausted
            if index is not None:
                index.load_row(c)

    def step(self) -> Tuple[np.ndarray, int]:
        """One merge step; updates refill/drain bookkeeping."""
        if self._index is not None:
            emitted, emptied = self._index.step_batch()
            ways = len(self.live)
        else:
            emitted, ways, emptied = _frontier_step(self.live, self._exhausted)
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
        """Remove and return exactly the first ``n`` rows."""
        flat = self.residual()
        self._chunks = [flat[n:]] if n < self.count else []
        self.count -= n
        return flat[:n]

    def batches(self, capacity: int, final: bool = False) -> Iterator[np.ndarray]:
        """Pop full ``capacity``-row batches; ``final`` adds the short tail."""
        while self.count >= capacity or (final and self.count):
            yield self.pop(min(capacity, self.count))


def drive_merge(
    machine: "Machine",
    cursors: List[RunCursor],
    read_threads: int,
    on_batch: Callable[[np.ndarray], Iterator],
    serial_refills: bool = False,
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
    :meth:`MergeFrontier.step`.
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
            if cpu_ops:
                # Frame decompression (compressed IndexMap runs only).
                yield ParallelOps(cpu_ops)
            frontier.note_refilled(refills)
        emitted, ways = frontier.step()
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
