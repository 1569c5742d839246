"""Sim-time race detection and schedule fuzzing for the coroutine engine.

Two complementary dynamic checkers for the concurrency-heavy parts of the
reproduction (worker pools, the staged merge, the sharded shuffle with
speculation and cancellation):

* :class:`RaceDetector` -- logical vector clocks per coroutine, ticked at
  the engine's spawn/block/resume/finish hooks and the synchronisation
  primitives' acquire/release edges, plus a per-file byte-range access
  log fed by the storage choke points.  Two accesses to overlapping byte
  ranges of the same file *at the same simulated instant*, from
  different coroutines, at least one a write, and not ordered by
  happens-before, are flagged as a race: under a different (but equally
  legal) same-instant schedule the access order -- and with it the file
  contents -- could differ.  Accesses at *different* sim times are
  always ordered (the clock advances identically under every schedule),
  so only same-instant conflicts matter.

* :class:`SchedulePermuter` + :func:`schedule_fuzz` -- a seeded mode
  that permutes same-instant ready-queue order and completion ties,
  re-runs the workload per seed, and asserts the output fingerprint
  stays byte-identical.  This turns latent order-dependence (the kind
  the FIFO-stable run-twice determinism harness can never see) into a
  CI-checkable property.

Both are probes on the bus (:mod:`repro.sim.probe`), so they cost
nothing when not installed; installed, the detector is observe-only --
simulated results are bit-identical -- while the permuter holds the
bus's one *active* capability, reordering same-instant ties.

Happens-before edges tracked (see DESIGN.md "Concurrency analysis"):

========  =============================================================
spawn     parent ticks; child starts with a copy of the parent's clock.
resume    the waking coroutine's clock (if the wake happens inside a
          coroutine step) merges into the resumed one.
join      the joiner merges every target's final clock (not just the
          last finisher's).
acquire   a semaphore's resource clock merges into the acquirer
          (fast-path acquire or wake); ``release`` merges the releaser
          into the resource clock.  This covers the fast path that
          never passes through block/resume.
========  =============================================================
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RaceError, ScheduleDivergenceError
from repro.sim.engine import Join
from repro.sim.primitives import Semaphore
from repro.sim.probe import Probe, ProbeSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Process
    from repro.storage.file import SimFile

#: Cap on recorded distinct races (each pair is deduplicated anyway);
#: a racy workload would otherwise grow the report without bound.
_MAX_RACES = 100


def _merge(into: Dict[int, int], other: Dict[int, int]) -> None:
    """Component-wise max of two vector clocks, in place."""
    for pid, tick in other.items():
        if tick > into.get(pid, 0):
            into[pid] = tick


class _Access:
    """One logged byte-range access within the current instant, kept as
    the storage hook passed it (most never reach the overlap test)."""

    __slots__ = ("proc_name", "pid", "epoch", "kind", "starts", "sizes")

    def __init__(self, proc_name, pid, epoch, kind, starts, sizes):
        self.proc_name = proc_name
        self.pid = pid
        #: The accessor's own clock component at access time; a later
        #: access by another coroutine is HB-after this one iff that
        #: coroutine's live clock has caught up to this epoch.
        self.epoch = epoch
        self.kind = kind  # "r" | "w"
        self.starts = starts
        self.sizes = sizes

    def ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` int64 arrays, sorted by start."""
        s = np.asarray(self.starts, dtype=np.int64).reshape(-1)
        e = s + np.asarray(self.sizes, dtype=np.int64)
        if s.size > 1 and not bool(np.all(s[1:] >= s[:-1])):
            order = np.argsort(s, kind="stable")
            s, e = s[order], e[order]
        return s, e


class RaceReport:
    """One flagged conflict: who, which file, which overlapping ranges."""

    def __init__(
        self,
        instant: float,
        file_name: str,
        a: _Access,
        b: _Access,
        overlaps: List[Tuple[int, int]],
    ):
        self.instant = instant
        self.file_name = file_name
        self.a_name, self.a_pid, self.a_kind = a.proc_name, a.pid, a.kind
        self.b_name, self.b_pid, self.b_kind = b.proc_name, b.pid, b.kind
        self.overlaps = overlaps
        #: How many further conflicts between the same pair on the same
        #: file were suppressed by deduplication.
        self.repeats = 0

    def _kind_word(self, kind: str) -> str:
        return "write" if kind == "w" else "read"

    def render(self) -> str:
        conflict = f"{self.a_kind}{self.b_kind}".upper()
        ranges = ", ".join(f"[{s}, {e})" for s, e in self.overlaps)
        lines = [
            f"race: {conflict} conflict on {self.file_name!r} at "
            f"t={self.instant:.9g} (overlap {ranges})",
            f"  {self._kind_word(self.a_kind)} by {self.a_name!r} "
            f"(pid {self.a_pid})",
            f"  {self._kind_word(self.b_kind)} by {self.b_name!r} "
            f"(pid {self.b_pid})",
            "  no happens-before edge orders these accesses: a legal "
            "same-instant schedule permutation can swap them",
        ]
        if self.repeats:
            lines.append(f"  (+{self.repeats} further conflict(s) "
                         f"between this pair on this file)")
        return "\n".join(lines)


class RaceDetector(Probe):
    """Vector-clock race detector for one engine (machine or cluster).

    Observe-only: it never mutates engine, scheduler or storage state,
    so simulated results are bit-identical with or without it.  Install
    with ``install_race_detector()`` on a machine or cluster (CLI:
    ``--race-detect``); on a cluster one detector watches the shared
    engine and every shard's storage layer (files are compared by
    identity, so same-named files on different shards never alias).
    Call :meth:`check` after the run to raise
    :class:`~repro.errors.RaceError` on findings.
    """

    def __init__(self):
        #: pid -> live vector clock (dict pid -> tick).
        self._clocks: Dict[int, Dict[int, int]] = {}
        #: pid -> final clock of a finished/cancelled coroutine, merged
        #: by joiners.
        self._final_clocks: Dict[int, Dict[int, int]] = {}
        #: id(resource) -> (resource, clock).  The strong reference
        #: keeps the id stable for the detector's lifetime.
        self._res_clocks: Dict[int, Tuple[Any, Dict[int, int]]] = {}
        #: The live engine; its ``current`` is the coroutine whose
        #: generator is executing, which accesses and edges belong to.
        self._engine: Optional["Engine"] = None
        #: Same-instant access buffer: id(file) -> (file, [_Access...]).
        self._buffer: Dict[int, Tuple["SimFile", List[_Access]]] = {}
        self._instant_stamp: Optional[float] = None
        #: Deduplication of reported pairs: (file, pid_a, pid_b).
        self._seen_pairs: Dict[Tuple[str, int, int], RaceReport] = {}
        self.races: List[RaceReport] = []
        self.accesses_seen = 0
        self.pairs_checked = 0

    # -- installation ---------------------------------------------------
    def bind(self, probes: ProbeSet) -> None:
        """Follow the live engine (at install and after every reboot).

        Volatile per-run state (live clocks, the current-instant buffer)
        is reset -- pre-crash coroutines died with the old engine --
        while recorded races survive, mirroring the sanitizer.
        """
        self._engine = probes.engine
        self._clocks.clear()
        self._final_clocks.clear()
        self._res_clocks.clear()
        self._buffer.clear()
        # Pair dedup is keyed on pids, and the pid namespace restarts
        # with the engine: without this reset a post-reboot race could
        # hide behind a pre-reboot report from unrelated coroutines.
        self._seen_pairs.clear()
        self._instant_stamp = None

    def subscriptions(self):
        return [
            ("spawn", self.on_spawn),
            # Built-in io/sleep/join blocks create no edge of their own.
            ("block_parallel", self.on_block),
            ("block_primitive", self.on_block),
            ("wake", self.on_resume),
            ("finish", self.on_finish),
            ("cancelled", self.on_cancel),
            ("acquire", self.on_acquire),
            ("release", self.on_release),
            ("file_span", self.note_span),
            ("file_batch", self.note_batch),
        ]

    # -- clock plumbing -------------------------------------------------
    def _clock_of(self, proc: "Process") -> Dict[int, int]:
        c = self._clocks.get(proc.pid)
        if c is None:
            # Spawned before the detector attached (or outside it):
            # starts unordered relative to everyone, which is the
            # conservative direction for a detector.
            c = self._clocks[proc.pid] = {proc.pid: 1}
        return c

    def _tick(self, proc: "Process") -> Dict[int, int]:
        c = self._clock_of(proc)
        c[proc.pid] = c.get(proc.pid, 0) + 1
        return c

    # -- engine hooks ----------------------------------------------------
    def on_spawn(self, proc: "Process") -> None:
        parent = self._engine.current
        if parent is not None:
            child = dict(self._tick(parent))
        else:
            child = {}
        child[proc.pid] = child.get(proc.pid, 0) + 1
        self._clocks[proc.pid] = child

    def on_block(self, proc: "Process", resource: Any, verb: str) -> None:
        self._tick(proc)

    def on_resume(self, proc: "Process", resource: Any) -> None:
        c = self._clock_of(proc)
        waker = self._engine.current
        if waker is not None and waker is not proc:
            _merge(c, self._tick(waker))
        if isinstance(resource, Semaphore):
            entry = self._res_clocks.get(id(resource))
            if entry is not None:
                _merge(c, entry[1])
        elif isinstance(resource, Join):
            # Only the last finisher's callback triggers the resume;
            # merging every target's final clock keeps the earlier
            # finishers' edges.
            for target in resource.targets:
                final = self._final_clocks.get(target.pid)
                if final is not None:
                    _merge(c, final)
        c[proc.pid] = c.get(proc.pid, 0) + 1

    def on_finish(self, proc: "Process", now: float) -> None:
        c = self._clocks.pop(proc.pid, None)
        if c is None:
            c = {proc.pid: 0}
        c[proc.pid] = c.get(proc.pid, 0) + 1
        self._final_clocks[proc.pid] = c

    def on_cancel(self, proc: "Process", now: float) -> None:
        """Cancelled coroutines emit a final clock like finished ones,
        so joiners of a cancelled subtree still merge a terminal state
        and the live-clock table never leaks stuck entries."""
        self.on_finish(proc, now)

    # -- primitive hooks (fast paths that bypass block/resume) -----------
    def on_acquire(self, proc: Optional["Process"], resource: Any) -> None:
        if proc is None:
            return
        c = self._clock_of(proc)
        entry = self._res_clocks.get(id(resource))
        if entry is not None:
            _merge(c, entry[1])
        c[proc.pid] = c.get(proc.pid, 0) + 1

    def on_release(self, resource: Any) -> None:
        proc = self._engine.current
        if proc is None:
            return  # release from a completion callback: no coroutine edge
        self._res_merge(resource, self._tick(proc))

    def _res_merge(self, resource: Any, clock: Dict[int, int]) -> None:
        entry = self._res_clocks.get(id(resource))
        if entry is None:
            entry = self._res_clocks[id(resource)] = (resource, {})
        _merge(entry[1], clock)

    # -- storage hooks ----------------------------------------------------
    def note_span(self, file: "SimFile", kind: str, offset: int, nbytes: int) -> None:
        """A contiguous access ``[offset, offset + nbytes)``."""
        if nbytes > 0:
            self._note(file, kind, offset, nbytes)

    def note_batch(self, file: "SimFile", kind: str, starts, sizes) -> None:
        """A gather/scatter access: ``starts[i]`` for ``sizes[i]`` bytes
        (``sizes`` may be a scalar)."""
        if len(starts):
            self._note(file, kind, starts, sizes)

    def _note(self, file, kind, starts, sizes) -> None:
        engine = self._engine
        proc = engine.current
        if proc is None or not engine.running:
            # Fixture/validation access, or data movement re-issued from
            # a retry/timer callback: not attributable to a coroutine
            # step, and (for the latter) already logged at issue time.
            return
        t = engine.now
        if t != self._instant_stamp:
            # Exact float compare is sound here: both values are the
            # same engine.now object, never independently recomputed.
            self._buffer.clear()
            self._instant_stamp = t
        self.accesses_seen += 1
        c = self._clock_of(proc)
        access = _Access(proc.name, proc.pid, c.get(proc.pid, 0), kind,
                         starts, sizes)
        entry = self._buffer.get(id(file))
        if entry is None:
            self._buffer[id(file)] = (file, [access])
            return
        for old in entry[1]:
            if old.pid == access.pid:
                continue  # same coroutine: ordered by program order
            if old.kind == "r" and access.kind == "r":
                continue
            self.pairs_checked += 1
            # The old access happened earlier in execution order, so HB
            # can only run old -> new: it holds iff the new coroutine's
            # live clock has caught up to the old access's epoch.
            if c.get(old.pid, 0) >= old.epoch:
                continue
            overlaps = _overlap_ranges(*old.ranges(), *access.ranges())
            if overlaps:
                self._record(file, old, access, overlaps, t)
        entry[1].append(access)

    def _record(self, file, old, new, overlaps, instant) -> None:
        key = (file.name, old.pid, new.pid)
        prior = self._seen_pairs.get(key)
        if prior is not None:
            prior.repeats += 1
            return
        report = RaceReport(instant, file.name, old, new, overlaps)
        self._seen_pairs[key] = report
        if len(self.races) < _MAX_RACES:
            self.races.append(report)

    # -- verdicts ---------------------------------------------------------
    def report(self) -> dict:
        return {
            "accesses_seen": self.accesses_seen,
            "pairs_checked": self.pairs_checked,
            "races": len(self.races),
            "diagnostics": [r.render() for r in self.races],
        }

    def render(self) -> str:
        if not self.races:
            return (
                f"race-detect: no conflicting same-instant accesses "
                f"({self.accesses_seen} accesses logged, "
                f"{self.pairs_checked} candidate pairs checked)"
            )
        out = [r.render() for r in self.races]
        out.append(f"race-detect: {len(self.races)} distinct racing pair(s)")
        return "\n".join(out)

    def check(self) -> None:
        """Raise :class:`~repro.errors.RaceError` if any race was seen."""
        if self.races:
            raise RaceError(self.render())


def _overlap_ranges(
    a_starts: np.ndarray,
    a_ends: np.ndarray,
    b_starts: np.ndarray,
    b_ends: np.ndarray,
    limit: int = 3,
) -> List[Tuple[int, int]]:
    """Intersections of two interval sets (each sorted by start).

    Returns at most ``limit`` overlapping ``(start, end)`` windows --
    diagnostics need representative ranges, not the full product.
    """
    out: List[Tuple[int, int]] = []
    i = j = 0
    na, nb = len(a_starts), len(b_starts)
    while i < na and j < nb and len(out) < limit:
        s = max(a_starts[i], b_starts[j])
        e = min(a_ends[i], b_ends[j])
        if s < e:
            out.append((int(s), int(e)))
        if a_ends[i] <= b_ends[j]:
            i += 1
        else:
            j += 1
    return out


# ----------------------------------------------------------------------
# Schedule fuzzing
# ----------------------------------------------------------------------


class SchedulePermuter(Probe):
    """Deterministic same-instant schedule permutation, from one seed.

    The one *active* probe: the engine consults it at its two tie-break
    points -- which ready process to step next, and the order in which
    same-instant op completions are delivered.  Both are *legal*
    schedules (every permuted choice was runnable at that instant), so a
    correct workload must produce byte-identical output under every
    seed.  Nothing is reset on rebind: the RNG stream continues across a
    reboot, so one seed covers a whole crash-recovery schedule.
    """

    reorders_ties = True

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self.picks = 0
        self.shuffles = 0

    def pick(self, n: int) -> int:
        """Index of the ready process to step next, out of ``n``."""
        self.picks += 1
        return self._rng.randrange(n)

    def shuffle(self, items: list) -> None:
        """Permute a batch of same-instant op completions in place."""
        self.shuffles += 1
        self._rng.shuffle(items)


class ScheduleFuzzReport:
    """Outcome of a :func:`schedule_fuzz` sweep."""

    def __init__(
        self,
        baseline: str,
        rows: List[Tuple[str, str]],
        mismatches: List[Tuple[Any, str]],
    ):
        self.baseline = baseline
        self.rows = rows
        self.mismatches = mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [f"  {label:12s} {fp}" for label, fp in self.rows]
        if self.ok:
            head = (
                f"schedule-fuzz: OK -- {len(self.rows) - 1} permuted "
                f"schedule(s), output fingerprint {self.baseline[:16]}... "
                f"identical to the FIFO baseline"
            )
            return "\n".join([head] + lines)
        head = (
            f"schedule-fuzz: FAILED -- {len(self.mismatches)} of "
            f"{len(self.rows) - 1} permuted schedule(s) changed the "
            f"output bytes (latent order-dependence)"
        )
        return "\n".join([head] + lines)

    def raise_on_failure(self) -> None:
        if not self.ok:
            raise ScheduleDivergenceError(self.render())


def schedule_fuzz(
    run_fn: Callable[[Optional[int]], str],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> ScheduleFuzzReport:
    """Run ``run_fn`` under the FIFO baseline and ``seeds`` permutations.

    ``run_fn(seed)`` must build a *fresh* machine/workload each call,
    install ``SchedulePermuter(seed)`` when ``seed`` is not None, run,
    and return the output fingerprint (see :func:`file_fingerprint`).
    The fingerprint covers output *bytes* only: under fault plans the
    crash op-index lands on a different op per schedule, so simulated
    durations may legitimately differ while the bytes must not.
    """
    baseline = run_fn(None)
    rows: List[Tuple[str, str]] = [("baseline", baseline)]
    mismatches: List[Tuple[Any, str]] = []
    for seed in seeds:
        fp = run_fn(seed)
        rows.append((f"seed {seed}", fp))
        if fp != baseline:
            mismatches.append((seed, fp))
    return ScheduleFuzzReport(baseline, rows, mismatches)


# ----------------------------------------------------------------------
# Output fingerprints
# ----------------------------------------------------------------------


def file_fingerprint(simfile: "SimFile") -> str:
    """SHA-256 over a simulated file's bytes (untimed, post-run), hashed
    in place: no copy of the contents."""
    return hashlib.sha256(simfile.peek_view()).hexdigest()


def sort_output_fingerprint(result) -> str:
    """Fingerprint of a :func:`repro.api.sort` result's output bytes.

    A sharded result hashes its ``{output_name}.shard{d}`` parts in
    partition order, so it equals the single-device fingerprint of the
    same sorted records.  Recovery and speculation may relocate a
    partition to any shard, so each part is searched for across the
    whole cluster; exactly one shard must hold it.
    """
    cluster = result.extras.get("cluster")
    if cluster is None:
        machine = result.extras["machine"]
        return file_fingerprint(machine.fs.open(result.output_name))
    from repro.errors import StorageError

    h = hashlib.sha256()
    # api.sort spreads the input over every shard and admits none
    # mid-run: one partition per shard.
    for d in range(len(cluster.shards)):
        part_name = f"{result.output_name}.shard{d}"
        holders = [s for s in cluster.shards if s.fs.exists(part_name)]
        if len(holders) != 1:
            raise StorageError(
                f"expected exactly one shard holding {part_name!r}, "
                f"found {len(holders)}"
            )
        h.update(holders[0].fs.open(part_name).peek_view())
    return h.hexdigest()
