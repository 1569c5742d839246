"""Range-partitioned sorting across cluster shards.

``ShardedWiscSort`` turns N per-shard input files into N per-shard
sorted outputs whose concatenation is byte-identical to what a single
device running WiscSort over the whole dataset would produce:

1. **Plan** -- every shard gathers its key column (the strided key
   gather WiscSort itself uses) and the driver picks ``N-1`` splitters
   from deterministic stride samples of those keys (no RNG: the same
   input always yields the same splitters).
2. **Shuffle** -- each source shard streams its records sequentially,
   splits every batch by partition id, and writes each slice into the
   destination shard's staging file at a *reserved* offset.  Offsets
   are precomputed from the per-(source, dest) record counts so staging
   content lands in global input order no matter how the concurrent
   writes interleave in time -- timing and content are fully decoupled,
   which is what keeps the merged output deterministic and stable.
   Writes into each destination device are admitted one at a time by
   the :class:`~repro.core.controller.WritePoolArbiter`, each using the
   destination's calibrated write-pool thread count (the paper's write
   discipline, extended across shards).  Cross-shard slices additionally
   pay for the wire: the device write runs in parallel with a
   :meth:`~repro.cluster.cluster.Cluster.net_op` transfer rated by the
   max-min fair interconnect model, so incast onto a hot destination is
   a first-class cost.
3. **Sort** -- every shard runs an unmodified per-shard sort (WiscSort
   by default, any registered system exposing ``sort_process``) over
   its staging file; the per-shard sorts run concurrently on the shared
   engine.

Byte identity argument: partitions are key ranges in shard order (keys
equal to a splitter all land in the same shard), the reserved-offset
shuffle preserves global input order inside each partition, and the
per-shard sort is stable -- so ties keep input order exactly like the
single-device stable sort, and concatenating the shard outputs *is* the
single-device output.

Fault tolerance (``checkpoint=True``) reuses the atomic-rename/SHA-256
manifest scheme of :mod:`repro.core.recovery` at partition granularity:

* a **plan manifest** on shard 0 freezes the chosen splitters and the
  per-(source, dest) record counts the moment planning completes;
* one **scatter manifest** per source shard commits after that source
  finished writing all its slices (reserved offsets make re-scattering
  an uncommitted source idempotent);
* one **sorted manifest** per partition commits after the partition's
  output file is durable, recording which shard holds it and its size.

The phases are one state machine whose state is what the manifests
say: ``run()`` enters it with none, ``recover()`` (after a whole-shard
crash, see :meth:`~repro.cluster.cluster.Cluster.reboot` and
:func:`~repro.faults.harness.run_with_faults`) with the ones it finds.
No plan manifest: plan.  A source without a scatter manifest re-gathers
its keys and re-scatters against the frozen splitters; a partition
without a valid sorted manifest is sorted on its home shard.  A run owns
every file under ``<output_name>.`` on every shard: ``recover()`` first
deletes what no manifest vouches for and every completed run deletes all
but its outputs (:meth:`ShardedWiscSort._sweep`), so no crash instant
leaks a speculative copy or leaves one output on two shards.

Straggler speculation (armed by an installed fault plan, in fresh and
resumed drives alike, so fault-free runs are bit-identical to
pre-speculation builds): every primary sort attempt of a drive starts at
one instant, and a partition still open :data:`SPEC_FACTOR` times the
slowest *completed* partition's duration later is re-issued on an idle
shard from a staging copy -- the only work a spare shard ever gets.
The first attempt to complete wins; the engine's deterministic
completion order makes the winner identical across runs and across the
scalar/vector kernels, and the loser is torn down with
:meth:`~repro.sim.engine.Engine.cancel_tree` (which settles the fluid
model first, so all partial progress is charged to device stats before
the loser's remaining work vanishes).  Speculative copies deliberately
bypass the write-pool arbiter's slots: a cancelled loser must never die
holding an admission slot another shard is waiting on.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import SortConfig, SortSystem
from repro.core.controller import WritePoolArbiter
from repro.core.recovery import CheckpointLog, pack_entries, unpack_entries
from repro.device.profile import Pattern
from repro.errors import ConfigError, RecoveryError
from repro.records.format import (
    RecordFormat,
    key_sort_indices,
    leq_mask,
)
from repro.records.validate import validate_sorted_records
from repro.registry import create_system
from repro.sim.engine import Join, ParallelOps, Sleep, Spawn
from repro.sim.primitives import Semaphore

from repro.cluster.cluster import Cluster, ShardedFile

#: A partition is a straggler when it is still open ``SPEC_FACTOR`` x
#: the slowest completed partition's duration after the sort phase began.
SPEC_FACTOR = 1.75


class ShardedWiscSort(SortSystem):
    """Cross-shard shuffle + concurrent per-shard sorts on a Cluster."""

    def __init__(
        self,
        fmt: Optional[RecordFormat] = None,
        config: Optional[SortConfig] = None,
        system: str = "wiscsort",
        output_name: str = "sharded-wiscsort.out",
        oversample: int = 32,
        checkpoint: bool = False,
    ):
        self.fmt = fmt if fmt is not None else RecordFormat()
        self.config = config if config is not None else SortConfig()
        #: Registered name of the per-shard sorting system.
        self.system = system
        self.output_name = output_name
        #: Splitter samples per shard boundary (balance knob only --
        #: correctness never depends on where the splitters land).
        if oversample < 1:
            raise ConfigError("oversample must be >= 1")
        self.oversample = oversample
        #: Write partition-granular manifests so a shard crash loses
        #: only uncommitted work (required for ``recover()``).
        self.checkpoint = checkpoint
        self.name = f"sharded-{system}[{self.config.concurrency}]"
        #: Chosen splitter keys of the last run ((n_parts-1, key_size)).
        self.splitters: Optional[np.ndarray] = None
        #: Per-(source, dest) record counts of the last shuffle.
        self.shuffle_counts: Optional[np.ndarray] = None
        #: Salvaged-vs-redone accounting of the last ``recover()``.
        self.last_recovery: Optional[dict] = None

    # ------------------------------------------------------------------
    def _validate(self, cluster, sharded_input, sharded_output) -> int:
        rec = self.fmt.record_size
        inp = sharded_input.merged().reshape(-1, rec)
        out = sharded_output.merged().reshape(-1, rec)
        validate_sorted_records(inp, out, self.fmt.key_size)
        return inp.shape[0]

    def _execute(self, cluster: Cluster, sharded_input: ShardedFile) -> ShardedFile:
        return self._run(cluster, sharded_input, resume=False)

    def _execute_recover(self, cluster, sharded_input) -> ShardedFile:
        if not self.checkpoint:
            raise RecoveryError(
                f"{self.name} cannot recover without checkpoint=True"
            )
        return self._run(cluster, sharded_input, resume=True)

    def _homes(self, cluster: Cluster, sharded_input: ShardedFile) -> List:
        """The shards owning this run's partitions, in partition order.

        The partition count is the *input's* part count; shards beyond
        it serve as spares for speculative re-issue.
        """
        n_parts = len(sharded_input.parts)
        if n_parts > len(cluster.shards):
            raise ConfigError(
                f"input has {n_parts} parts for a "
                f"{len(cluster.shards)}-shard cluster"
            )
        return list(cluster.shards[:n_parts])

    def _salvage(self, cluster, homes):
        """Read the crashed run's state off its manifests, then delete
        every run file they do not vouch for (the entry sweep).

        Returns ``(plan, pending, salvaged)`` -- the frozen ``(splitters,
        counts)`` or None, the sources whose scatter never committed,
        ``{d: output}`` for every partition a valid sorted manifest
        names -- and leaves the salvaged-vs-redone accounting in
        :attr:`last_recovery`.  Without a plan manifest nothing
        partition-granular is durable: nothing is kept, nothing is
        *re*-done, and the state is a fresh run's.
        """
        n_parts = len(homes)
        rec = self.fmt.record_size
        payload = self._log(homes[0], "plan").load()
        if payload is None:
            self._sweep(cluster, keep=())
            self.last_recovery = dict.fromkeys(
                ("salvaged_bytes", "redone_bytes", "partitions_salvaged",
                 "partitions_redone"), 0,
            )
            return None, list(range(n_parts)), {}
        if (
            int(payload.get("n_parts", -1)) != n_parts
            or int(payload.get("record_size", -1)) != rec
        ):
            raise RecoveryError("plan manifest does not match this run")
        splitters = unpack_entries(payload["splitters"], self.fmt.key_size)
        counts = np.asarray(payload["counts"], dtype=np.int64).reshape(
            n_parts, n_parts
        )
        salvaged = {}
        for d in range(n_parts):
            # The sorted manifest may live on any shard (a speculative
            # win commits on the shard it ran on).
            for shard in cluster.shards:
                p = self._log(shard, f"sorted{d}").load()
                if not p:
                    continue
                name = p.get("output", "")
                if (
                    shard.fs.exists(name)
                    and shard.fs.open(name).size == int(p.get("size", -1))
                ):
                    salvaged[d] = shard.fs.open(name)
                    break
        pending = [
            s for s, shard in enumerate(homes)
            if self._log(shard, f"scatter{s}").load() is None
        ]
        self._sweep(cluster, keep=salvaged.values(), resuming=True)
        lost = [d for d in range(n_parts) if d not in salvaged]
        self.last_recovery = {
            "salvaged_bytes": sum(salvaged[d].size for d in sorted(salvaged))
            + rec * int(counts.sum() - counts[pending].sum()),
            # the pending sources' slices of the lost partitions, then
            # those partitions' sorts
            "redone_bytes": rec
            * int(counts[pending][:, lost].sum() + counts[:, lost].sum()),
            "partitions_salvaged": len(salvaged),
            "partitions_redone": len(lost),
        }
        return (splitters, counts), pending, salvaged

    # ------------------------------------------------------------------
    def _run(self, cluster, sharded_input, resume: bool) -> ShardedFile:
        """The one driver: a fresh run is a recovery that finds nothing."""
        homes = self._homes(cluster, sharded_input)
        for part in sharded_input.parts:
            if part.size % self.fmt.record_size:
                raise ConfigError(
                    f"part {part.name!r} size is not a multiple of record size"
                )
        plan, pending, salvaged = (
            self._salvage(cluster, homes) if resume
            else (None, list(range(len(homes))), {})
        )
        arbiter = WritePoolArbiter(cluster)
        # Created before anything can commit, so a plan manifest implies
        # them; and a fresh run over a crashed run's files must raise.
        stagings = [
            (shard.fs.create if plan is None else shard.fs.open)(
                f"{self.output_name}.stage{d}"
            )
            for d, shard in enumerate(homes)
        ]
        outputs: List = [salvaged.get(d) for d in range(len(homes))]
        cluster.run(
            self._drive(
                cluster, homes, sharded_input, stagings, arbiter, outputs,
                plan, pending,
            ),
            name=f"{'sharded' if plan is None else 'recover'}-{self.system}",
        )
        # Exit sweep: staging files, manifests, whatever speculation left.
        self._sweep(cluster, keep=outputs)
        return ShardedFile(self.output_name, outputs)

    def _drive(
        self, cluster, homes, sharded_input, stagings, arbiter, outputs,
        plan, pending,
    ):
        rec = self.fmt.record_size
        n_parts = len(homes)
        # A resumed segment's processes are named apart in traces.
        plan_tag, scatter_tag, sort_tag = (
            ("plan", "shuffle", "sort") if plan is None
            else ("replan", "rescatter", "resort")
        )
        lost = [d for d in range(n_parts) if outputs[d] is None]

        # -- Plan: concurrent per-shard key gathers ---------------------
        shard_keys = {}
        if pending:
            plan_procs = []
            for s in pending:
                shard = homes[s]
                ctrl = arbiter.controller(shard.domain)
                proc = yield Spawn(
                    self._gather_keys(shard, sharded_input.parts[s], ctrl),
                    name=f"{plan_tag}:{shard.domain}",
                )
                plan_procs.append(proc)
            shard_keys = dict(zip(pending, (yield Join(plan_procs))))
        if plan is None:
            splitters = self._choose_splitters([shard_keys[s] for s in pending], n_parts)
        else:
            splitters, counts = plan
        pids = {s: self._partition_ids(shard_keys[s], splitters) for s in pending}
        tally = {s: np.bincount(pids[s], minlength=n_parts) for s in pending}
        if plan is None:
            counts = np.stack([tally[s] for s in pending]).astype(np.int64)
            if self.checkpoint:
                # Freeze the plan: with splitters and counts durable, every
                # later phase is re-executable at partition granularity.
                yield from self._log(homes[0], "plan").save(
                    {
                        "phase": "plan",
                        "n_parts": n_parts,
                        "record_size": rec,
                        "splitters": pack_entries(splitters),
                        "counts": counts.reshape(-1).tolist(),
                    }
                )
            # Charge the partition scan (classifying every key against the
            # splitters is a DRAM-bandwidth-bound sweep of the key arrays).
            # Only the drive that planned pays it: a source re-gathered
            # against a frozen plan is not charged again.
            yield ParallelOps(
                [
                    shard.copy(
                        shard_keys[s].shape[0] * self.fmt.key_size,
                        tag="SHUFFLE partition",
                        cores=arbiter.controller(shard.domain).sort_cores(),
                    )
                    for s, shard in enumerate(homes)
                ]
            )
        else:
            # Reserved offsets make a re-scatter idempotent only if the
            # source still classifies exactly as the frozen plan says.
            for s in pending:
                if not np.array_equal(tally[s], counts[s]):
                    raise RecoveryError(
                        f"source {s} partition counts diverge from the "
                        f"plan manifest"
                    )
        self.splitters = splitters
        self.shuffle_counts = counts

        # Reserved staging offsets: source s writes its dest-d records at
        # [base, base + counts[s][d]*rec) where base skips all earlier
        # sources' records -- staging content order == global input order.
        bases = np.zeros((n_parts, n_parts), dtype=np.int64)
        bases[1:] = np.cumsum(counts[:-1], axis=0)
        bases *= rec
        # Each staging file the scatter fills is reserved at its final size.
        for d in lost:
            stagings[d].reserve(int(counts[:, d].sum()) * rec)

        # -- Shuffle: concurrent per-source streaming scatter (idempotent:
        #    reserved offsets overwrite any torn bytes with identical
        #    content), to the lost partitions only ------------------------
        shuffle_procs = []
        for s in pending:
            proc = yield Spawn(
                self._shuffle_source(
                    cluster, homes, s, sharded_input.parts[s], pids[s],
                    bases[s].copy(), stagings, arbiter, lost,
                ),
                name=f"{scatter_tag}:{homes[s].domain}",
            )
            shuffle_procs.append(proc)
        if shuffle_procs:
            yield Join(shuffle_procs)
        # Every source's scatter is done (durable too when checkpointed:
        # its manifest committed), so no later phase or recovery reads
        # an input part again.
        sharded_input.release()

        # -- Sort: unmodified per-shard sorts, concurrently, each on its
        #    partition's home shard ---------------------------------------
        entries = []
        for d in lost:
            expected = int(counts[:, d].sum()) * rec
            if expected == 0:
                outputs[d] = homes[d].fs.create(f"{self.output_name}.shard{d}")
            elif stagings[d].size != expected:
                raise RecoveryError(
                    f"partition {d} staging is incomplete "
                    f"({stagings[d].size} of {expected} bytes)"
                )
            else:
                entries.append(d)
        if not entries:
            return
        # Speculation changes the engine's event schedule (monitor
        # timers), so it arms only under an installed fault plan --
        # fault-free runs stay bit-identical to the plain Join path.
        faults = cluster.faults
        spec = None
        if faults is not None and not faults.count_only:
            spec = self._speculation(cluster.engine, homes, entries)
        sort_procs = []
        for d in entries:
            home = homes[d]
            proc = yield Spawn(
                self._attempt(
                    cluster, d, home, home, stagings[d], arbiter,
                    commit_to=outputs if spec is None else None,
                ),
                name=f"{sort_tag}:{home.domain}",
            )
            sort_procs.append(proc)
            if spec is not None:
                spec["attempts"][d] = [(proc, home, "primary")]
                yield Spawn(
                    self._watch_attempt(
                        cluster, d, proc, home, "primary", spec, outputs
                    ),
                    name=f"watch:part{d}",
                )
        if spec is None:
            yield Join(sort_procs)
            return
        monitor = yield Spawn(
            self._spec_monitor(cluster, stagings, arbiter, spec, outputs),
            name="spec-monitor",
        )
        for _ in entries:
            yield spec["done"].acquire()
        if not monitor.done:
            cluster.engine.cancel_tree(monitor)

    # ------------------------------------------------------------------
    def _gather_keys(self, shard, part, ctrl):
        """Per-shard plan step: strided gather of the full key column."""
        fmt = self.fmt
        n = part.size // fmt.record_size
        keys = yield part.read_strided(
            0,
            n,
            fmt.record_size,
            fmt.key_size,
            tag="SHUFFLE plan",
            threads=ctrl.read_threads(Pattern.STRIDED),
        )
        return keys

    def _choose_splitters(self, shard_keys, n_parts: int) -> np.ndarray:
        """Deterministic stride-sampled splitters (no RNG).

        Samples ``oversample * n_parts`` keys per shard at a fixed
        stride, sorts the union, and takes the boundary quantiles.
        """
        key_size = self.fmt.key_size
        if n_parts == 1:
            return np.zeros((0, key_size), dtype=np.uint8)
        target = self.oversample * n_parts
        samples = []
        for keys in shard_keys:
            n = keys.shape[0]
            if n == 0:
                continue
            step = max(1, n // target)
            samples.append(keys[::step])
        if not samples:
            return np.zeros((0, key_size), dtype=np.uint8)
        pool = np.concatenate(samples)
        pool = pool[key_sort_indices(pool)]
        m = pool.shape[0]
        rows = [pool[min(m - 1, (j + 1) * m // n_parts)] for j in range(n_parts - 1)]
        return np.stack(rows)

    def _partition_ids(self, keys: np.ndarray, splitters: np.ndarray) -> np.ndarray:
        """Partition id per key: the count of splitters the key exceeds.

        Keys equal to a splitter stay in the lower shard, so equal keys
        always share a shard -- a precondition for stable-tie byte
        identity with the single-device sort.
        """
        pid = np.zeros(keys.shape[0], dtype=np.int64)
        if keys.shape[0] == 0:
            return pid
        for j in range(splitters.shape[0]):
            pid += ~leq_mask(keys, splitters[j])
        return pid

    def _shuffle_source(
        self, cluster, homes, s, part, pids, cursors, stagings, arbiter, dests
    ):
        """Stream source shard ``s``, scattering batches to staging files.

        ``cursors`` holds this source's next reserved write offset per
        destination; content placement never depends on op timing.
        Cross-shard slices pay the interconnect (:meth:`_over_wire`).
        ``dests`` leaves out the partitions whose sorted output was
        already salvaged.
        """
        rec = self.fmt.record_size
        src_domain = homes[s].domain
        chunk_bytes = max(1, self.config.read_buffer // rec) * rec
        read_threads = arbiter.controller(src_domain).read_threads(Pattern.SEQ)
        row = 0
        for offset in range(0, part.size, chunk_bytes):
            nbytes = min(chunk_bytes, part.size - offset)
            data = yield part.read(
                offset, nbytes, tag="SHUFFLE read", threads=read_threads
            )
            rows = data.reshape(-1, rec)
            batch_pids = pids[row : row + rows.shape[0]]
            row += rows.shape[0]
            for d in dests:
                slice_rows = rows[batch_pids == d]
                if slice_rows.shape[0] == 0:
                    continue
                dest = homes[d].domain
                yield arbiter.acquire(dest)
                write_op = stagings[d].write(
                    int(cursors[d]),
                    slice_rows.reshape(-1),
                    tag="SHUFFLE write",
                    threads=arbiter.write_threads(dest),
                )
                yield self._over_wire(
                    cluster, write_op, src_domain, dest, slice_rows.size,
                    "SHUFFLE net",
                )
                arbiter.release(dest)
                cursors[d] += slice_rows.size
        if self.checkpoint:
            # Commit only after every slice completed: a valid scatter
            # manifest therefore proves all of this source's staging
            # bytes are durable on their destinations.
            yield from self._log(homes[s], f"scatter{s}").save(
                {"phase": "scatter", "source": s}
            )

    @staticmethod
    def _over_wire(cluster, write_op, src: str, dst: str, nbytes: int, tag: str):
        """``write_op`` with its bytes coming from shard ``src``: in
        parallel with the interconnect transfer (the two complete
        together), or alone when local or the cluster has no network."""
        if cluster.network is None or src == dst:
            return write_op
        return ParallelOps([write_op, cluster.net_op(src, dst, nbytes, tag=tag)])

    # ------------------------------------------------------------------
    # Sort attempts, speculation and loser cancellation
    # ------------------------------------------------------------------
    def _attempt(self, cluster, d, shard, home, staging, arbiter, commit_to=None):
        """Sort partition ``d`` on ``shard``: the one way it is ever done.

        At home the staging file is sorted where it lies.  On any other
        shard (only speculation asks) a copy travels over the wire first
        and the output carries ``.spec`` until the attempt wins.
        ``commit_to`` is the unwatched path: no rival can exist, so the
        attempt commits its own result; a winner's watcher does otherwise.
        """
        part_name = f"{self.output_name}.shard{d}"
        if shard is not home:
            staging = yield from self._relocate_staging(
                cluster, home, shard, staging, d, arbiter
            )
            part_name += ".spec"
        system = create_system(self.system, self.fmt, config=self.config)
        if not hasattr(system, "sort_process"):
            raise ConfigError(
                f"system {self.system!r} cannot run as a cluster shard "
                f"process (no sort_process); use a wiscsort variant"
            )
        system.output_name = part_name
        output = yield from system.sort_process(shard, staging)
        if commit_to is not None:
            yield from self._commit(shard, d, output, commit_to)
        return output

    def _commit(self, shard, d, output, outputs):
        """Partition ``d`` is done.  The manifest commits the moment the
        output is durable: recovery itself can crash, and the next pass
        then salvages this partition instead of redoing it."""
        if self.checkpoint:
            yield from self._log(shard, f"sorted{d}").save(
                {
                    "phase": "sorted",
                    "dest": d,
                    "domain": shard.domain,
                    "output": output.name,
                    "size": int(output.size),
                }
            )
        outputs[d] = output

    def _speculation(self, engine, homes, entries) -> dict:
        """Bookkeeping of a sort phase run with straggler re-issue.

        Every attempt (primary or speculative) gets a watcher process;
        the first watcher to observe its partition complete claims the
        win, cancels and scrubs the rival, and releases the ``done``
        semaphore -- the drive simply acquires one release per
        partition -- and the monitor's ``committed`` one.  Engine
        completion order is deterministic, so the winner is identical
        across runs and kernels.
        """
        return {
            "done": Semaphore(engine, 0, name="sort-done", reason="barrier"),
            "committed": Semaphore(engine, 0, name="spec-committed", reason="barrier"),
            "start": engine.now,  # every primary starts at this instant
            "durations": {},  # d -> completed-partition duration
            "attempts": {},  # d -> [(proc, shard, kind), ...]
            "open": set(entries),  # partitions without a winner yet
            "busy": {homes[d].domain for d in entries},  # domains mid-attempt
        }

    def _watch_attempt(self, cluster, d, proc, shard, kind, state, outputs):
        output = yield Join(proc)
        if proc.cancelled or d not in state["open"]:
            return  # a cancelled loser, or the rival already claimed
        engine = cluster.engine
        state["open"].discard(d)
        state["durations"][d] = engine.now - state["start"]
        state["busy"].discard(shard.domain)
        part_name = f"{self.output_name}.shard{d}"
        spec_stage_name = f"{self.output_name}.stage{d}.spec"
        for rproc, rshard, rkind in state["attempts"][d]:
            if rproc is proc:
                continue
            if not rproc.done:
                engine.cancel_tree(rproc)
            state["busy"].discard(rshard.domain)
            # The loser's output and temp files (``name`` and ``name.*``)
            # and, for a speculative loser, its staging copy.
            rname = part_name if rkind == "primary" else f"{part_name}.spec"
            for name in rshard.fs.list():
                if (
                    name == rname
                    or name.startswith(rname + ".")
                    or (rkind == "spec" and name == spec_stage_name)
                ):
                    self._forget_and_delete(rshard, name)
        if kind == "spec":
            cluster.faults.speculative_wins += 1
            shard.fs.rename(output.name, part_name)
            for emit in cluster.probes.instant:
                emit(
                    "speculation-win", cat="spec", track="cluster",
                    dest=d, domain=shard.domain,
                )
        yield from self._commit(shard, d, output, outputs)
        state["done"].release()
        state["committed"].release()

    def _spec_monitor(self, cluster, stagings, arbiter, state, outputs):
        """Re-issue stragglers on idle shards, on a deadline.

        After each commit, sleep to ``start + SPEC_FACTOR x`` the slowest
        completed duration (again if commits meanwhile moved it), then
        give every open partition without a copy the first idle shard --
        so a shard freed mid-run is a target at the next commit or
        deadline.
        """
        engine = cluster.engine
        durations = state["durations"]
        while state["open"]:
            yield state["committed"].acquire()
            slowest = -1.0
            while slowest < max(durations.values()):
                slowest = max(durations.values())
                wait = state["start"] + SPEC_FACTOR * slowest - engine.now
                if wait > 0.0:
                    yield Sleep(wait)
            for d in sorted(state["open"]):
                attempts = state["attempts"][d]
                # One speculative copy per partition; a finished primary's
                # watcher is about to commit.
                if len(attempts) > 1 or attempts[0][0].done:
                    continue
                home = attempts[0][1]
                # First shard with no running attempt: a spare or a
                # home whose partition already finished.
                spare = next(
                    (m for m in cluster.shards if m.domain not in state["busy"]),
                    None,
                )
                if spare is None:
                    continue
                state["busy"].add(spare.domain)
                cluster.faults.speculative_issues += 1
                for emit in cluster.probes.instant:
                    emit(
                        "speculation-issue", cat="spec", track="cluster",
                        dest=d, domain=spare.domain,
                    )
                sproc = yield Spawn(
                    self._attempt(
                        cluster, d, spare, home, stagings[d], arbiter
                    ),
                    name=f"spec:part{d}@{spare.domain}",
                )
                attempts.append((sproc, spare, "spec"))
                yield Spawn(
                    self._watch_attempt(
                        cluster, d, sproc, spare, "spec", state, outputs
                    ),
                    name=f"watch:spec{d}",
                )

    def _relocate_staging(self, cluster, src, dst, staging, d, arbiter):
        """Stream partition ``d``'s staging file from ``src`` to ``dst``.

        Deliberately slot-free (see module docstring): the destination
        is idle by construction and a cancelled copy must not die
        holding a write-pool admission slot.
        """
        copy = dst.fs.create(f"{self.output_name}.stage{d}.spec")
        copy.reserve(staging.size)
        read_threads = arbiter.controller(src.domain).read_threads(Pattern.SEQ)
        write_threads = arbiter.write_threads(dst.domain)
        rec = self.fmt.record_size
        chunk = max(1, self.config.read_buffer // rec) * rec
        for offset in range(0, staging.size, chunk):
            nbytes = min(chunk, staging.size - offset)
            data = yield staging.read(
                offset, nbytes, tag="SPEC read", threads=read_threads
            )
            write_op = copy.write(
                offset, data, tag="SPEC write", threads=write_threads
            )
            yield self._over_wire(
                cluster, write_op, src.domain, dst.domain, nbytes, "SPEC net"
            )
        return copy

    # ------------------------------------------------------------------
    # Manifest and run-file bookkeeping
    # ------------------------------------------------------------------
    def _log(self, shard, what: str) -> CheckpointLog:
        """``plan`` (on shard 0), ``scatter{s}`` (on source ``s``) or
        ``sorted{d}`` (on the shard holding partition ``d``'s output)."""
        return CheckpointLog(shard.fs, f"{self.output_name}.{what}.manifest")

    def _sweep(self, cluster, keep, resuming: bool = False) -> None:
        """The ownership rule: a run owns every file under
        ``<output_name>.`` on every shard, so each one goes unless it is
        a ``keep`` handle -- or, when ``resuming``, a manifest or the
        shard's own staging file (shard ``i`` is partition ``i``'s home)."""
        prefix = f"{self.output_name}."
        for i, shard in enumerate(cluster.shards):
            for name in shard.fs.list():
                vouched = shard.fs.open(name) in keep or (
                    resuming
                    and (name.endswith(".manifest") or name == f"{prefix}stage{i}")
                )
                if name.startswith(prefix) and not vouched:
                    self._forget_and_delete(shard, name)

    def _forget_and_delete(self, shard, name: str) -> None:
        """Delete a file and drop any in-flight fault tracking on it
        (a deleted partial must not be torn by a later crash)."""
        f = shard.fs.open(name)
        if shard.faults is not None:
            shard.faults.forget_file(f)
        shard.fs.delete(name)
