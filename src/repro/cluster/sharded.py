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

After a whole-shard crash (see
:meth:`~repro.cluster.cluster.Cluster.reboot` and
:func:`~repro.faults.harness.run_with_faults`) recovery
re-executes *only* what no manifest covers: unmarked sources re-gather
keys and re-scatter against the frozen splitters, and unsalvaged
partitions are re-sorted -- on an idle spare shard when one exists (the
staging file travels over the interconnect), otherwise on the rebooted
home shard.

Straggler speculation (active only when a fault plan is installed, so
fault-free runs are bit-identical to pre-speculation builds): a monitor
process compares each open partition's predicted finish -- the fluid
scheduler's scheduled horizon for that shard's resource group -- against
``spec_factor`` times the slowest *completed* partition.  A partition
predicted to overshoot is re-issued on an idle shard from a staging
copy.  The first attempt to complete wins; the engine's deterministic
completion order makes the winner identical across runs and across the
scalar/vector kernels, and the loser is torn down with
:meth:`~repro.sim.engine.Engine.cancel_tree` (which settles the fluid
model first, so all partial progress is charged to device stats before
the loser's remaining work vanishes).  Speculative copies deliberately
bypass the write-pool arbiter's slots: a cancelled loser must never die
holding an admission slot another shard is waiting on.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

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
        speculate: bool = True,
        spec_factor: float = 1.75,
        spec_interval: Optional[float] = None,
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
        #: Allow straggler re-issue (only ever active under an
        #: installed fault plan; see module docstring).
        self.speculate = speculate
        if spec_factor <= 1.0:
            raise ConfigError("spec_factor must be > 1")
        #: A partition is a straggler when its predicted duration
        #: exceeds ``spec_factor`` x the slowest completed partition.
        self.spec_factor = spec_factor
        if spec_interval is not None and spec_interval <= 0:
            raise ConfigError("spec_interval must be positive or None")
        #: Monitor poll period in simulated seconds; None derives it
        #: from the scheduled horizon (an eighth of the remaining work).
        self.spec_interval = spec_interval
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
        homes = self._homes(cluster, sharded_input)
        n_parts = len(homes)
        for part in sharded_input.parts:
            if part.size % self.fmt.record_size:
                raise ConfigError(
                    f"part {part.name!r} size is not a multiple of record size"
                )
        arbiter = WritePoolArbiter(cluster)
        stagings = [
            shard.fs.create(f"{self.output_name}.stage{d}")
            for d, shard in enumerate(homes)
        ]
        outputs: List = [None] * n_parts
        cluster.run(
            self._drive(cluster, homes, sharded_input, stagings, arbiter, outputs),
            name=f"sharded-{self.system}",
        )
        for d, shard in enumerate(homes):
            shard.fs.delete(stagings[d].name)
        if self.checkpoint:
            self._discard_manifests(cluster)
        return ShardedFile(self.output_name, outputs)

    def _homes(self, cluster: Cluster, sharded_input: ShardedFile) -> List:
        """The shards owning this run's partitions, in partition order.

        The partition count is the *input's* part count; shards beyond
        it (admitted via :meth:`Cluster.add_shard`, before or during the
        run) serve as spares for speculation and crash re-execution.
        The next dataset generated on the grown cluster has more parts,
        so the next run re-plans -- and rebalances its splitters -- over
        the full shard count.
        """
        n_parts = len(sharded_input.parts)
        if n_parts > len(cluster.shards):
            raise ConfigError(
                f"input has {n_parts} parts for a "
                f"{len(cluster.shards)}-shard cluster"
            )
        return list(cluster.shards[:n_parts])

    # ------------------------------------------------------------------
    def _drive(self, cluster, homes, sharded_input, stagings, arbiter, outputs):
        fmt = self.fmt
        rec = fmt.record_size
        n_parts = len(homes)

        # -- Plan: concurrent per-shard key gathers ---------------------
        plan_procs = []
        for shard, part in zip(homes, sharded_input.parts):
            ctrl = arbiter.controller(shard.domain)
            proc = yield Spawn(
                self._gather_keys(shard, part, ctrl), name=f"plan:{shard.domain}"
            )
            plan_procs.append(proc)
        shard_keys = yield Join(plan_procs)

        splitters = self._choose_splitters(shard_keys, n_parts)
        self.splitters = splitters
        pids = [self._partition_ids(keys, splitters) for keys in shard_keys]
        counts = np.zeros((n_parts, n_parts), dtype=np.int64)
        for s in range(n_parts):
            if pids[s].size:
                counts[s] = np.bincount(pids[s], minlength=n_parts)
        self.shuffle_counts = counts

        if self.checkpoint:
            # Freeze the plan: with splitters and counts durable, every
            # later phase is re-executable at partition granularity.
            yield from self._plan_log(homes[0]).save(
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
        scan_ops = []
        for shard, keys in zip(homes, shard_keys):
            ctrl = arbiter.controller(shard.domain)
            scan_ops.append(
                shard.copy(
                    keys.shape[0] * fmt.key_size,
                    tag="SHUFFLE partition",
                    cores=ctrl.sort_cores(),
                )
            )
        yield ParallelOps(scan_ops)

        # Reserved staging offsets: source s writes its dest-d records at
        # [base, base + counts[s][d]*rec) where base skips all earlier
        # sources' records -- staging content order == global input order.
        bases = np.zeros((n_parts, n_parts), dtype=np.int64)
        bases[1:] = np.cumsum(counts[:-1], axis=0)
        bases *= rec

        # -- Shuffle: concurrent per-source streaming scatter -----------
        shuffle_procs = []
        for s, (shard, part) in enumerate(zip(homes, sharded_input.parts)):
            ctrl = arbiter.controller(shard.domain)
            log = self._scatter_log(shard, s) if self.checkpoint else None
            proc = yield Spawn(
                self._shuffle_source(
                    cluster, homes, part, pids[s], bases[s].copy(), stagings,
                    arbiter, ctrl, shard.domain, scatter_log=log, src_index=s,
                ),
                name=f"shuffle:{shard.domain}",
            )
            shuffle_procs.append(proc)
        yield Join(shuffle_procs)

        # -- Sort: unmodified per-shard sorts, concurrently -------------
        entries = []
        for d, shard in enumerate(homes):
            part_name = f"{self.output_name}.shard{d}"
            if stagings[d].size == 0:
                outputs[d] = shard.fs.create(part_name)
                continue
            entries.append((d, shard))
        if not entries:
            return
        # Speculation changes the engine's event schedule (monitor
        # timers), so it arms only under an installed fault plan --
        # fault-free runs stay bit-identical to the plain Join path.
        faults = cluster.faults
        if self.speculate and faults is not None and not faults.count_only:
            yield from self._sort_with_speculation(
                cluster, entries, stagings, arbiter, outputs
            )
            return
        sort_procs = []
        for d, shard in entries:
            proc = yield Spawn(
                self._sort_partition(
                    d, shard, stagings[d], f"{self.output_name}.shard{d}"
                ),
                name=f"sort:{shard.domain}",
            )
            sort_procs.append((d, proc))
        results = yield Join([proc for _d, proc in sort_procs])
        for (d, _proc), output in zip(sort_procs, results):
            outputs[d] = output

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
        self,
        cluster,
        homes,
        part,
        pids,
        cursors,
        stagings,
        arbiter,
        ctrl,
        src_domain: str,
        scatter_log: Optional[CheckpointLog] = None,
        src_index: int = -1,
        skip_dests: FrozenSet[int] = frozenset(),
        redone: Optional[list] = None,
    ):
        """Stream one source shard, scattering batches to staging files.

        ``cursors`` holds this source's next reserved write offset per
        destination; content placement never depends on op timing.
        Cross-shard slices pay the interconnect (the staging write and
        the network transfer run in parallel, completing together).
        ``skip_dests`` (recovery) suppresses writes to partitions whose
        sorted output was already salvaged; ``redone`` is a one-element
        byte accumulator for recovery accounting.
        """
        fmt = self.fmt
        rec = fmt.record_size
        n_parts = len(homes)
        chunk_bytes = max(1, self.config.read_buffer // rec) * rec
        read_threads = ctrl.read_threads(Pattern.SEQ)
        row = 0
        for offset in range(0, part.size, chunk_bytes):
            nbytes = min(chunk_bytes, part.size - offset)
            data = yield part.read(
                offset, nbytes, tag="SHUFFLE read", threads=read_threads
            )
            rows = data.reshape(-1, rec)
            batch_pids = pids[row : row + rows.shape[0]]
            row += rows.shape[0]
            for d in range(n_parts):
                if d in skip_dests:
                    continue
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
                if cluster.network is not None and dest != src_domain:
                    yield ParallelOps(
                        [
                            write_op,
                            cluster.net_op(
                                src_domain, dest, slice_rows.size,
                                tag="SHUFFLE net",
                            ),
                        ]
                    )
                else:
                    yield write_op
                arbiter.release(dest)
                cursors[d] += slice_rows.size
                if redone is not None:
                    redone[0] += int(slice_rows.size)
        if scatter_log is not None:
            # Commit only after every slice completed: a valid scatter
            # manifest therefore proves all of this source's staging
            # bytes are durable on their destinations.
            yield from scatter_log.save(
                {"phase": "scatter", "source": src_index}
            )

    def _make_shard_system(self, output_name: str):
        system = create_system(self.system, self.fmt, config=self.config)
        if not hasattr(system, "sort_process"):
            raise ConfigError(
                f"system {self.system!r} cannot run as a cluster shard "
                f"process (no sort_process); use a wiscsort variant"
            )
        system.output_name = output_name
        return system

    # ------------------------------------------------------------------
    # Sort attempts, speculation and loser cancellation
    # ------------------------------------------------------------------
    def _sort_attempt(self, shard, staging, part_name):
        """One raw per-shard sort (no manifest; used by speculation)."""
        system = self._make_shard_system(part_name)
        output = yield from system.sort_process(shard, staging)
        return output

    def _sort_partition(self, d, shard, staging, part_name):
        """Per-shard sort plus (when checkpointing) its sorted manifest."""
        output = yield from self._sort_attempt(shard, staging, part_name)
        if self.checkpoint:
            yield from self._save_sorted(shard, d, output)
        return output

    def _save_sorted(self, shard, d, output):
        yield from self._sorted_log(shard, d).save(
            {
                "phase": "sorted",
                "dest": d,
                "domain": shard.domain,
                "output": output.name,
                "size": int(output.size),
            }
        )

    def _sort_with_speculation(self, cluster, entries, stagings, arbiter, outputs):
        """Run the sort phase with straggler re-issue.

        Every attempt (primary or speculative) gets a watcher process;
        the first watcher to observe its partition complete claims the
        win, cancels and scrubs the rival, and releases the ``done``
        semaphore -- the drive below simply acquires one release per
        partition.  Engine completion order is deterministic, so the
        winner is identical across runs and kernels.
        """
        engine = cluster.engine
        done = Semaphore(engine, 0, name="sort-done", reason="barrier")
        state = {
            "winner": {},  # d -> "primary" | "spec"
            "durations": {},  # d -> completed-partition duration
            "attempts": {},  # d -> [(proc, shard, kind), ...]
            "start": {},  # d -> attempt start time
            "open": set(),  # partitions without a winner yet
            "busy": set(),  # domains currently executing an attempt
        }
        for d, shard in entries:
            gen = self._sort_attempt(
                shard, stagings[d], f"{self.output_name}.shard{d}"
            )
            proc = yield Spawn(gen, name=f"sort:{shard.domain}")
            state["attempts"][d] = [(proc, shard, "primary")]
            state["start"][d] = engine.now
            state["open"].add(d)
            state["busy"].add(shard.domain)
            yield Spawn(
                self._watch_attempt(
                    cluster, d, proc, shard, "primary", state, done, outputs
                ),
                name=f"watch:part{d}",
            )
        monitor = yield Spawn(
            self._spec_monitor(cluster, stagings, arbiter, state, done, outputs),
            name="spec-monitor",
        )
        for _ in range(len(entries)):
            yield done.acquire()
        if not monitor.done:
            engine.cancel_tree(monitor)

    def _watch_attempt(self, cluster, d, proc, shard, kind, state, done, outputs):
        output = yield Join(proc)
        if proc.cancelled or d in state["winner"]:
            return  # a cancelled loser, or the rival already claimed
        engine = cluster.engine
        state["winner"][d] = kind
        state["durations"][d] = engine.now - state["start"][d]
        state["open"].discard(d)
        state["busy"].discard(shard.domain)
        part_name = f"{self.output_name}.shard{d}"
        spec_stage_name = f"{self.output_name}.stage{d}.spec"
        for rproc, rshard, rkind in state["attempts"][d]:
            if rproc is proc:
                continue
            if not rproc.done:
                engine.cancel_tree(rproc)
            state["busy"].discard(rshard.domain)
            rname = part_name if rkind == "primary" else f"{part_name}.spec"
            self._scrub_partials(rshard, rname)
            self._sorted_log(rshard, d).discard()
            if rkind == "spec" and rshard.fs.exists(spec_stage_name):
                self._forget_and_delete(rshard, spec_stage_name)
        if kind == "spec":
            cluster.faults.speculative_wins += 1
            if shard.fs.exists(spec_stage_name):
                shard.fs.delete(spec_stage_name)
            shard.fs.rename(output.name, part_name)
            for emit in cluster.probes.instant:
                emit(
                    "speculation-win", cat="spec", track="cluster",
                    dest=d, domain=shard.domain,
                )
        if self.checkpoint:
            yield from self._save_sorted(shard, d, output)
        outputs[d] = output
        done.release()

    def _spec_monitor(self, cluster, stagings, arbiter, state, done, outputs):
        """Poll predicted finishes; re-issue stragglers on idle shards.

        Detection uses the fluid kernel's scheduled horizon for the
        straggler's resource group (bit-identical between the scalar
        and vector kernels), calibrated against the slowest *completed*
        partition -- so speculation never triggers before at least one
        partition has finished.
        """
        engine = cluster.engine
        fluid = engine.fluid
        while state["open"]:
            yield Sleep(self._monitor_step(engine, fluid, state))
            if not state["open"] or not state["durations"]:
                continue
            threshold = self.spec_factor * max(state["durations"].values())
            for d in sorted(state["open"]):
                attempts = state["attempts"][d]
                if len(attempts) > 1:
                    continue  # one speculative copy per partition
                proc, home, _kind = attempts[0]
                if proc.done:
                    continue
                horizon = fluid.predicted_horizon(home.domain)
                eta = max(engine.now, horizon if horizon is not None else 0.0)
                if eta - state["start"][d] <= threshold:
                    continue
                spare = self._idle_shard(cluster, state)
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
                    self._speculative_attempt(
                        cluster, d, home, spare, stagings[d], arbiter
                    ),
                    name=f"spec:part{d}@{spare.domain}",
                )
                attempts.append((sproc, spare, "spec"))
                yield Spawn(
                    self._watch_attempt(
                        cluster, d, sproc, spare, "spec", state, done, outputs
                    ),
                    name=f"watch:spec{d}",
                )

    def _monitor_step(self, engine, fluid, state) -> float:
        """The next poll delay (simulated seconds), derived when unset."""
        if self.spec_interval is not None:
            return self.spec_interval
        horizon = None
        for d in sorted(state["open"]):
            _proc, shard, _kind = state["attempts"][d][-1]
            h = fluid.predicted_horizon(shard.domain)
            if h is not None and (horizon is None or h > horizon):
                horizon = h
        if horizon is not None and horizon > engine.now:
            step = (horizon - engine.now) / 8.0
        elif state["durations"]:
            step = max(state["durations"].values()) / 8.0
        else:
            # Bootstrap: the monitor's first poll can race the attempts'
            # first op issues (no horizon yet); re-poll on the clock's
            # own scale so the adaptive step engages almost immediately.
            step = max(engine.now, 1e-9) / 64.0
        # A step below the clock's float spacing would not advance time
        # and the monitor would spin at one instant forever.
        return max(step, engine.now * 1e-9, 1e-12)

    def _idle_shard(self, cluster, state):
        """First shard with no running attempt: a spare (possibly
        admitted mid-run) or a home whose partition already finished.
        Reads the live shard list, so elastic scale-out is visible."""
        for shard in cluster.shards:
            if shard.domain not in state["busy"]:
                return shard
        return None

    def _speculative_attempt(self, cluster, d, home, spare, staging, arbiter):
        """Copy the straggler's staging to ``spare`` and sort it there."""
        arbiter.ensure(spare.domain)
        stage = yield from self._relocate_staging(
            cluster, home, spare, staging,
            f"{self.output_name}.stage{d}.spec", arbiter, tag="SPEC",
        )
        self._scrub_partials(spare, f"{self.output_name}.shard{d}.spec")
        output = yield from self._sort_attempt(
            spare, stage, f"{self.output_name}.shard{d}.spec"
        )
        return output

    def _relocate_staging(self, cluster, src, dst, staging, name, arbiter, tag):
        """Stream a staging file from ``src`` to ``dst`` over the wire.

        Deliberately slot-free (see module docstring): the destination
        is idle by construction and a cancelled copy must not die
        holding a write-pool admission slot.
        """
        if dst.fs.exists(name):
            self._forget_and_delete(dst, name)
        copy = dst.fs.create(name)
        read_threads = arbiter.controller(src.domain).read_threads(Pattern.SEQ)
        write_threads = arbiter.write_threads(dst.domain)
        rec = self.fmt.record_size
        chunk = max(1, self.config.read_buffer // rec) * rec
        for offset in range(0, staging.size, chunk):
            nbytes = min(chunk, staging.size - offset)
            data = yield staging.read(
                offset, nbytes, tag=f"{tag} read", threads=read_threads
            )
            write_op = copy.write(
                offset, data, tag=f"{tag} write", threads=write_threads
            )
            if cluster.network is not None:
                yield ParallelOps(
                    [
                        write_op,
                        cluster.net_op(
                            src.domain, dst.domain, nbytes, tag=f"{tag} net"
                        ),
                    ]
                )
            else:
                yield write_op
        return copy

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _execute_recover(self, cluster, sharded_input) -> ShardedFile:
        if not self.checkpoint:
            raise RecoveryError(
                f"{self.name} cannot recover without checkpoint=True"
            )
        homes = self._homes(cluster, sharded_input)
        n_parts = len(homes)
        rec = self.fmt.record_size
        metrics = {
            "salvaged_bytes": 0,
            "redone_bytes": 0,
            "partitions_salvaged": 0,
            "partitions_redone": 0,
        }
        payload = self._plan_log(homes[0]).load()
        if payload is None:
            # The plan never committed: nothing partition-granular is
            # durable, so scrub all run files and start over.
            self._scrub_run_files(cluster)
            self.last_recovery = metrics
            return self._execute(cluster, sharded_input)
        if (
            int(payload.get("n_parts", -1)) != n_parts
            or int(payload.get("record_size", -1)) != rec
        ):
            raise RecoveryError("plan manifest does not match this run")
        splitters = unpack_entries(payload["splitters"], self.fmt.key_size)
        counts = np.asarray(payload["counts"], dtype=np.int64).reshape(
            n_parts, n_parts
        )
        self.splitters = splitters
        self.shuffle_counts = counts

        outputs: List = [None] * n_parts
        salvaged = set()
        for d in range(n_parts):
            # The sorted manifest may live on any shard (a pre-crash
            # speculative win runs on a spare).
            for shard in cluster.shards:
                p = self._sorted_log(shard, d).load()
                if not p:
                    continue
                name = p.get("output", "")
                if (
                    shard.fs.exists(name)
                    and shard.fs.open(name).size == int(p.get("size", -1))
                ):
                    outputs[d] = shard.fs.open(name)
                    salvaged.add(d)
                    metrics["salvaged_bytes"] += int(p["size"])
                    break
        pending_sources = []
        if len(salvaged) < n_parts:
            for s, shard in enumerate(homes):
                if self._scatter_log(shard, s).load() is None:
                    pending_sources.append(s)
                else:
                    metrics["salvaged_bytes"] += int(counts[s].sum()) * rec
        stagings = []
        for d, shard in enumerate(homes):
            name = f"{self.output_name}.stage{d}"
            stagings.append(
                shard.fs.open(name) if shard.fs.exists(name)
                else shard.fs.create(name)
            )
        metrics["partitions_salvaged"] = len(salvaged)
        metrics["partitions_redone"] = n_parts - len(salvaged)
        arbiter = WritePoolArbiter(cluster)
        cluster.run(
            self._recover_drive(
                cluster, homes, sharded_input, stagings, arbiter, outputs,
                salvaged, pending_sources, splitters, counts, metrics,
            ),
            name=f"recover-{self.system}",
        )
        for d, shard in enumerate(homes):
            if shard.fs.exists(stagings[d].name):
                shard.fs.delete(stagings[d].name)
        self._discard_manifests(cluster)
        self.last_recovery = metrics
        return ShardedFile(self.output_name, outputs)

    def _recover_drive(
        self, cluster, homes, sharded_input, stagings, arbiter, outputs,
        salvaged, pending_sources, splitters, counts, metrics,
    ):
        rec = self.fmt.record_size
        n_parts = len(homes)

        # -- Re-scatter uncommitted sources (idempotent: reserved
        #    offsets overwrite any torn bytes with identical content) --
        if pending_sources and len(salvaged) < n_parts:
            procs = []
            for s in pending_sources:
                shard = homes[s]
                ctrl = arbiter.controller(shard.domain)
                proc = yield Spawn(
                    self._gather_keys(shard, sharded_input.parts[s], ctrl),
                    name=f"replan:{shard.domain}",
                )
                procs.append(proc)
            keys_list = yield Join(procs)
            bases = np.zeros((n_parts, n_parts), dtype=np.int64)
            bases[1:] = np.cumsum(counts[:-1], axis=0)
            bases *= rec
            redone = [0]
            sprocs = []
            for s, keys in zip(pending_sources, keys_list):
                pids = self._partition_ids(keys, splitters)
                fresh = (
                    np.bincount(pids, minlength=n_parts)
                    if pids.size
                    else np.zeros(n_parts, dtype=np.int64)
                )
                if not np.array_equal(fresh, counts[s]):
                    raise RecoveryError(
                        f"source {s} partition counts diverge from the "
                        f"plan manifest"
                    )
                shard = homes[s]
                ctrl = arbiter.controller(shard.domain)
                proc = yield Spawn(
                    self._shuffle_source(
                        cluster, homes, sharded_input.parts[s], pids,
                        bases[s].copy(), stagings, arbiter, ctrl,
                        shard.domain,
                        scatter_log=self._scatter_log(shard, s),
                        src_index=s,
                        skip_dests=frozenset(salvaged),
                        redone=redone,
                    ),
                    name=f"rescatter:{shard.domain}",
                )
                sprocs.append(proc)
            yield Join(sprocs)
            metrics["redone_bytes"] += redone[0]

        # -- Re-sort lost partitions, spares first ----------------------
        spares = [m for m in cluster.shards if m not in homes]
        procs = []
        for d, home in enumerate(homes):
            if d in salvaged:
                continue
            part_name = f"{self.output_name}.shard{d}"
            self._scrub_partials(home, part_name)
            expected = int(counts[:, d].sum()) * rec
            if expected == 0:
                outputs[d] = home.fs.create(part_name)
                continue
            if stagings[d].size != expected:
                raise RecoveryError(
                    f"partition {d} staging is incomplete "
                    f"({stagings[d].size} of {expected} bytes)"
                )
            metrics["redone_bytes"] += expected
            exec_shard = spares.pop(0) if spares else home
            proc = yield Spawn(
                self._recover_partition(
                    cluster, d, home, exec_shard, stagings[d], arbiter,
                    part_name,
                ),
                name=f"resort:{exec_shard.domain}",
            )
            procs.append((d, proc))
        if procs:
            results = yield Join([p for _d, p in procs])
            for (d, _p), output in zip(procs, results):
                outputs[d] = output

    def _recover_partition(
        self, cluster, d, home, exec_shard, staging, arbiter, part_name
    ):
        """Re-sort one lost partition on its home or a spare shard."""
        if exec_shard is home:
            output = yield from self._sort_attempt(home, staging, part_name)
            shard = home
        else:
            arbiter.ensure(exec_shard.domain)
            self._scrub_partials(exec_shard, part_name)
            stage = yield from self._relocate_staging(
                cluster, home, exec_shard, staging,
                f"{self.output_name}.stage{d}.recover", arbiter,
                tag="RECOVER",
            )
            output = yield from self._sort_attempt(
                exec_shard, stage, part_name
            )
            exec_shard.fs.delete(stage.name)
            shard = exec_shard
        # Commit immediately: recovery itself can crash, and the next
        # pass then salvages this partition instead of redoing it.
        yield from self._save_sorted(shard, d, output)
        return output

    # ------------------------------------------------------------------
    # Manifest and partial-file bookkeeping
    # ------------------------------------------------------------------
    def _plan_log(self, shard) -> CheckpointLog:
        return CheckpointLog(shard.fs, f"{self.output_name}.plan.manifest")

    def _scatter_log(self, shard, s: int) -> CheckpointLog:
        return CheckpointLog(shard.fs, f"{self.output_name}.scatter{s}.manifest")

    def _sorted_log(self, shard, d: int) -> CheckpointLog:
        return CheckpointLog(shard.fs, f"{self.output_name}.sorted{d}.manifest")

    def _discard_manifests(self, cluster) -> None:
        """Drop every manifest of this run (end of a successful sort)."""
        prefix = f"{self.output_name}."
        for shard in cluster.shards:
            for name in shard.fs.list():
                if name.startswith(prefix) and ".manifest" in name:
                    shard.fs.delete(name)

    def _scrub_run_files(self, cluster) -> None:
        """Delete every file this run created, on every shard."""
        prefix = f"{self.output_name}."
        for shard in cluster.shards:
            for name in shard.fs.list():
                if name.startswith(prefix):
                    self._forget_and_delete(shard, name)

    def _scrub_partials(self, shard, part_name: str) -> None:
        """Delete one attempt's output and temp files (``name`` and
        ``name.*``), e.g. after cancelling a speculative loser."""
        prefix = part_name + "."
        for name in shard.fs.list():
            if name == part_name or name.startswith(prefix):
                self._forget_and_delete(shard, name)

    def _forget_and_delete(self, shard, name: str) -> None:
        """Delete a file and drop any in-flight fault tracking on it
        (a deleted partial must not be torn by a later crash)."""
        f = shard.fs.open(name)
        if shard.faults is not None:
            shard.faults.forget_file(f)
        shard.fs.delete(name)
