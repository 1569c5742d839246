"""Chaos suite: byte-identity of the sharded sort under faults.

The invariant under test is the strongest one the cluster makes: no
matter which shard crashes or which shard straggles, the concatenated sorted output is byte-identical to a
single-device WiscSort over the same records -- across multiple seeds
and under both fluid kernels (CI runs tier-1 with ``REPRO_SIM_VECTOR``
unset and with ``=0``).

The suite deliberately runs without the sanitizer and with an unlimited
DRAM budget: loser cancellation tears processes down mid-allocation by
design, and :meth:`~repro.cluster.cluster.Cluster.reboot` rebuilds the
DRAM pool wholesale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.wiscsort import WiscSort
from repro.errors import RecoveryError
from repro.faults.harness import run_cluster_with_faults
from repro.faults.plan import parse_fault_spec
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.sim.probe import Probe

SEEDS = [101, 202, 303]
N_RECORDS = 3_000


def _reference(pmem, n, fmt, seed):
    machine = Machine(profile=pmem)
    data = generate_dataset(machine, "input", n, fmt, seed=seed)
    result = WiscSort(fmt).run(machine, data)
    return machine.fs.open(result.output_name).peek()


def _merged_output(cluster, n_parts, output_name="sharded-wiscsort.out"):
    """The end-of-run check: concatenate the partition outputs wherever
    they landed, and insist the run left nothing else behind.

    A speculative win leaves its partition on the shard that won, so
    every shard is searched for each part name: exactly one may hold it,
    and no other file under ``<output_name>.`` (staging, speculative
    copies, manifests, temp files) may survive on any shard.
    """
    parts = []
    for d in range(n_parts):
        name = f"{output_name}.shard{d}"
        holders = [s for s in cluster.shards if s.fs.exists(name)]
        assert len(holders) == 1, f"{name} found on {len(holders)} shards"
        f = holders[0].fs.open(name)
        if f.size:
            parts.append(f.peek())
    outputs = {f"{output_name}.shard{d}" for d in range(n_parts)}
    leftovers = {
        shard.domain: sorted(
            n for n in shard.fs.list()
            if n.startswith(f"{output_name}.") and n not in outputs
        )
        for shard in cluster.shards
    }
    assert not any(leftovers.values()), f"run files left behind: {leftovers}"
    return np.concatenate(parts)


class _SpecWatch(Probe):
    """The run's instant names in order, plus partition 0's speculative
    attempt: when it was issued and stopped, and whether its staging copy
    was still short of the home staging file when a crash fired."""

    STAGE = "sharded-wiscsort.out.stage0"

    def __init__(self, cluster):
        self.cluster = cluster
        self.instants = []
        self.attempt = self.issued = self.stopped = None
        self.in_flight_at_crash = False

    def bind(self, probes):
        self.engine = probes.engine

    def subscriptions(self):
        return (("spawn", self._spawn), ("finish", self._stop),
                ("cancelled", self._stop), ("instant", self._instant))

    def _spawn(self, proc):
        if proc.name.startswith("spec:part0@"):
            self.attempt, self.issued = proc, self.engine.now

    def _stop(self, proc, now):
        if proc is self.attempt:
            self.stopped = now

    def _instant(self, name, **_args):
        self.instants.append(name)
        if name != "crash" or self.attempt is None or self.attempt.done:
            return
        home, copy = (s.fs for s in self.cluster.shards[:2])
        self.in_flight_at_crash = (
            copy.exists(f"{self.STAGE}.spec")
            and copy.open(f"{self.STAGE}.spec").size
            < home.open(self.STAGE).size
        )


def _no_fault_duration(pmem, n, fmt, seed, shards):
    cluster = Cluster(shards=shards, profile=pmem)
    data = generate_cluster_dataset(cluster, "input", n, fmt, seed=seed)
    ShardedWiscSort(fmt).run(cluster, data)
    return cluster.now


class TestShardCrashRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("frac", [0.35, 0.8])
    def test_crash_recovery_byte_identity(self, pmem, fmt, seed, frac):
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=3)
        cluster = Cluster(shards=3, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        plan = parse_fault_spec(f"shard1:crash@t:{frac * total}", seed=seed)
        system = ShardedWiscSort(fmt, checkpoint=True)
        result, report = run_cluster_with_faults(system, cluster, data,
                                                 plan=plan)
        assert result.validated
        assert report.crashes >= 1
        assert cluster.faults.shards_recovered == report.recoveries
        assert np.array_equal(_merged_output(cluster, 3), reference)

    def test_crash_under_speculation_leaves_no_copy(self, pmem, fmt):
        """Regression: the crash unwinds the run while a speculative
        staging copy is in flight on shard1; recovery used to scrub the
        home shard only and left ``.stage0.spec`` behind.

        The crash instant comes from a probe run whose crash lies far
        past the end (it only arms speculation): halfway between the
        copy's issue and the instant it stopped."""
        seed = SEEDS[1]
        reference = _reference(pmem, N_RECORDS, fmt, seed)

        def run(crash_at):
            cluster = Cluster(shards=2, profile=pmem)
            watch = _SpecWatch(cluster).install(cluster)
            data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                            seed=seed)
            plan = parse_fault_spec(f"shard0:crash@t:{crash_at!r}", seed=seed)
            result, report = run_cluster_with_faults(
                ShardedWiscSort(fmt, checkpoint=True), cluster, data, plan=plan
            )
            assert result.validated
            return cluster, watch, report

        _, probe, report = run(1.0)
        assert report.crashes == 0 and probe.stopped is not None
        cluster, watch, report = run(
            probe.issued + 0.5 * (probe.stopped - probe.issued)
        )
        assert report.crashes == 1
        assert watch.in_flight_at_crash
        assert cluster.faults.speculative_issues >= 1
        assert np.array_equal(_merged_output(cluster, 2), reference)

    def test_crash_between_win_and_commit_keeps_one_output(self, pmem, fmt):
        """Regression: shard1 crashes after the speculative winner's
        rename and before its sorted manifest commits; recovery used to
        re-sort at home and leave ``.shard0`` on two shards."""
        seed = SEEDS[0]
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        cluster = Cluster(shards=3, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        plan = parse_fault_spec(
            "shard0:slow@t:3.04677e-05+0.00553958:x0.05,shard1:crash@op:14",
            seed=seed,
        )
        system = ShardedWiscSort(fmt, checkpoint=True)
        result, report = run_cluster_with_faults(system, cluster, data,
                                                 plan=plan)
        assert result.validated and report.crashes == 1
        assert cluster.faults.speculative_wins == 1
        assert np.array_equal(_merged_output(cluster, 3), reference)

    def test_recovery_salvages_committed_partitions(self, pmem, fmt):
        seed = SEEDS[0]
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=3)
        cluster = Cluster(shards=3, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        # Late crash: the scatter manifests (and possibly some sorted
        # manifests) have committed; recovery must not redo everything.
        plan = parse_fault_spec(f"shard1:crash@t:{0.9 * total}", seed=seed)
        system = ShardedWiscSort(fmt, checkpoint=True)
        result, report = run_cluster_with_faults(system, cluster, data,
                                                 plan=plan)
        assert result.validated and report.crashes == 1
        rec = system.last_recovery
        assert rec is not None
        assert rec["salvaged_bytes"] > 0
        assert rec["partitions_redone"] >= 1

    def test_crash_without_checkpoint_raises(self, pmem, fmt):
        cluster = Cluster(shards=3, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=SEEDS[0])
        plan = parse_fault_spec("shard1:crash@t:1e-5", seed=SEEDS[0])
        system = ShardedWiscSort(fmt, checkpoint=False)
        with pytest.raises(RecoveryError):
            run_cluster_with_faults(system, cluster, data, plan=plan)

    def test_no_fault_plan_is_passthrough(self, pmem, fmt):
        seed = SEEDS[1]
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        cluster = Cluster(shards=3, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        result, report = run_cluster_with_faults(
            ShardedWiscSort(fmt), cluster, data
        )
        assert result.validated and report.crashes == 0
        assert np.array_equal(_merged_output(cluster, 3), reference)


class TestStragglerSpeculation:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_straggler_reissued_and_byte_identical(self, pmem, fmt, seed):
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=4)
        cluster = Cluster(shards=4, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        # shard0 drops to 5% throughput for the whole sort phase: its
        # partition must be re-issued on an idle shard and win there.
        plan = parse_fault_spec(
            f"shard0:slow@t:{0.55 * total}+{100 * total}:x0.05", seed=seed
        )
        system = ShardedWiscSort(fmt)
        result, _report = run_cluster_with_faults(system, cluster, data,
                                                  plan=plan)
        assert result.validated
        assert cluster.faults.speculative_issues >= 1
        assert cluster.faults.speculative_wins >= 1
        assert cluster.engine.fluid.ops_cancelled >= 1
        assert np.array_equal(_merged_output(cluster, 4), reference)

    def test_primary_win_cancels_speculative_loser(self, pmem, fmt):
        seed = SEEDS[2]
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=4)
        cluster = Cluster(shards=4, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        # The slow window starts early and covers the shuffle too, so
        # the speculative copy (which reads the straggler's staging)
        # is as slow as the primary -- the primary finishes first and
        # the speculative attempt must be cancelled and scrubbed.
        plan = parse_fault_spec(
            f"shard0:slow@t:{0.1 * total}+{100 * total}:x0.02", seed=seed
        )
        system = ShardedWiscSort(fmt)
        result, _report = run_cluster_with_faults(system, cluster, data,
                                                  plan=plan)
        assert result.validated
        assert cluster.faults.speculative_issues >= 1
        assert np.array_equal(_merged_output(cluster, 4), reference)
        for shard in cluster.shards:
            leftovers = [n for n in shard.fs.list() if ".spec" in n]
            assert leftovers == []

    def test_deadline_monitor_adds_few_engine_steps(self, pmem, fmt):
        """The monitor sleeps to one deadline per commit: a straggler run
        takes at most 1.5x the engine steps of the same run without its
        slow window (a monitor polling the fluid horizon took 11.8x)."""
        seed = SEEDS[0]
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=4)
        steps = []
        for plan in (None, parse_fault_spec(
            f"shard0:slow@t:{0.4 * total}+{50 * total}:x0.1", seed=seed
        )):
            cluster = Cluster(shards=4, profile=pmem)
            data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                            seed=seed)
            result, _report = run_cluster_with_faults(
                ShardedWiscSort(fmt), cluster, data, plan=plan
            )
            assert result.validated
            steps.append(cluster.engine.steps)
        assert cluster.faults.speculative_issues >= 1
        assert steps[1] <= 1.5 * steps[0], steps

    def test_speculation_disabled_without_faults(self, pmem, fmt):
        cluster = Cluster(shards=3, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=SEEDS[0])
        system = ShardedWiscSort(fmt)
        system.run(cluster, data)
        assert cluster.engine.fluid.ops_cancelled == 0


class TestCombinedChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_plus_straggler(self, pmem, fmt, seed):
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=4)
        cluster = Cluster(shards=4, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        plan = parse_fault_spec(
            f"shard1:crash@t:{0.5 * total},"
            f"shard0:slow@t:{0.4 * total}+{50 * total}:x0.1",
            seed=seed,
        )
        system = ShardedWiscSort(fmt, checkpoint=True)
        result, report = run_cluster_with_faults(system, cluster, data,
                                                 plan=plan)
        assert result.validated
        assert report.crashes >= 1
        assert np.array_equal(_merged_output(cluster, 4), reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_resumed_drive_speculates(self, pmem, fmt, seed):
        """A drive resumed after a crash arms speculation like a fresh
        one: the straggler is re-issued after the reboot."""
        reference = _reference(pmem, N_RECORDS, fmt, seed)
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=4)
        cluster = Cluster(shards=4, profile=pmem)
        watch = _SpecWatch(cluster).install(cluster)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        plan = parse_fault_spec(
            f"shard1:crash@t:{0.3 * total},"
            f"shard0:slow@t:{0.4 * total}+{50 * total}:x0.1",
            seed=seed,
        )
        result, report = run_cluster_with_faults(
            ShardedWiscSort(fmt, checkpoint=True), cluster, data, plan=plan
        )
        assert result.validated and report.crashes == 1
        resumed = watch.instants[watch.instants.index("cluster-reboot"):]
        assert "speculation-issue" in resumed
        assert np.array_equal(_merged_output(cluster, 4), reference)

    def test_counters_surface_in_selfperf(self, pmem, fmt):
        from repro.perf import collect_cluster_counters

        seed = SEEDS[0]
        total = _no_fault_duration(pmem, N_RECORDS, fmt, seed, shards=4)
        cluster = Cluster(shards=4, profile=pmem)
        data = generate_cluster_dataset(cluster, "input", N_RECORDS, fmt,
                                        seed=seed)
        plan = parse_fault_spec(
            f"shard1:crash@t:{0.5 * total},"
            f"shard0:slow@t:{0.55 * total}+{100 * total}:x0.05",
            seed=seed,
        )
        system = ShardedWiscSort(fmt, checkpoint=True)
        run_cluster_with_faults(system, cluster, data, plan=plan)
        counters = collect_cluster_counters(cluster)
        assert counters["shuffle_bytes_network"] > 0
        assert counters["shards_recovered"] >= 1
        assert "speculative_issues" in counters
        assert "speculative_wins" in counters
        assert "ops_cancelled" in counters
