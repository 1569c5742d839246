"""Batch semantics of the one admission loop.

A batch of K pre-submitted jobs is a finite arrival trace at ``t=0`` on
:class:`~repro.cluster.SortService` (there is no separate batch
scheduler): placement, DRAM admission and the policies' pick order.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, SortService
from repro.errors import ConfigError
from tests.conftest import batch_trace

MIB = 1024 * 1024


def _run(pmem, *jobs, shards=2, policy="fifo", dram_budget=None):
    cluster = Cluster(shards=shards, profile=pmem, dram_budget=dram_budget)
    report = SortService(cluster, policy=policy).serve(batch_trace(*jobs))
    return cluster, report.jobs


def _jobs(n, records, prefix="j", **fields):
    return [
        dict(name=f"{prefix}{i}", records=records, seed=i, **fields)
        for i in range(n)
    ]


class TestSubmission:
    def test_unknown_policy_rejected(self, pmem):
        cluster = Cluster(shards=1, profile=pmem)
        with pytest.raises(ConfigError):
            SortService(cluster, policy="lifo")

    def test_round_robin_placement(self, pmem):
        _, jobs = _run(pmem, *_jobs(6, 100), shards=3)
        assert [j.shard.domain for j in jobs] == [
            "shard0", "shard1", "shard2", "shard0", "shard1", "shard2",
        ]


class TestExecution:
    def test_all_jobs_finish_and_validate(self, pmem):
        _, jobs = _run(pmem, *_jobs(4, 1_000))  # validates each output
        assert len(jobs) == 4
        for job in jobs:
            assert job.finish_time is not None
            assert job.service_time > 0
            assert job.slowdown >= 1.0

    def test_concurrent_jobs_never_collide_on_filenames(self, pmem):
        # two jobs on the same shard: intermediates are prefixed with the
        # per-job output name, so both validate
        _, jobs = _run(
            pmem,
            dict(name="a", records=800, seed=1),
            dict(name="b", records=800, seed=2),
            shards=1,
        )
        assert {j.output_file.name for j in jobs} == {"a.out", "b.out"}

    def test_dram_budget_queues_jobs(self, pmem):
        # budget fits one default reservation (~16 MiB for 5k records)
        # at a time, so the second job queues behind the first
        cluster, jobs = _run(pmem, *_jobs(3, 5_000), dram_budget=32 * MIB)
        queued = [j for j in jobs if j.queue_time > 0]
        assert queued, "a tight DRAM pool must delay at least one job"
        assert max(j.slowdown for j in jobs) > 1.0
        assert cluster.dram.peak <= 32 * MIB

    def test_fifo_preserves_submission_order(self, pmem):
        _, jobs = _run(pmem, *_jobs(3, 5_000), shards=1, policy="fifo",
                       dram_budget=32 * MIB)
        starts = [j.start_time for j in jobs]
        assert starts == sorted(starts)

    def test_fair_share_rotates_tenants(self, pmem):
        # one tenant bursts 4 jobs, the other submits 2 afterwards; with
        # a pool that serves two jobs at a time, fair-share lets the
        # second tenant in before the burst drains
        _, jobs = _run(
            pmem,
            *_jobs(4, 5_000, prefix="burst", tenant="alice"),
            *_jobs(2, 5_000, prefix="tail", tenant="bob"),
            policy="fair", dram_budget=32 * MIB,
        )
        by_name = {j.name: j for j in jobs}
        # bob's first job must start before alice's burst has fully started
        assert by_name["tail0"].start_time < by_name["burst3"].start_time

    def test_policies_are_deterministic(self, pmem):
        def run(policy):
            _, jobs = _run(
                pmem,
                *[dict(name=f"j{i}", records=2_000, seed=i, tenant=f"t{i % 2}")
                  for i in range(4)],
                policy=policy, dram_budget=32 * MIB,
            )
            return [(j.name, j.start_time, j.finish_time) for j in jobs]

        for policy in ("fifo", "fair"):
            assert run(policy) == run(policy)
