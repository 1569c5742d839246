#!/usr/bin/env python3
"""Scale-out: a shared 4-shard cluster serving two tenants' sort jobs.

Builds a :class:`repro.Cluster` of four PMEM shards behind one
simulation engine, hands eight WiscSort jobs from two tenants to the
:class:`repro.SortService` as one batch (a finite arrival trace at
``t=0``) under a cluster-wide DRAM pool, and compares FIFO against
fair-share admission: fair-share rotates tenants, so no tenant's jobs
starve behind a burst from the other.

Run:  python examples/cluster_jobs.py
"""

from __future__ import annotations

from repro import Cluster, SortService
from repro.metrics import render_job_table, render_shard_table
from repro.workloads.arrivals import TraceArrivals


def run_policy(policy: str):
    cluster = Cluster(shards=4, dram_budget=64 * 1024 * 1024)
    batch = TraceArrivals(
        # tenant "alice" submits a burst first, "bob" trails behind
        [{"t": 0.0, "tenant": "alice" if j < 5 else "bob"} for j in range(8)],
        records=20_000,
        seed=42,
    )
    report = SortService(cluster, policy=policy).serve(batch)
    return cluster, report.jobs


def main() -> None:
    for policy in ("fifo", "fair"):
        cluster, jobs = run_policy(policy)
        print(f"=== policy: {policy} ===")
        print(render_job_table(jobs))
        print()
    print(render_shard_table(cluster))


if __name__ == "__main__":
    main()
