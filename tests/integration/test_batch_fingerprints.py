"""Frozen batch behaviour: the finite-trace path is the old batch scheduler.

ISSUE 16 deletes ``JobScheduler`` and runs a batch as a finite
``TraceArrivals`` at ``t=0`` on ``SortService``.  Frozen first (PR 14's
method): ``batch_fingerprints.json`` next to this file holds
``JobScheduler``'s per-job ``[name, shard, start_time, finish_time]``
and makespan at the commit *before* the merge, for all five policies x
three DRAM budgets x the eight jobs below (the batch never shed, so
``backpressure``/``shed`` only order), captured there with
``scheduler.submit(name, n_records=..., seed=..., tenant=...,
deadline=...)`` per job and ``scheduler.run()`` on ``Cluster(shards=2,
dram_budget=...)``.  It cannot be re-captured: the class is gone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import Cluster, SortService
from tests.conftest import batch_trace

FROZEN = json.loads(
    Path(__file__).with_name("batch_fingerprints.json").read_text()
)
N_JOBS = 8
#: Sizes alternate, three tenants, deadlines descend (EDF reverses FIFO).
JOBS = [
    dict(
        name=f"job{j:02d}", records=1_000 if j % 2 == 0 else 3_000,
        seed=100 + j, tenant=f"tenant{j % 3}", deadline=float(N_JOBS - j),
    )
    for j in range(N_JOBS)
]


@pytest.mark.parametrize("cell", sorted(FROZEN))
def test_finite_trace_reproduces_the_batch_scheduler(cell):
    policy, budget = cell.split("@")
    cluster = Cluster(
        shards=2, dram_budget=None if budget == "None" else int(budget)
    )
    report = SortService(cluster, policy=policy).serve(batch_trace(*JOBS))
    assert [
        [j.name, j.shard.domain, j.start_time, j.finish_time]
        for j in report.jobs
    ] == FROZEN[cell]["jobs"]
    assert report.makespan == FROZEN[cell]["makespan"]


def test_cells_cover_the_matrix():
    assert len(FROZEN) == 15
    # eight ~15.7 MB jobs are four times what backpressure lets queue
    # behind a 16 MB budget, and the batch still ran them all
    assert all(
        finish is not None
        for *_, finish in FROZEN["backpressure@16000000"]["jobs"]
    )
    # the tight budgets really serialize, and EDF really reorders
    starts = {
        cell: [job[2] for job in FROZEN[cell]["jobs"]] for cell in FROZEN
    }
    assert starts["fifo@16000000"] == sorted(starts["fifo@16000000"])
    assert starts["edf@16000000"] == sorted(starts["edf@16000000"], reverse=True)
    assert starts["fair@16000000"] != starts["fifo@16000000"]
