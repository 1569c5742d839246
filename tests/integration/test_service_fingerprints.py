"""Frozen open-loop service: per-job times of a Poisson trace, every policy.

``batch_fingerprints.json`` freezes jobs that all arrive at ``t=0``, so
the arrival process never sleeps and a finishing job always finds the
stream closed.  This file freezes the other half of ``SortService``: 60
Poisson arrivals at three rates (an idle service, one near saturation,
one in overload) under each of the five admission policies on a 2-shard
cluster with a 48 MB DRAM budget, so arrivals sleep between jobs, jobs
finish while the stream is still open, queues build, and ``shed`` /
``backpressure`` drop jobs.  Each cell holds every job's ``[name,
shard, submit_time, start_time, finish_time]`` (``null`` shard and
times for a shed job) and the makespan, compared with ``==``.

Output changed on purpose: ``PYTHONPATH=src python
tests/integration/test_service_fingerprints.py`` re-captures; review the
JSON diff.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.cluster import Cluster, SortService
from repro.workloads.arrivals import PoissonArrivals, TraceArrivals

FROZEN_PATH = Path(__file__).with_name("service_fingerprints.json")
FROZEN = json.loads(FROZEN_PATH.read_text())
POLICIES = ("fifo", "fair", "edf", "backpressure", "shed")
#: jobs/s: ~0.3x, ~0.8x and ~2.5x what this cluster drains.
RATES = {"low": 10_000.0, "mid": 30_000.0, "high": 90_000.0}
N_JOBS = 60
DRAM_BUDGET = 48_000_000
QUEUE_CAP = 4


def trace(rate: float) -> TraceArrivals:
    """Two job sizes, three tenants, and deadlines that are not in
    arrival order (so EDF reorders what FIFO would not)."""
    specs = PoissonArrivals(
        rate, seed=7, size_mix=((1_000, 2), (3_000, 1)), tenants=3
    ).take(N_JOBS)
    return TraceArrivals([
        dataclasses.replace(
            spec,
            deadline=(4e-4 if spec.records == 1_000 else 1e-3) * (1 + spec.index % 3),
        )
        for spec in specs
    ])


def run_cell(policy: str, rate: float) -> dict:
    cluster = Cluster(shards=2, dram_budget=DRAM_BUDGET)
    report = SortService(cluster, policy=policy, queue_cap=QUEUE_CAP).serve(
        trace(rate)
    )
    return {
        "makespan": report.makespan,
        "jobs": [
            [
                j.name, j.shard.domain if j.shard is not None else None,
                j.submit_time, j.start_time, j.finish_time,
            ]
            for j in report.jobs
        ],
    }


def cells():
    return [f"{policy}@{label}" for policy in POLICIES for label in RATES]


@pytest.mark.parametrize("cell", cells())
def test_open_loop_service_reproduces_the_frozen_schedule(cell):
    policy, label = cell.split("@")
    assert run_cell(policy, RATES[label]) == FROZEN[cell]


def test_cells_exercise_the_open_loop():
    assert sorted(FROZEN) == sorted(cells())
    for cell, frozen in FROZEN.items():
        assert len(frozen["jobs"]) == N_JOBS, cell
        # the arrival process sleeps: no job arrives when the service opens
        assert all(job[2] > 0 for job in frozen["jobs"]), cell
    queued = {
        cell: sum(start is not None and start > submit
                  for _n, _s, submit, start, _f in frozen["jobs"])
        for cell, frozen in FROZEN.items()
    }
    shed = {
        cell: sum(shard is None for _n, shard, *_t in frozen["jobs"])
        for cell, frozen in FROZEN.items()
    }
    # an idle service admits almost every job on arrival; overload queues
    assert queued["fifo@low"] < N_JOBS // 10 < N_JOBS // 2 < queued["fifo@high"]
    # only the shedding policies drop jobs, and only under load
    assert {cell for cell, n in shed.items() if n} == {
        "backpressure@high", "shed@mid", "shed@high",
    }
    # the policies really differ once a queue builds
    starts = {cell: [job[3] for job in FROZEN[cell]["jobs"]] for cell in FROZEN}
    assert starts["edf@high"] != starts["fifo@high"] != starts["fair@high"]


if __name__ == "__main__":  # re-capture; see the module docstring
    FROZEN = {
        cell: run_cell(cell.split("@")[0], RATES[cell.split("@")[1]])
        for cell in cells()
    }
    # one job per line, as in batch_fingerprints.json
    text = json.dumps(FROZEN, indent=1)
    FROZEN_PATH.write_text(
        re.sub(r"\[\n\s+(\"job[^]]*)\n\s+\]",
               lambda m: "[" + re.sub(r",\n\s+", ", ", m.group(1)) + "]", text)
        + "\n"
    )
