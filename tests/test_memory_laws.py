"""Host-memory laws: what a run holds is bounded by what it simulates.

* An EMS sort's traced allocation peak is a bounded multiple of its
  dataset: the output is reserved once at its final size, not grown by
  zero-filled doubling.
* A crash frees its dead attempt at reboot: the engine a reboot replaces
  is unreachable the moment ``reboot`` returns, with the cyclic garbage
  collector off, so the attempt's processes, frames and buffers never
  wait for a collection.
* A served job keeps its output, not its input: a finished job's input
  is released to its recipe, so what a service holds grows by one
  output per job.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro import api
from repro.cluster.cluster import Cluster
from repro.machine import Machine

#: EMS at 1M records peaks at ~3.5x its dataset (4.85x when the output
#: and intermediate runs grew by doubling).
EMS_PEAK_PER_DATASET_BYTE = 3.75


def test_ems_traced_peak_is_a_bounded_multiple_of_the_dataset():
    records = 1_000_000
    gc.collect()
    tracemalloc.start()
    try:
        result = api.sort(api.RunOptions(records=records, system="ems"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dataset = records * api.RunOptions().record_format.record_size
    assert result.extras["machine"].fs.open("ems.out").size == dataset
    assert peak <= EMS_PEAK_PER_DATASET_BYTE * dataset, peak / dataset


@pytest.fixture
def replaced_engines(monkeypatch):
    """Weak references to every engine a reboot replaced, each checked
    the moment its ``reboot`` returns, with the cyclic GC off."""
    dead_at_return = []
    for owner in (Machine, Cluster):
        def reboot(self, *args, _reboot=owner.reboot):
            ref = weakref.ref(self.engine)
            _reboot(self, *args)
            dead_at_return.append(ref() is None)

        monkeypatch.setattr(owner, "reboot", reboot)
    gc.disable()
    try:
        yield dead_at_return
    finally:
        gc.enable()


@pytest.mark.parametrize("system", ["wiscsort", "wiscsort-merge", "ems"])
def test_a_crashed_machine_attempt_is_freed_at_reboot(replaced_engines, system):
    result = api.sort(
        api.RunOptions(records=20_000, system=system, faults="crash@op:2")
    )
    assert result.extras["fault_report"].crashes == 1
    assert replaced_engines == [True]


def test_a_crashed_sharded_attempt_is_freed_at_reboot(replaced_engines):
    result = api.sort(
        api.RunOptions(records=20_000, faults="shard1:crash@50%"), shards=4
    )
    assert result.extras["fault_report"].crashes == 1
    assert replaced_engines == [True]


#: Live bytes a served job may add, per byte of its output (~1.04 with
#: the input released; ~2.0 while every input stayed live).
SERVICE_LIVE_PER_OUTPUT_BYTE = 1.1


def _served_live_bytes(jobs: int, records: int) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        report = api.serve(
            api.RunOptions(records=records), rate=20_000.0, max_jobs=jobs, shards=2
        )
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.jobs_completed == jobs
    return live


def test_a_served_job_keeps_only_its_output():
    records = 200
    output = records * api.RunOptions().record_format.record_size
    api.serve(api.RunOptions(records=records), rate=20_000.0, max_jobs=10, shards=2)
    small = _served_live_bytes(400, records)  # after the warm-up: no one-time caches
    growth = _served_live_bytes(1_600, records) - small
    assert growth <= SERVICE_LIVE_PER_OUTPUT_BYTE * 1_200 * output, growth / (1_200 * output)
