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
* Every sort drops a generated input after its last read of it: at
  completion in every driver, after the run phase in EMS (its merge
  reads only the runs) and after the scatter in a sharded sort.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref

import pytest

from repro import api
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import ConcurrencyModel, SortConfig
from repro.machine import Machine
from repro.records.gensort import make_records
from repro.storage.file import SimFile

#: EMS at 1M records peaks at 3.18x its dataset with its input released
#: after the run phase, plus a 0.12 margin (3.53x while the input stayed
#: through the merge; 4.85x when the output and intermediate runs grew
#: by doubling).
EMS_PEAK_PER_DATASET_BYTE = 3.3


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


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("system", ["ems", "wiscsort", "wiscsort-merge", "pmsort+"])
def test_a_finished_sort_holds_no_input_bytes(system):
    # PMSort+ refuses the default no-io-overlap model by design.
    overlap = SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
    options = api.RunOptions(
        records=20_000, system=system, seed=5,
        config=overlap if system == "pmsort+" else None,
    )
    result = api.sort(options)
    data = result.extras["machine"].fs.open("input")
    assert data._data is None
    expected = make_records(20_000, options.record_format, seed=5)
    assert _sha256(data.peek()) == _sha256(expected)
    assert data._data is None  # the read kept nothing


def test_ems_drops_its_input_before_its_first_merge_read(monkeypatch):
    released_at_merge = []
    read = SimFile.read

    def spy(self, offset, nbytes, tag, *args, **kwargs):
        if tag == "MERGE read" and not released_at_merge:
            released_at_merge.append(self._fs.open("input")._data is None)
        return read(self, offset, nbytes, tag, *args, **kwargs)

    monkeypatch.setattr(SimFile, "read", spy)
    config = SortConfig(read_buffer=64 * 1024)  # several runs to merge
    api.sort(api.RunOptions(records=5_000, system="ems", config=config))
    assert released_at_merge == [True]


def test_a_sharded_sort_drops_its_parts_before_the_per_shard_sorts(monkeypatch):
    cluster = Cluster(shards=4)
    data = generate_cluster_dataset(cluster, "input", 8_000, seed=5)
    released_at_sort = []
    attempt = ShardedWiscSort._attempt

    def spy(self, *args, **kwargs):
        released_at_sort.append([part._data is None for part in data.parts])
        return (yield from attempt(self, *args, **kwargs))

    monkeypatch.setattr(ShardedWiscSort, "_attempt", spy)
    ShardedWiscSort().run(cluster, data)
    assert released_at_sort == [[True] * 4] * 4


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
