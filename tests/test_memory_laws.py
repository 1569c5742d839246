"""Host-memory laws: what a run holds is bounded by what it simulates.

* An EMS sort's traced allocation peak is a bounded multiple of its
  dataset: the output is reserved once at its final size, not grown by
  zero-filled doubling.
* A crash frees its dead attempt at reboot: the engine a reboot replaces
  is unreachable the moment ``reboot`` returns, with the cyclic garbage
  collector off, so the attempt's processes, frames and buffers never
  wait for a collection.
* A served job keeps recipes, not bytes: its input is made at
  admission and released to its recipe when the job finishes, and its
  validated output to the proven order, so what a service holds grows
  by two bytes a record plus a constant per job, and an overloaded
  service's peak does not grow with its queue.
* Every sort drops a generated input after its last read of it: at
  completion in every driver, after the run phase in EMS (its merge
  reads only the runs) and after the scatter in a sharded sort.
* EMS holds two copies of its dataset, not four: the output is reserved
  only once the input is gone, each run is sorted from one reused read
  buffer straight into its reserved file, and merged records go
  straight into the output's reserved extent, so those writes move no
  bytes (a checkpointed sort copies: its writes can be torn).
* A dropped machine is freed by reference counting: nothing it owns
  points back at it.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref

import pytest

from repro import api
from repro.baselines.external_merge_sort import ExternalMergeSort
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import ConcurrencyModel, SortConfig
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset, make_records
from repro.storage.file import SimFile

#: EMS at 1M records peaks at 2.18x its dataset, plus a 0.12 margin:
#: input + runs + one read buffer while it builds runs, runs + output +
#: windows while it merges.  Earlier: 3.18x with each run read, sorted
#: and written through three fresh arrays, the output reserved from the
#: start and merged records emitted into a fresh array; 3.53x while the
#: input stayed through the merge; 4.85x while files grew by doubling.
EMS_PEAK_PER_DATASET_BYTE = 2.3

FMT = RecordFormat()


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


def test_ems_reserves_its_output_once_its_input_is_released(monkeypatch):
    input_released_at = {}
    reserve = SimFile.reserve

    def spy(self, nbytes):
        input_released_at.setdefault(self.name, self._fs.open("input")._data is None)
        return reserve(self, nbytes)

    monkeypatch.setattr(SimFile, "reserve", spy)
    config = SortConfig(read_buffer=64 * 1024)  # several runs to merge
    api.sort(api.RunOptions(records=5_000, system="ems", config=config))
    assert input_released_at.pop("ems.out") is True
    assert set(input_released_at.values()) == {False}  # the runs
    assert len(input_released_at) == 8


def _in_place_writes(monkeypatch, checkpoint: bool) -> dict:
    """Per write tag: whether each write's payload already was the
    file's own bytes at the written extent (a write that moves none)."""
    seen: dict = {}
    write = SimFile.write

    def spy(self, offset, data, tag, *args, **kwargs):
        own = self._data
        seen.setdefault(tag, []).append(
            own is not None and own.size > offset
            and data.ctypes.data == own.ctypes.data + offset
        )
        return write(self, offset, data, tag, *args, **kwargs)

    monkeypatch.setattr(SimFile, "write", spy)
    machine = Machine()
    data = generate_dataset(machine, "input", 5_000, FMT, seed=5)
    config = SortConfig(read_buffer=64 * 1024, write_buffer=48 * 1024)
    ExternalMergeSort(FMT, config=config, checkpoint=checkpoint).run(machine, data)
    return seen


def test_ems_sorts_runs_and_merges_records_in_place(monkeypatch):
    seen = _in_place_writes(monkeypatch, checkpoint=False)
    assert len(seen["RUN write"]) == 8 and all(seen["RUN write"])
    assert len(seen["MERGE write"]) == 11 and all(seen["MERGE write"])


def test_checkpointed_ems_copies_what_it_writes(monkeypatch):
    seen = _in_place_writes(monkeypatch, checkpoint=True)
    assert len(seen["RUN write"]) == 8 and len(seen["MERGE write"]) == 11
    assert not any(seen["RUN write"] + seen["MERGE write"])


@pytest.mark.parametrize(
    "make", [Machine, lambda: api.sort(api.RunOptions(records=5_000)).extras["machine"]],
    ids=["bare", "sorted"],
)
def test_a_dropped_machine_is_freed_by_reference_counting(make):
    gc.disable()
    try:
        machine = make()
        ref = weakref.ref(machine)
        del machine
        assert ref() is None
    finally:
        gc.enable()


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


#: Live bytes a served job may add: its output's proven order (2 B a
#: record, ``uint16``) plus this many for the job, its two files and
#: their recipes (measured 1,866 B at 200 records, 2,410 B at 2,000;
#: ~202 KB a job while every output kept its bytes).
SERVED_JOB_BYTES = 2_600


def _served(jobs: int, records: int, rate: float, dram_budget=None):
    """(report, traced live bytes after the run, traced peak)."""
    gc.collect()
    tracemalloc.start()
    try:
        report = api.serve(
            api.RunOptions(records=records, dram_budget=dram_budget),
            rate=rate, max_jobs=jobs, shards=2,
        )
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.jobs_completed == jobs
    return report, live, peak


@pytest.mark.parametrize("records, small, big", [(200, 400, 1_600), (2_000, 100, 400)])
def test_a_served_job_keeps_its_proof_not_its_bytes(records, small, big):
    api.serve(api.RunOptions(records=records), rate=20_000.0, max_jobs=10, shards=2)
    # after the warm-up: no one-time caches
    growth = _served(big, records, 20_000.0)[1] - _served(small, records, 20_000.0)[1]
    assert growth <= (big - small) * (2 * records + SERVED_JOB_BYTES), growth / (big - small)


#: What an overloaded service may hold beyond its finished jobs' share:
#: the cluster and the (at most three, by DRAM) jobs in flight.  Measured
#: 1.8 / 2.3 MB at 200 / 800 jobs; while queued inputs and finished
#: outputs held their bytes the peak was 41.7 / 163.7 MB.
OVERLOAD_BYTES = 4 * 1024 * 1024


def _deepest_queue(jobs) -> int:
    events = sorted(
        [(job.submit_time, 1) for job in jobs] + [(job.start_time, -1) for job in jobs]
    )
    depth = deepest = 0
    for _, step in events:
        depth += step
        deepest = max(deepest, depth)
    return deepest


@pytest.mark.parametrize("jobs", [200, 800])
def test_an_overloaded_service_peak_ignores_its_queue(jobs):
    records = 2_000
    api.serve(api.RunOptions(records=records), rate=20_000.0, max_jobs=10, shards=2)
    # ~2x the saturation rate; three jobs' DRAM at a time.
    report, _, peak = _served(jobs, records, 80_000.0, dram_budget=48_000_000)
    assert _deepest_queue(report.jobs) >= jobs // 4
    assert peak <= jobs * (2 * records + SERVED_JOB_BYTES) + OVERLOAD_BYTES, peak
