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
* A MergePass holds its output once: values gather straight into the
  output's reserved extent, so its traced peak is its output, IndexMap
  runs, merge frontier and one offset-queue batch.
* A dropped machine is freed by reference counting: nothing it owns
  points back at it, and no file points back at the name table that
  holds it.  A file that outlives its machine still reads.
* Observers keep columns, not an object per event: what an observed
  MergePass's handle retains beyond its output is bounded per issued
  op, and an unobserved one keeps its timeline as a flat array.
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
from repro.core.wiscsort import WiscSort
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset, make_records
from repro.storage.file import SimFile
from repro.trace import Tracer
from repro.units import KiB
from repro.workloads.background import BackgroundClients

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


def _ems_5k(monkeypatch, spy_on: str, spy) -> None:
    """A 5,000-record EMS sort of several runs with ``SimFile.<spy_on>``
    wrapped as ``spy(original, input_file, self, *args)``."""
    machine = Machine()
    data = generate_dataset(machine, "input", 5_000, FMT, seed=5)
    original = getattr(SimFile, spy_on)

    def wrapped(self, *args, **kwargs):
        return spy(original, data, self, *args, **kwargs)

    monkeypatch.setattr(SimFile, spy_on, wrapped)
    config = SortConfig(read_buffer=64 * 1024)  # several runs to merge
    ExternalMergeSort(FMT, config=config).run(machine, data)


def test_ems_drops_its_input_before_its_first_merge_read(monkeypatch):
    released_at_merge = []

    def spy(read, data, self, offset, nbytes, tag, *args, **kwargs):
        if tag == "MERGE read" and not released_at_merge:
            released_at_merge.append(data._data is None)
        return read(self, offset, nbytes, tag, *args, **kwargs)

    _ems_5k(monkeypatch, "read", spy)
    assert released_at_merge == [True]


def test_ems_reserves_its_output_once_its_input_is_released(monkeypatch):
    input_released_at = {}

    def spy(reserve, data, self, nbytes):
        input_released_at.setdefault(self.name, data._data is None)
        return reserve(self, nbytes)

    _ems_5k(monkeypatch, "reserve", spy)
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


@pytest.mark.parametrize(
    "make", [Machine, lambda: api.sort(api.RunOptions(records=5_000)).extras["machine"]],
    ids=["bare", "sorted"],
)
def test_a_dropped_machine_frees_its_files_by_reference_counting(make):
    gc.disable()
    try:
        machine = make()
        machine.fs.create("extra")
        fs, volume = weakref.ref(machine.fs), weakref.ref(machine.fs.volume)
        del machine
        assert fs() is None and volume() is None
    finally:
        gc.enable()


def test_a_file_that_outlives_its_machine_still_reads():
    result = api.sort(api.RunOptions(records=5_000, seed=5))
    output = result.extras["machine"].fs.open(result.output_name)
    want = _sha256(output.peek())
    del result
    gc.collect()
    assert _sha256(output.peek()) == want
    op = output.read(0, output.size, tag="late read")
    assert op.work > 0 and _sha256(op.on_complete(op)) == want


#: A MergePass's traced peak beyond its generated input: its output
#: (reserved once), IndexMap runs, merge frontier (the read buffer) and
#: one offset-queue batch -- values, entries and 8-byte pointers -- plus
#: this much.  Measured 0.2 MB under the parts at 200k records; 2.5 MB
#: over them while each batch gathered into a fresh array and the write
#: copied it.
MERGEPASS_SLACK = 512 * KiB


def test_mergepass_traced_peak_is_its_output_runs_frontier_and_one_batch():
    records = 200_000
    config = SortConfig()
    machine = Machine(dram_budget=2_500_000)  # the IndexMap does not fit
    data = generate_dataset(machine, "input", records, FMT, seed=5)
    gc.collect()
    tracemalloc.start()
    try:
        result = WiscSort(FMT, config=config).run(machine, data, validate=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "MERGE write" in result.phases
    rec, entry = FMT.record_size, FMT.index_entry_size
    batch = config.write_buffer // rec
    parts = (
        records * (rec + entry) + config.read_buffer + batch * (rec + entry + 8)
    )
    assert peak <= parts + MERGEPASS_SLACK, (peak - parts) / 1e6


def _mergepass(observed: bool):
    """The ledger's frozen 200k-record MergePass body (8 background
    writers), with every observer on or none: ``(handle, ops)``."""
    machine = Machine()
    observers = ()
    if observed:
        observers = (
            Tracer(analyze=True).install(machine),
            machine.install_sanitizer(),
            machine.install_race_detector(),
        )
    data = generate_dataset(machine, "input", 200_000, FMT, seed=2023)
    BackgroundClients(machine, 8, "write").start()
    system = WiscSort(
        FMT, config=SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB),
        force_merge_pass=True, merge_chunk_entries=1_500,
    )
    result = system.run(machine, data, validate=False)
    for observer in observers[1:]:
        observer.check()
    return (machine, result, observers), len(observers[0].ops) if observed else 0


def _retained(observed: bool):
    """(bytes the handle retains beyond its output, issued ops)."""
    gc.collect()
    tracemalloc.start()
    try:
        handle, ops = _mergepass(observed)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    machine, result, _ = handle
    return live - machine.fs.open(result.output_name).size, ops


#: Bytes an observed MergePass's handle may retain per issued op beyond
#: its output: tracer op, wait and counter rows plus the timeline
#: (measured ~240 B; ~1,440 B while every record was a dict or tuple).
OBSERVED_BYTES_PER_OP = 400


def test_an_unobserved_sort_keeps_its_timeline_as_a_flat_array():
    extra, _ = _retained(observed=False)
    assert extra <= 1024 * 1024, extra  # ~0.6 MB; 2.4 MB with row tuples


def test_observers_retain_columns_not_an_object_per_event():
    extra, ops = _retained(observed=True)
    assert ops > 14_000
    assert extra <= OBSERVED_BYTES_PER_OP * ops, extra / ops


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
