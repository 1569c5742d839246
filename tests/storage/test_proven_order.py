"""A validated output keeps its proof, not its bytes.

Validation proves ``output == input[order]`` row for row
(``repro.records.validate._permutes``).  When the input still holds its
generator's recipe, that order plus the recipe make the output again, so
``SortSystem.finish`` releases the output like the input.  The contract:

* the order is a compact array of its own (``uint16`` up to 65,536 rows,
  else ``uint32``), never a view of the output's bytes;
* every system that validates a fixed-size output ends with no output
  bytes held, and a read gives back exactly what was validated;
* a failed validation, a KLV output, a ``validate=False`` run and a
  mutation after the release all keep (or take back) real bytes;
* a served job still in the queue has no input file yet.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import api
from repro.cluster.service import SortService
from repro.core.base import ConcurrencyModel, SortConfig, SortSystem
from repro.core.klv_sort import WiscSortKLV
from repro.errors import ValidationError
from repro.machine import Machine
from repro.records.format import RecordFormat, key_sort_indices
from repro.records.gensort import make_records
from repro.records.klv import KLVFormat, generate_klv_dataset
from repro.records.validate import validate_sorted_records
from repro.storage.file import SimFile

SYSTEMS = [
    "ems", "wiscsort", "wiscsort-merge", "pmsort", "pmsort+", "sample-sort",
    "modified-key-sort", "wiscsort-natural",
]


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _options(system: str = "wiscsort", **changes) -> api.RunOptions:
    # PMSort+ refuses the default no-io-overlap model by design.
    overlap = SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
    return api.RunOptions(
        records=6_000, system=system, seed=9,
        config=overlap if system == "pmsort+" else None,
    ).replace(**changes)


@pytest.mark.parametrize(
    "rows, dtype", [(0, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]
)
def test_the_proof_is_a_compact_copy(rows, dtype):
    fmt = RecordFormat(key_size=4, value_size=8)
    records = make_records(rows, fmt, seed=3)
    output = records[key_sort_indices(records[:, : fmt.key_size])]
    order = validate_sorted_records(records, output, fmt.key_size)
    assert order.dtype == dtype and order.shape == (rows,)
    assert order.base is None and not np.shares_memory(order, output)
    assert np.array_equal(records[order], output)


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_validated_output_is_released_to_its_proof(monkeypatch, system):
    digests = {}
    release = SimFile.release

    def spy(self):
        if self._data is not None:
            digests[self.name] = _sha256(self.peek())
        release(self)

    monkeypatch.setattr(SimFile, "release", spy)
    result = api.sort(_options(system))
    out = result.extras["machine"].fs.open(result.output_name)
    assert result.validated and out._data is None
    assert _sha256(out.peek()) == digests[out.name]
    assert out._data is None  # the read kept nothing


def test_a_corrupted_output_fails_and_keeps_its_bytes(monkeypatch):
    outputs = []
    finish = SortSystem.finish

    def corrupt(self, machine, input_file, output_file, validate):
        outputs.append(output_file)
        last = output_file.size - 1
        output_file.poke(last, ~output_file.peek(last, 1))  # one value byte
        return finish(self, machine, input_file, output_file, validate)

    monkeypatch.setattr(SortSystem, "finish", corrupt)
    with pytest.raises(ValidationError, match="not a permutation"):
        api.sort(_options())
    [out] = outputs
    assert out._data is not None and out._recipe is None


def test_a_poke_into_a_released_output_lands_on_its_proof():
    result = api.sort(_options())
    out = result.extras["machine"].fs.open(result.output_name)
    expected = out.peek()
    out.poke(1_234, b"xyz")
    expected[1_234:1_237] = np.frombuffer(b"xyz", np.uint8)
    assert out._recipe is None and out._data is not None
    out.release()  # no longer the proof's contents: a no-op
    assert np.array_equal(out.peek(), expected)


def test_an_unvalidated_output_keeps_its_bytes():
    result = api.sort(_options(validate=False))
    out = result.extras["machine"].fs.open(result.output_name)
    assert out._data is not None and out._recipe is None


def test_a_klv_output_keeps_its_bytes(pmem):
    machine = Machine(profile=pmem)
    data = generate_klv_dataset(machine, "input", 2_000, KLVFormat(), seed=1)
    result = WiscSortKLV(KLVFormat()).run(machine, data)
    out = machine.fs.open(result.output_name)
    assert result.validated and out._data is not None and out._recipe is None


def test_a_queued_job_has_no_input_yet(monkeypatch):
    queues = []
    body = SortService._job_body

    def spy(self, run, job):
        queues.append([queued.input_file for queued in run.pending])
        return (yield from body(self, run, job))

    monkeypatch.setattr(SortService, "_job_body", spy)
    # ~2x the saturation rate, three jobs' DRAM: a queue forms.
    report = api.serve(
        api.RunOptions(records=2_000, dram_budget=48_000_000),
        rate=80_000.0, max_jobs=60, shards=2,
    )
    assert report.jobs_completed == 60
    assert max(map(len, queues)) > 10
    assert all(f is None for queue in queues for f in queue)
    assert all(job.input_file._data is None for job in report.jobs)
    assert all(job.output_file._data is None for job in report.jobs)
