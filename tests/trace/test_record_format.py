"""Observer records read back exactly as the per-event objects they replaced.

The tracer keeps op, wait and counter records as columns and the
device and interconnect statistics keep their timelines as flat float
arrays; ``Tracer.ops`` / ``.waits`` / ``.counters`` and
``DeviceStats.timeline`` / ``InterconnectStats.timeline`` rebuild one
row at a time.  ``record_format.json`` holds, for two observed runs --
a MergePass with background writers under the tracer (``analyze``), the
sanitizer and the race detector, and a 2-shard sort with a shard crash
and a slow window -- the row count
and the SHA-256 of ``repr(list(view))`` of every stream, captured while
each record was still its own dict or tuple.  ``repr`` pins key order,
value types (``int`` vs ``float``, ``None``) and every float bit.

Re-capture (only for an intended change of the record schema) with
``PYTHONPATH=src python tests/trace/test_record_format.py`` and review
the JSON diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.trace import Tracer
from repro.units import KiB
from repro.workloads.background import BackgroundClients

FROZEN = Path(__file__).with_name("record_format.json")
FMT = RecordFormat()


def _digest(rows) -> dict:
    rows = list(rows)
    return {
        "rows": len(rows),
        "sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


def _tracer_streams(tracer: Tracer) -> dict:
    return {
        "ops": _digest(tracer.ops),
        "waits": _digest(tracer.waits),
        "counters": _digest(tracer.counters),
    }


def observed_mergepass() -> dict:
    machine = Machine()
    tracer = Tracer(analyze=True).install(machine)
    sanitizer = machine.install_sanitizer()
    race = machine.install_race_detector()
    data = generate_dataset(machine, "input", 6_000, FMT, seed=2023)
    BackgroundClients(machine, 2, "write").start()
    system = WiscSort(
        FMT,
        config=SortConfig(read_buffer=16 * KiB, write_buffer=8 * KiB),
        force_merge_pass=True,
        merge_chunk_entries=1_000,
    )
    system.run(machine, data, validate=False)
    sanitizer.check()
    race.check()
    return {**_tracer_streams(tracer), "timeline": _digest(machine.stats.timeline)}


def sharded() -> dict:
    tracer = Tracer(analyze=True)
    result = api.sort(
        api.RunOptions(
            records=8_000, system="wiscsort-merge", seed=5, trace=tracer,
            faults="shard1:crash@50%,shard0:slow@t:1e-5+1:x0.1",
        ),
        shards=2,
    )
    cluster = result.extras["cluster"]
    streams = _tracer_streams(tracer)
    for shard in cluster.shards:
        streams[f"timeline:{shard.domain}"] = _digest(shard.stats.timeline)
    streams["timeline:net"] = _digest(cluster.net_stats.timeline)
    return streams


RUNS = {"observed_mergepass": observed_mergepass, "sharded": sharded}


def capture() -> dict:
    return {name: run() for name, run in RUNS.items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rows_equal_the_frozen_records(name):
    want = json.loads(FROZEN.read_text())[name]
    got = RUNS[name]()
    assert {k: v["rows"] for k, v in got.items()} == {
        k: v["rows"] for k, v in want.items()
    }
    assert got == want


if __name__ == "__main__":  # re-capture; see the module docstring
    FROZEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
