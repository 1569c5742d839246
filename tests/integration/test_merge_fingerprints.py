"""Frozen fingerprints of every merge-based system's merge path.

ISSUE 14 routes six formerly hand-copied k-way merge loops through
``repro.core.kway.drive_merge`` and two crash-recovery state machines
through ``repro.core.recovery``.  The simulated results must not move:
this table pins ``repr(total_time)``, internal byte counters, per-tag
busy times and the output SHA-256 of each path, plus
the ``last_recovery`` accounting of checkpointed sorts crashed at fixed
fractions of their op stream.  The ``sharded[...]`` entries (ISSUE 21)
freeze ``ShardedWiscSort`` the same way -- fault-free, one shard crashed
at fixed fractions of its op stream, the same under a straggler window,
and two crashes -- with the counters that pin its control flow.  The
``selfperf:...`` entries freeze the paper's two WiscSort modes at seed
2023 (OnePass, and a 134-way MergePass under 8 background writers) with
per-tag device accounting and kernel counters; every observer, alone or
all at once, and the scalar kernel path must reproduce them.

The frozen values live in ``merge_fingerprints.json`` next to this
file; they were captured at the commit *before* the refactor.  Re-capture
(only when a simulated-result change is intended and explained)::

    PYTHONPATH=src python -m tests.integration.test_merge_fingerprints
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.baselines.external_merge_sort import ExternalMergeSort
from repro.baselines.pmsort import PMSort, PMSortPlus
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import ConcurrencyModel, SortConfig
from repro.core.compression import CompressionModel
from repro.core.klv_sort import WiscSortKLV
from repro.core.natural_runs import NaturalRunWiscSort
from repro.core.wiscsort import WiscSort
from repro.faults import FaultPlan, parse_fault_spec, run_with_faults
from repro.machine import Machine
from repro.perf import collect_cluster_counters, collect_counters
from repro.records.format import RecordFormat, record_sort_indices
from repro.records.gensort import generate_dataset
from repro.records.klv import KLVFormat, generate_klv_dataset
from repro.trace import Tracer
from repro.units import KiB, MiB
from repro.workloads.background import BackgroundClients

from tests.cluster.test_chaos import _merged_output

FROZEN_PATH = Path(__file__).with_name("merge_fingerprints.json")
FMT = RecordFormat()
N_RECORDS = 30_000
N_KLV = 8_000
SEED = 5
MODELS = {m.value: m for m in ConcurrencyModel}


def _config(read_kib, write_kib, model="no-io-overlap"):
    return SortConfig(
        read_buffer=read_kib * KiB,
        write_buffer=write_kib * KiB,
        concurrency=MODELS[model],
    )


def _wisc_multiround(model="no-io-overlap", **kw):
    return WiscSort(
        FMT, _config(4, 4, model), force_merge_pass=True,
        merge_chunk_entries=500, **kw,
    )


#: name -> zero-argument system factory (30,000 gensort records, seed 5).
CASES = {
    **{
        f"ems[{m}]@96/8": (lambda m=m: ExternalMergeSort(FMT, _config(96, 8, m)))
        for m in ("no-sync", "io-overlap", "no-io-overlap")
    },
    **{
        f"pmsort+[{m}]@96/8": (lambda m=m: PMSortPlus(FMT, _config(96, 8, m)))
        for m in ("no-sync", "io-overlap")
    },
    "pmsort@96/8": lambda: PMSort(FMT, _config(96, 8)),
    "ems@8/4-multiround": lambda: ExternalMergeSort(FMT, _config(8, 4)),
    **{
        f"wiscsort[{m}]@4/4-multiround": (lambda m=m: _wisc_multiround(m))
        for m in MODELS
    },
    "wiscsort-compressed@4/4-multiround": lambda: _wisc_multiround(
        compression=CompressionModel()
    ),
}

#: Checkpointed systems crashed at fixed fractions of their op stream;
#: 2 % lands in run generation (the salvage-by-exact-size path), the
#: rest in intermediate rounds and the final merge.
CRASH_CASES = {
    "wiscsort": lambda: _wisc_multiround(checkpoint=True),
    "ems": lambda: ExternalMergeSort(FMT, _config(8, 4), checkpoint=True),
}
CRASH_PERCENTS = (2, 10, 30, 50, 70, 90)

#: name -> (shards, per-shard system, checkpoint, fault spec or None).
#: ``N%`` resolves against the victim's fault-free op count and ``<x>T``
#: is x times the fault-free duration (both from one count-only probe);
#: the slow window arms straggler speculation across the sort phase.
SHARDED_SLOW = "shard0:slow@t:0.4T+50T:x0.1"
SHARDED_TWO_CRASH = {2: "shard0:crash@30%,shard1:crash@70%",
                     4: "shard1:crash@30%,shard3:crash@70%"}
SHARDED_CASES = {}
for _shards in (2, 4):
    for _system in ("wiscsort", "wiscsort-merge"):
        _key = f"sharded[{_system}]x{_shards}"
        SHARDED_CASES[f"{_key}:no-checkpoint"] = (_shards, _system, False, None)
        SHARDED_CASES[f"{_key}:fault-free"] = (_shards, _system, True, None)
        # no crash: the whole run is one engine, so ``engine_steps`` and
        # the speculation counters cover the watchers and the monitor
        SHARDED_CASES[f"{_key}:slow"] = (_shards, _system, True, SHARDED_SLOW)
        for _percent in CRASH_PERCENTS[1:]:
            _crash = f"shard1:crash@{_percent}%"
            SHARDED_CASES[f"{_key}:{_crash}"] = (_shards, _system, True, _crash)
            SHARDED_CASES[f"{_key}:{_crash}+slow"] = (
                _shards, _system, True, f"{_crash},{SHARDED_SLOW}"
            )
    SHARDED_CASES[f"sharded[wiscsort-merge]x{_shards}:two-crash"] = (
        _shards, "wiscsort-merge", True, SHARDED_TWO_CRASH[_shards]
    )
    # shard0's first op is its key gather: no plan manifest to resume from
    SHARDED_CASES[f"sharded[wiscsort-merge]x{_shards}:crash-before-plan"] = (
        _shards, "wiscsort-merge", True, "shard0:crash@op:1"
    )
SHARDED_COUNTERS = (
    "engine_steps", "ops_cancelled", "speculative_issues", "speculative_wins",
    "shuffle_bytes_network",
)

#: name -> (records, background writers, system factory), seed 2023.
SELFPERF_CASES = {
    "onepass": (50_000, 0, lambda: WiscSort(
        FMT, SortConfig(read_buffer=10 * MiB, write_buffer=8 * KiB))),
    "mergepass": (200_000, 8, lambda: WiscSort(
        FMT, SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB),
        force_merge_pass=True, merge_chunk_entries=1_500)),
}
SELFPERF_COUNTERS = (
    "engine_steps", "ops_completed", "rerate_calls", "vector_solves",
    "scalar_fallbacks",
)
#: leg -> observers installed before the run; ``scalar`` runs none on
#: the reference kernel path (``REPRO_SIM_VECTOR=0``).
OBSERVERS = ("analyze", "race", "faults", "sanitize")
SELFPERF_LEGS = {
    "off": (), **{o: (o,) for o in OBSERVERS}, "all": OBSERVERS, "scalar": (),
}


def _fingerprint(machine, result, output=None):
    if output is None:
        output = machine.fs.open(result.output_name).peek()
    return {
        "total_time": repr(result.total_time),
        "internal_read": result.internal_read,
        "internal_written": result.internal_written,
        "phases": {tag: repr(t) for tag, t in sorted(result.phases.items())},
        "sha256": hashlib.sha256(output.tobytes()).hexdigest(),
    }


def _gensort_machine():
    machine = Machine()
    return machine, generate_dataset(machine, "input", N_RECORDS, FMT, seed=SEED)


def run_case(name):
    machine, data = _gensort_machine()
    result = CASES[name]().run(machine, data)
    return _fingerprint(machine, result)


def run_klv():
    fmt = KLVFormat()
    machine = Machine()
    data = generate_klv_dataset(machine, "input", N_KLV, fmt, seed=SEED)
    system = WiscSortKLV(fmt, force_merge_pass=True, merge_chunk_entries=700)
    return _fingerprint(machine, system.run(machine, data))


def run_natural():
    """Mixed cursor fleet: the first half of the input is presorted, so
    half the merge's cursors window the input file directly."""
    machine, data = _gensort_machine()
    records = data.peek().reshape(-1, FMT.record_size)
    head = records[: N_RECORDS // 2]
    records[: N_RECORDS // 2] = head[record_sort_indices(head, FMT.key_size)]
    data.poke(0, records.reshape(-1))
    system = NaturalRunWiscSort(
        FMT, _config(96, 8), force_merge_pass=True, merge_chunk_entries=1_500
    )
    return _fingerprint(machine, system.run(machine, data))


def run_crash(name, percent):
    machine, data = _gensort_machine()
    injector = machine.install_faults(FaultPlan(), count_only=True)
    CRASH_CASES[name]().run(machine, data, validate=False)
    plan = parse_fault_spec(f"crash@{percent}%", seed=SEED).resolve_fractions(
        injector.op_index
    )
    machine, data = _gensort_machine()
    system = CRASH_CASES[name]()
    result, report = run_with_faults(system, machine, data, plan=plan)
    assert report.crashes == report.recoveries == 1
    fingerprint = _fingerprint(machine, result)
    fingerprint["last_recovery"] = dict(system.last_recovery)
    return fingerprint


def _sharded_build(shards, system_name, checkpoint):
    config = _config(96, 8)
    cluster = Cluster(shards=shards, config=config)
    data = generate_cluster_dataset(cluster, "input", N_RECORDS, FMT, seed=SEED)
    system = ShardedWiscSort(
        FMT, config=config, system=system_name, checkpoint=checkpoint
    )
    return cluster, data, system


@lru_cache(maxsize=None)
def _sharded_probe(shards, system_name):
    """Per-shard op counts and duration T of the fault-free run."""
    cluster, data, system = _sharded_build(shards, system_name, True)
    probe = cluster.install_faults(FaultPlan(), count_only=True)
    system.run(cluster, data, validate=False)
    return probe.ops_seen(), cluster.now


def run_sharded(name):
    shards, system_name, checkpoint, spec = SHARDED_CASES[name]
    cluster, data, system = _sharded_build(shards, system_name, checkpoint)
    if spec is not None:
        counts, total = _sharded_probe(shards, system_name)
        spec = re.sub(r"([0-9.]+)T", lambda m: repr(float(m[1]) * total), spec)
        cluster.install_faults(parse_fault_spec(spec, seed=SEED), counts=counts)
    result, report = run_with_faults(system, cluster, data)
    assert report.crashes == report.recoveries == (spec or "").count("crash")
    fingerprint = _fingerprint(cluster, result, _merged_output(cluster, shards))
    counters = collect_cluster_counters(cluster)
    fingerprint.update({k: counters.get(k, 0) for k in SHARDED_COUNTERS})
    fingerprint["last_recovery"] = system.last_recovery
    return fingerprint


def run_selfperf(name, observers=()):
    records, background, system = SELFPERF_CASES[name]
    machine = Machine()
    checked = []
    if "analyze" in observers:
        Tracer(analyze=True).install(machine)
    if "faults" in observers:
        machine.install_faults(FaultPlan())
    if "sanitize" in observers:
        checked.append(machine.install_sanitizer())
    if "race" in observers:
        checked.append(machine.install_race_detector())
    data = generate_dataset(machine, "input", records, FMT, seed=2023)
    if background:
        BackgroundClients(machine, background, "write").start()
    result = system().run(machine, data, validate=False)
    for observer in checked:
        observer.check()  # charge drift or a race raises
    fingerprint = _fingerprint(machine, result)
    fingerprint["tags"] = {
        tag: {"busy_time": repr(s.busy_time), "internal_bytes": s.internal_bytes,
              "user_bytes": s.user_bytes, "op_count": s.op_count}
        for tag, s in sorted(machine.stats.tags.items())
    }
    counters = collect_counters(machine)
    fingerprint.update({k: counters[k] for k in SELFPERF_COUNTERS})
    return fingerprint


def capture():
    frozen = {name: run_case(name) for name in CASES}
    frozen.update({name: run_sharded(name) for name in SHARDED_CASES})
    frozen["wiscsort-klv"] = run_klv()
    frozen["wiscsort-natural"] = run_natural()
    frozen.update({f"selfperf:{name}": run_selfperf(name) for name in SELFPERF_CASES})
    for name in CRASH_CASES:
        for percent in CRASH_PERCENTS:
            frozen[f"{name}:crash@{percent}%"] = run_crash(name, percent)
    return frozen


FROZEN = json.loads(FROZEN_PATH.read_text()) if FROZEN_PATH.exists() else {}


@pytest.mark.parametrize("name", sorted(CASES))
def test_merge_path_fingerprint(name):
    assert run_case(name) == FROZEN[name]


def test_klv_merge_fingerprint():
    assert run_klv() == FROZEN["wiscsort-klv"]


def test_natural_run_merge_fingerprint():
    assert run_natural() == FROZEN["wiscsort-natural"]


@pytest.mark.parametrize("percent", CRASH_PERCENTS)
@pytest.mark.parametrize("name", sorted(CRASH_CASES))
def test_crash_recovery_fingerprint(name, percent):
    assert run_crash(name, percent) == FROZEN[f"{name}:crash@{percent}%"]


@pytest.mark.parametrize("name", sorted(SHARDED_CASES))
def test_sharded_fingerprint(name):
    assert run_sharded(name) == FROZEN[name]


@pytest.mark.parametrize("leg", SELFPERF_LEGS)
@pytest.mark.parametrize("name", SELFPERF_CASES)
def test_selfperf_fingerprint(name, leg, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VECTOR", "0" if leg == "scalar" else "1")
    want = dict(FROZEN[f"selfperf:{name}"])
    if leg == "scalar":  # every solve is one model.assign, none vectored
        want["vector_solves"] = 0
    assert run_selfperf(name, SELFPERF_LEGS[leg]) == want


if __name__ == "__main__":
    FROZEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FROZEN_PATH}")
