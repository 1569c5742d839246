"""Sortedness under everything, sharded slice (ROADMAP correctness 1).

``ShardedWiscSort`` has one driver -- a fresh run is a recovery from no
manifests and speculation is one more caller of the same sort attempt --
so one strategy reaches the fresh, resumed and speculative paths: draw a
cluster shape, spares admitted before or during the run, a per-shard
system and up to two crashes plus straggler windows, and whatever
happens the run must end validated, byte-identical to single-device
WiscSort, with every crash recovered and nothing on any shard but the
outputs (the chaos suite's end-of-run check).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, Tuple, Union

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.core.base import SortConfig
from repro.faults import parse_fault_spec, run_with_faults
from repro.records.format import RecordFormat
from repro.units import KiB

from tests.cluster.test_chaos import N_RECORDS, _merged_output, _reference
from tests.conftest import _PMEM

FMT = RecordFormat()
SMALL = SortConfig(read_buffer=16 * KiB, write_buffer=8 * KiB)


class Scenario(NamedTuple):
    seed: int
    shards: int
    #: One entry per spare: None admits it before the run, a float at
    #: that fraction of the fault-free duration T.
    spares: Tuple[Union[None, float], ...]
    system: str
    small_buffers: bool
    #: Fault spec; ``<x>T`` stands for x times T.
    spec: str


def _build(scenario):
    config = SMALL if scenario.small_buffers else SortConfig()
    cluster = Cluster(shards=scenario.shards, profile=_PMEM, config=config)
    data = generate_cluster_dataset(
        cluster, "input", N_RECORDS, FMT, seed=scenario.seed
    )
    system = ShardedWiscSort(
        FMT, config=config, system=scenario.system, checkpoint=True
    )
    return cluster, data, system


@lru_cache(maxsize=None)
def _duration(seed, shards, system, small_buffers):
    cluster, data, sorter = _build(
        Scenario(seed, shards, (), system, small_buffers, "")
    )
    sorter.run(cluster, data, validate=False)
    return cluster.now


@lru_cache(maxsize=None)
def _single_device(seed):
    return _reference(_PMEM, N_RECORDS, FMT, seed)


@st.composite
def scenarios(draw):
    shards = draw(st.integers(2, 4))
    spares = tuple(
        draw(st.lists(
            st.none() | st.integers(5, 90).map(lambda pct: pct / 100),
            max_size=2,
        ))
    )
    targets = st.integers(0, shards + len(spares) - 1)
    crash = st.builds(
        "shard{}:crash@{}".format,
        targets,
        st.integers(2, 120).map(lambda pct: f"t:{pct / 100}T")
        | st.integers(1, 40).map("op:{}".format),
    )
    slow = st.builds(
        "shard{}:slow@t:{}T+100T:x{}".format,
        targets,
        st.integers(5, 90).map(lambda pct: pct / 100),
        st.sampled_from((0.02, 0.05, 0.1, 0.5)),
    )
    tokens = draw(st.lists(crash, max_size=2)) + draw(st.lists(slow, max_size=2))
    return Scenario(
        seed=draw(st.sampled_from((101, 202, 303))),
        shards=shards,
        spares=spares,
        system=draw(st.sampled_from(("wiscsort", "wiscsort-merge"))),
        small_buffers=draw(st.booleans()),
        spec=",".join(tokens),
    )


# The two crash instants that broke the per-path scrubs: a crash while a
# speculative staging copy is in flight (``.stage0.spec`` leaked; the
# instant is derived, and asserted in flight, by the chaos suite's
# ``test_crash_under_speculation_leaves_no_copy``), and one between a
# speculative winner's rename and its manifest commit (``.shard0`` ended
# up on two shards).  The third makes a spare do the only work a spare
# ever gets -- two stragglers, one finished home -- and crashes it
# mid-sort.
@example(Scenario(202, 2, (), "wiscsort", False,
                  "shard0:crash@t:8.916213348440961e-05"))
@example(Scenario(101, 3, (), "wiscsort", False,
                  "shard0:slow@t:3.04677e-05+0.00553958:x0.05,"
                  "shard1:crash@op:14"))
@example(Scenario(101, 3, (None,), "wiscsort", False,
                  "shard0:slow@t:0.3T+100T:x0.05,shard1:slow@t:0.3T+100T:x0.05,"
                  "shard3:crash@op:3"))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_sharded_sort_survives_everything(scenario):
    total = _duration(
        scenario.seed, scenario.shards, scenario.system, scenario.small_buffers
    )
    cluster, data, system = _build(scenario)
    for at in scenario.spares:
        if at is None:
            cluster.add_shard()
        else:
            cluster.engine.call_at(at * total, cluster.add_shard)
    spec = re.sub(
        r"([0-9.]+)T", lambda m: repr(float(m[1]) * total), scenario.spec
    )
    plan = parse_fault_spec(spec, seed=scenario.seed) if spec else None
    result, report = run_with_faults(system, cluster, data, plan=plan)
    assert result.validated
    assert report.crashes == report.recoveries
    merged = _merged_output(cluster, scenario.shards)
    assert np.array_equal(merged, _single_device(scenario.seed))
