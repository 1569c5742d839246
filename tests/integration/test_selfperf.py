"""Rate-memo effectiveness and self-performance instrumentation tests.

The fluid kernel's per-group rate tables are the simulator's one rate
memo; these tests check on a WiscSort MergePass workload that they
absorb repeated solves, and exercise the ``repro.perf`` profiler /
counters.  That the tables change no simulated result is the business
of the frozen fingerprints and ``tests/test_vector_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.device.device import BraidRateModel
from repro.machine import Machine
from repro.api import RunOptions, sort
from repro.perf import (
    SelfPerfProfiler,
    collect_cluster_counters,
    collect_counters,
    render_report,
)
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.units import KiB
from repro.workloads.background import BackgroundClients

RECORDS = 30_000


def run_mergepass(background=0):
    machine = Machine()
    fmt = RecordFormat()
    data = generate_dataset(machine, "input", RECORDS, fmt, seed=7)
    if background:
        BackgroundClients(machine, background, "write").start()
    cfg = SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB)
    system = WiscSort(
        fmt, config=cfg, force_merge_pass=True, merge_chunk_entries=1_000
    )
    result = system.run(machine, data, validate=False)
    output = machine.fs.open(result.output_name).peek().tobytes()
    return machine, result, output


@pytest.mark.parametrize("vector", [None, "0"], ids=["default", "reference"])
def test_rate_tables_absorb_repeated_solves(monkeypatch, vector):
    # The rate memo must be observably effective: on a steady-state
    # MergePass the default kernel's group tables answer at least 80% of
    # the solves without running the waterfill (BraidRateModel.assign).
    # The reference kernel (REPRO_SIM_VECTOR=0) memoizes nothing and
    # runs it exactly once per solve.
    if vector is None:
        monkeypatch.delenv("REPRO_SIM_VECTOR", raising=False)
    else:
        monkeypatch.setenv("REPRO_SIM_VECTOR", vector)
    calls = []
    assign = BraidRateModel.assign

    def counted(self, ops):
        calls.append(None)
        return assign(self, ops)

    monkeypatch.setattr(BraidRateModel, "assign", counted)
    machine, _result, _out = run_mergepass(background=2)
    counters = collect_counters(machine)
    # A standalone machine is one resource group: one solve per re-rate.
    solves = counters["rerate_calls"]
    assert solves > 1_000
    if vector is None:
        assert counters["vector_solves"] == solves
        assert len(calls) <= 0.2 * solves
    else:
        assert counters["vector_solves"] == 0
        assert len(calls) == solves


class TestPerfInstrumentation:
    def test_collect_counters_keys_and_consistency(self):
        machine, result, _out = run_mergepass()
        c = collect_counters(machine)
        assert c["sim_seconds"] == pytest.approx(result.total_time)
        assert c["ops_added"] == c["ops_completed"]
        assert c["engine_steps"] > 0
        assert c["clock_advances"] > 0
        assert c["intervals_observed"] == len(machine.stats.timeline)

    def test_profiler_phases_accumulate_and_render(self):
        machine, _result, _out = run_mergepass()
        prof = SelfPerfProfiler()
        with prof.phase("a"):
            pass
        with prof.phase("b"):
            pass
        with prof.phase("a"):
            pass
        assert list(prof.phases) == ["a", "b"]
        assert prof.total_wall >= 0.0
        report = render_report(machine, prof)
        assert "simulator self-performance" in report
        assert "re-rating" in report
        assert "throughput" in report

    def test_profiler_nested_same_name_counts_once(self, monkeypatch):
        # Regression: re-entering an open phase name used to double-count
        # the overlapped wall time.  With a fake clock that advances 1.0
        # per reading, the old code charged (inner) 1.0 + (outer) 3.0;
        # nesting-safe accounting charges the outermost elapsed once.
        import repro.perf.profiler as profiler_mod

        class FakeTime:
            def __init__(self):
                self.t = 0.0

            def perf_counter(self):
                self.t += 1.0
                return self.t

        monkeypatch.setattr(profiler_mod, "time", FakeTime())
        prof = SelfPerfProfiler()
        with prof.phase("a"):
            with prof.phase("a"):
                pass
        assert prof.phases["a"] == 1.0
        # Non-nested re-entry still accumulates, and first-entry order
        # is preserved.
        with prof.phase("b"):
            pass
        with prof.phase("a"):
            pass
        assert list(prof.phases) == ["a", "b"]
        assert prof.phases["a"] == 2.0

    def test_cli_selfperf_flag(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "sort",
                "--records",
                "5000",
                "--system",
                "wiscsort",
                "--no-validate",
                "--selfperf",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulator self-performance" in out
        assert "re-rating" in out


# The exact key sets of the one counter surface, captured at the commit
# before the typed registry was deleted, less ``batched_ops`` and the
# per-device ``rate_cache_*`` keys, whose counters went with the op
# coalescing and the rate model's own memo.  The cluster tuples are that
# capture otherwise unchanged.  The machine tuples differ from it by
# what sharing the cluster's device block and fault rule gives a machine
# snapshot: ``device_bytes_read`` / ``device_bytes_written`` and
# ``fault_by_kind.*`` are new, and ``fault_injected`` is now spelled
# ``fault_faults_injected`` as on a shard.
_MACHINE_KEYS = (
    "clock_advances", "device_bytes_read", "device_bytes_written",
    "engine_steps", "intervals_observed", "ops_added", "ops_completed",
    "ops_rerated", "rate_changes", "rerate_calls", "scalar_fallbacks",
    "sim_seconds", "timer_events", "vector_batch_size_avg", "vector_solves",
)
_MACHINE_FAULT_KEYS = (
    "clock_advances", "device_bytes_read", "device_bytes_written",
    "engine_steps", "fault_backoff_seconds",
    "fault_by_kind.TransientDeviceError", "fault_crashes",
    "fault_faults_injected", "fault_ops_seen", "fault_recoveries",
    "fault_redone_bytes", "fault_retries", "fault_retries_exhausted",
    "fault_salvaged_bytes", "fault_slow_windows", "fault_torn_bytes_discarded",
    "fault_torn_writes", "intervals_observed", "ops_added", "ops_completed",
    "ops_rerated", "rate_changes", "rerate_calls", "scalar_fallbacks",
    "sim_seconds", "timer_events", "vector_batch_size_avg", "vector_solves",
)
_CLUSTER_KEYS = (
    "clock_advances", "engine_steps", "ops_added", "ops_cancelled",
    "ops_completed", "ops_rerated", "rate_changes", "rerate_calls",
    "scalar_fallbacks", "shard0.device_bytes_read",
    "shard0.device_bytes_written", "shard0.intervals_observed",
    "shard1.device_bytes_read", "shard1.device_bytes_written",
    "shard1.intervals_observed", "shuffle_bytes_network", "sim_seconds",
    "timer_events", "vector_batch_size_avg", "vector_solves",
)
_CLUSTER_CHAOS_KEYS = (
    "clock_advances", "cluster.fault_backoff_seconds", "cluster.fault_crashes",
    "cluster.fault_faults_injected", "cluster.fault_ops_seen",
    "cluster.fault_recoveries", "cluster.fault_redone_bytes",
    "cluster.fault_retries", "cluster.fault_retries_exhausted",
    "cluster.fault_salvaged_bytes", "cluster.fault_slow_windows",
    "cluster.fault_torn_bytes_discarded", "cluster.fault_torn_writes",
    "engine_steps", "ops_added", "ops_cancelled", "ops_completed",
    "ops_rerated", "rate_changes", "rerate_calls", "scalar_fallbacks",
    "shard0.device_bytes_read", "shard0.device_bytes_written",
    "shard0.fault_backoff_seconds", "shard0.fault_crashes",
    "shard0.fault_faults_injected", "shard0.fault_ops_seen",
    "shard0.fault_recoveries", "shard0.fault_redone_bytes",
    "shard0.fault_retries", "shard0.fault_retries_exhausted",
    "shard0.fault_salvaged_bytes", "shard0.fault_slow_windows",
    "shard0.fault_torn_bytes_discarded", "shard0.fault_torn_writes",
    "shard0.intervals_observed", "shard1.device_bytes_read",
    "shard1.device_bytes_written", "shard1.fault_backoff_seconds",
    "shard1.fault_crashes", "shard1.fault_faults_injected",
    "shard1.fault_ops_seen", "shard1.fault_recoveries",
    "shard1.fault_redone_bytes", "shard1.fault_retries",
    "shard1.fault_retries_exhausted", "shard1.fault_salvaged_bytes",
    "shard1.fault_slow_windows", "shard1.fault_torn_bytes_discarded",
    "shard1.fault_torn_writes", "shard1.intervals_observed",
    "shards_recovered", "shuffle_bytes_network", "sim_seconds",
    "speculative_issues", "speculative_wins", "timer_events",
    "vector_batch_size_avg", "vector_solves",
)


class TestCounterKeysFrozen:
    @pytest.mark.parametrize(
        "shards, faults, expected",
        [
            (None, None, _MACHINE_KEYS),
            (None, "transient@op:1,seed:3", _MACHINE_FAULT_KEYS),
            (2, None, _CLUSTER_KEYS),
            (2, "shard1:crash@50%", _CLUSTER_CHAOS_KEYS),
        ],
    )
    def test_counter_key_sets(self, shards, faults, expected):
        records = 6000 if shards else 3000
        result = sort(RunOptions(records=records, faults=faults), shards=shards)
        if shards:
            counters = collect_cluster_counters(result.extras["cluster"])
        else:
            counters = collect_counters(result.extras["machine"])
        assert tuple(sorted(counters)) == expected
