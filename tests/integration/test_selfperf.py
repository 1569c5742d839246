"""Determinism guards and self-performance instrumentation tests.

The kernel optimisations (rate-model memoization, op batching, the
frontier merge loop) are only admissible if they do not change simulated
results.  These tests pin that down end-to-end on a WiscSort MergePass
workload, and exercise the ``repro.perf`` profiler / counters.
"""

from __future__ import annotations

import pytest

from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
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


def run_mergepass(memoize_rates=True, batch_ops=False, background=0):
    machine = Machine(memoize_rates=memoize_rates, batch_ops=batch_ops)
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


def stats_snapshot(machine):
    return {
        tag: (s.busy_time, s.internal_bytes, s.user_bytes, s.op_count)
        for tag, s in machine.stats.tags.items()
    }


class TestMemoizationDeterminism:
    @staticmethod
    def check_memoize_on_off() -> int:
        """Compare a memoized and an unmemoized run; returns memo hits."""
        m_on, r_on, out_on = run_mergepass(memoize_rates=True)
        m_off, r_off, out_off = run_mergepass(memoize_rates=False)
        assert m_off.rate_model.cache_hits == 0
        assert r_on.total_time == r_off.total_time
        assert out_on == out_off
        assert m_on.stats.timeline == m_off.stats.timeline
        assert stats_snapshot(m_on) == stats_snapshot(m_off)
        assert float(r_on.internal_read) == float(r_off.internal_read)
        assert float(r_on.internal_written) == float(r_off.internal_written)
        return m_on.rate_model.cache_hits

    def test_memoize_on_off_identical_results(self, monkeypatch):
        # The memo canonicalises op order before the waterfill, so the
        # cached and uncached paths must agree bit-for-bit: identical
        # completion times, identical interval timeline, identical
        # DeviceStats -- not merely approximately equal.  With the
        # vector protocol off the model's memo serves every repeated
        # population; by default the scheduler's group tables sit in
        # front of it and ask the model about each population once.
        monkeypatch.setenv("REPRO_SIM_VECTOR", "0")
        assert self.check_memoize_on_off() > 0
        monkeypatch.setenv("REPRO_SIM_VECTOR", "1")
        self.check_memoize_on_off()

    def test_memoize_hit_rate_on_steady_state_mergepass(self):
        # Acceptance criterion: rate memoization must be observably
        # effective -- on a steady-state MergePass at least 80% of the
        # solves are answered without running the waterfill.  Since the
        # group tables sit in front of the model's own LRU, the model
        # only sees table misses; a model-side miss is a waterfill run.
        machine, _result, _out = run_mergepass(background=2)
        counters = collect_counters(machine)
        solves = counters["vector_solves"] + counters["scalar_fallbacks"]
        assert solves == counters["rerate_calls"] > 1_000
        assert counters["rate_cache_misses"] <= 0.2 * solves


class TestBatchingEquivalence:
    def test_batch_ops_equivalent_results(self):
        # Coalescing homogeneous parallel ops changes float summation
        # order, so times are equivalent to ~1e-9 relative rather than
        # bit-identical; data results must match exactly.
        m_plain, r_plain, out_plain = run_mergepass(batch_ops=False)
        m_batch, r_batch, out_batch = run_mergepass(batch_ops=True)
        assert m_batch.engine.batched_ops > 0
        assert m_plain.engine.batched_ops == 0
        assert out_plain == out_batch
        assert r_batch.total_time == pytest.approx(r_plain.total_time, rel=1e-9)
        for tag, (busy, internal, user, ops) in stats_snapshot(m_plain).items():
            busy_b, internal_b, user_b, _ops_b = stats_snapshot(m_batch)[tag]
            assert busy_b == pytest.approx(busy, rel=1e-9, abs=1e-15)
            assert internal_b == pytest.approx(internal, rel=1e-9, abs=1e-6)
            assert user_b == user


class TestPerfInstrumentation:
    def test_collect_counters_keys_and_consistency(self):
        machine, result, _out = run_mergepass()
        c = collect_counters(machine)
        assert c["sim_seconds"] == pytest.approx(result.total_time)
        assert c["ops_added"] == c["ops_completed"]
        assert c["engine_steps"] > 0
        assert c["clock_advances"] > 0
        assert c["intervals_observed"] == len(machine.stats.timeline)
        hits, misses = c["rate_cache_hits"], c["rate_cache_misses"]
        assert c["rate_cache_hit_rate"] == pytest.approx(hits / (hits + misses))

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
        assert "rate memo" in report
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
        assert "rate memo" in out

    def test_cli_no_memoize_flag_disables_cache(self, capsys):
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
                "--no-memoize",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "disabled / unused" in out


# The exact key sets of the one counter surface, captured at the commit
# before the typed registry was deleted.  The cluster tuples are that
# capture unchanged.  The machine tuples differ from it by what sharing
# the cluster's device block and fault rule gives a machine snapshot:
# ``device_bytes_read`` / ``device_bytes_written`` and
# ``fault_by_kind.*`` are new, and ``fault_injected`` is now spelled
# ``fault_faults_injected`` as on a shard.
_MACHINE_KEYS = (
    "batched_ops", "clock_advances", "device_bytes_read",
    "device_bytes_written", "engine_steps", "intervals_observed", "ops_added",
    "ops_completed", "ops_rerated", "rate_cache_hit_rate", "rate_cache_hits",
    "rate_cache_misses", "rate_changes", "rerate_calls", "scalar_fallbacks",
    "sim_seconds", "timer_events", "vector_batch_size_avg", "vector_solves",
)
_MACHINE_FAULT_KEYS = (
    "batched_ops", "clock_advances", "device_bytes_read",
    "device_bytes_written", "engine_steps", "fault_backoff_seconds",
    "fault_by_kind.TransientDeviceError", "fault_crashes",
    "fault_faults_injected", "fault_ops_seen", "fault_recoveries",
    "fault_redone_bytes", "fault_retries", "fault_retries_exhausted",
    "fault_salvaged_bytes", "fault_slow_windows",
    "fault_torn_bytes_discarded", "fault_torn_writes", "intervals_observed",
    "ops_added", "ops_completed", "ops_rerated", "rate_cache_hit_rate",
    "rate_cache_hits", "rate_cache_misses", "rate_changes", "rerate_calls",
    "scalar_fallbacks", "sim_seconds", "timer_events",
    "vector_batch_size_avg", "vector_solves",
)
_CLUSTER_KEYS = (
    "batched_ops", "clock_advances", "engine_steps", "ops_added",
    "ops_cancelled", "ops_completed", "ops_rerated", "rate_changes",
    "rerate_calls", "scalar_fallbacks", "shard0.device_bytes_read",
    "shard0.device_bytes_written", "shard0.intervals_observed",
    "shard0.rate_cache_hit_rate", "shard0.rate_cache_hits",
    "shard0.rate_cache_misses", "shard1.device_bytes_read",
    "shard1.device_bytes_written", "shard1.intervals_observed",
    "shard1.rate_cache_hit_rate", "shard1.rate_cache_hits",
    "shard1.rate_cache_misses", "shuffle_bytes_network", "sim_seconds",
    "timer_events", "vector_batch_size_avg", "vector_solves",
)
_CLUSTER_CHAOS_KEYS = (
    "batched_ops", "clock_advances", "cluster.fault_backoff_seconds",
    "cluster.fault_crashes", "cluster.fault_faults_injected",
    "cluster.fault_ops_seen", "cluster.fault_recoveries",
    "cluster.fault_redone_bytes", "cluster.fault_retries",
    "cluster.fault_retries_exhausted", "cluster.fault_salvaged_bytes",
    "cluster.fault_slow_windows", "cluster.fault_torn_bytes_discarded",
    "cluster.fault_torn_writes", "engine_steps", "ops_added", "ops_cancelled",
    "ops_completed", "ops_rerated", "rate_changes", "rerate_calls",
    "scalar_fallbacks", "shard0.device_bytes_read",
    "shard0.device_bytes_written", "shard0.fault_backoff_seconds",
    "shard0.fault_crashes", "shard0.fault_faults_injected",
    "shard0.fault_ops_seen", "shard0.fault_recoveries",
    "shard0.fault_redone_bytes", "shard0.fault_retries",
    "shard0.fault_retries_exhausted", "shard0.fault_salvaged_bytes",
    "shard0.fault_slow_windows", "shard0.fault_torn_bytes_discarded",
    "shard0.fault_torn_writes", "shard0.intervals_observed",
    "shard0.rate_cache_hit_rate", "shard0.rate_cache_hits",
    "shard0.rate_cache_misses", "shard1.device_bytes_read",
    "shard1.device_bytes_written", "shard1.fault_backoff_seconds",
    "shard1.fault_crashes", "shard1.fault_faults_injected",
    "shard1.fault_ops_seen", "shard1.fault_recoveries",
    "shard1.fault_redone_bytes", "shard1.fault_retries",
    "shard1.fault_retries_exhausted", "shard1.fault_salvaged_bytes",
    "shard1.fault_slow_windows", "shard1.fault_torn_bytes_discarded",
    "shard1.fault_torn_writes", "shard1.intervals_observed",
    "shard1.rate_cache_hit_rate", "shard1.rate_cache_hits",
    "shard1.rate_cache_misses", "shards_recovered", "shuffle_bytes_network",
    "sim_seconds", "speculative_issues", "speculative_wins", "timer_events",
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
