"""End-to-end tracing: api.sort, MergePass spans, cluster, CLI, faults."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.api import RunOptions
from repro.errors import ConfigError
from repro.trace import Tracer, dumps_chrome_trace


class TestApiSort:
    def test_trace_path_writes_chrome_json(self, tmp_path):
        path = str(tmp_path / "sort.json")
        result = api.sort(RunOptions(records=2_000, trace=path))
        assert "tracer" in result.extras
        doc = json.loads(open(path).read())
        assert doc["traceEvents"]

    def test_trace_rejects_bad_type(self):
        with pytest.raises(ConfigError):
            api.sort(RunOptions(records=1_000, trace=123))

    def test_mergepass_trace_has_required_content(self, tmp_path):
        """Acceptance criteria: >= one span per sort phase, per-op device
        events with byte/class attribution, counter tracks for read bw /
        write bw / DRAM."""
        tracer = Tracer()
        result = api.sort(
            RunOptions(records=8_000, system="wiscsort-merge", trace=tracer)
        )
        assert result.extras["tracer"] is tracer
        names = set(tracer.span_names())
        assert "phase:run-generation" in names
        assert "run" in names
        assert any(n.startswith("phase:") and "merge" in n for n in names)
        assert any(n.startswith("sort:wiscsort") for n in names)
        io_ops = [rec for rec in tracer.ops if rec["kind"] == "io"]
        assert io_ops
        assert all(
            rec["bytes"] >= 0 and rec["direction"] in ("read", "write")
            for rec in io_ops
        )
        assert {rec["phase"] for rec in io_ops} >= {
            "run", "phase:final-merge"
        }
        series = {(track, name) for _, track, name, _ in tracer.counters}
        assert (Tracer.MAIN_TRACK, "read_bw") in series
        assert (Tracer.MAIN_TRACK, "write_bw") in series
        assert (Tracer.MAIN_TRACK, "dram_used") in series

    def test_traced_results_match_untraced(self):
        base = RunOptions(records=4_000, system="wiscsort-merge")
        untraced = api.sort(base)
        traced = api.sort(base.replace(trace=Tracer()))
        assert traced.total_time == untraced.total_time
        assert traced.internal_read == untraced.internal_read
        assert traced.internal_written == untraced.internal_written
        assert traced.phases == untraced.phases


class TestDeterminism:
    def test_same_seed_runs_export_byte_identical_json(self):
        """Satellite: piggyback trace capture on verify_determinism."""
        from repro.analysis.sanitizer import verify_determinism

        tracers = []

        def run(san):
            tracer = Tracer()
            tracers.append(tracer)
            return api.sort(RunOptions(
                records=3_000,
                system="wiscsort-merge",
                seed=7,
                sanitizer=san,
                trace=tracer,
            ))

        report = verify_determinism(run, runs=2)
        assert report.ok
        dumps = [dumps_chrome_trace(t) for t in tracers]
        assert dumps[0] == dumps[1]


class TestFaultTracing:
    def test_transient_fault_emits_fault_and_retry_instants(self):
        tracer = Tracer()
        api.sort(RunOptions(records=2_000, faults="transient@op:2", trace=tracer))
        names = [ev["name"] for ev in tracer.instants]
        assert "fault" in names
        assert "retry" in names
        fault = next(ev for ev in tracer.instants if ev["name"] == "fault")
        assert fault["track"] == "faults"
        assert fault["args"]["transient"] is True


def _traced_cluster(jobs=3, shards=2):
    from repro.cluster import Cluster, SortService
    from tests.conftest import batch_trace

    cluster = Cluster(shards=shards, dram_budget=64 << 20)
    tracer = cluster.install_tracer()
    SortService(cluster, policy="fifo").serve(batch_trace(*[
        dict(name=f"job{j:02d}", records=2_000, seed=j, tenant=f"t{j % 2}")
        for j in range(jobs)
    ]))
    return cluster, tracer


class TestClusterTracing:
    def test_scheduler_spans_and_queue_depth(self):
        cluster, tracer = _traced_cluster()
        names = set(tracer.span_names())
        assert {"service:job00", "service:job01", "service:job02"} <= names
        series = {(track, name) for _, track, name, _ in tracer.counters}
        assert ("service", "queue_depth") in series
        assert ("cluster", "dram_used") in series
        admits = [ev for ev in tracer.instants if ev["name"] == "admit"]
        assert len(admits) == 3

    def test_ops_attribute_to_shard_tracks(self):
        cluster, tracer = _traced_cluster()
        tracks = {rec["track"] for rec in tracer.ops if rec["kind"] == "io"}
        assert tracks == {shard.domain for shard in cluster.shards}
        series = {(track, name) for _, track, name, _ in tracer.counters}
        for shard in cluster.shards:
            assert (shard.domain, "read_bw") in series


class TestClusterCounters:
    def test_collect_cluster_counters_namespaces_shards(self):
        """Satellite: per-shard counter namespacing on a Cluster."""
        from repro.perf import collect_cluster_counters

        cluster, _ = _traced_cluster()
        counters = collect_cluster_counters(cluster)
        assert counters["ops_completed"] > 0
        for shard in cluster.shards:
            assert counters[f"{shard.domain}.device_bytes_read"] > 0
            assert f"{shard.domain}.intervals_observed" in counters
        shared = [k for k in counters if "." not in k]
        assert "sim_seconds" in shared


class TestCli:
    def test_sort_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.json")
        rc = main(
            [
                "sort", "--records", "2000", "--trace", path,
                "--trace-rollup",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace  :" in out
        assert "phase rollup" in out
        assert json.loads(open(path).read())["traceEvents"]

    def test_trace_report_command(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.json")
        assert main(["sort", "--records", "2000", "--trace", path]) == 0
        capsys.readouterr()
        assert main(["trace-report", path]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "span" in out

    def test_trace_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["trace-report", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "trace-report:" in capsys.readouterr().err

    def test_cluster_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cluster.json")
        rc = main(
            [
                "cluster", "--shards", "2", "--jobs", "2",
                "--records-per-job", "2000", "--trace", path,
            ]
        )
        assert rc == 0
        assert "trace  :" in capsys.readouterr().out
        doc = json.loads(open(path).read())
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert "service" in names
