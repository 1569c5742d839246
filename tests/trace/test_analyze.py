"""Tests for the critical-path analyzer, what-if projector and trace-diff."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from repro import api
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.device.curves import ScalingCurve
from repro.device.profiles import bard_device_profile
from repro.errors import ConfigError, SchemaMismatchError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.trace import (
    CATEGORIES,
    CriticalPath,
    Tracer,
    analyze_tracer,
    diff_reports,
    render_diff,
)
from repro.trace.analyze import parse_what_if


def _analyzed_sort(records=50_000, dram_budget=600_000, seed=7, **kw):
    tracer = Tracer(analyze=True)
    result = api.sort(api.RunOptions(
        records=records, seed=seed, dram_budget=dram_budget, trace=tracer,
        **kw,
    ))
    return result, tracer


def _canonical_sum(components):
    total = 0.0
    for cat in CATEGORIES:
        total = total + components[cat]
    return total


class TestDecomposition:
    def test_components_sum_exactly_to_span_time(self):
        # MergePass (tight DRAM budget): two phases plus the root span.
        _result, tracer = _analyzed_sort()
        report = analyze_tracer(tracer)
        assert len(report.phases) >= 3  # sort root + run-gen + merge
        for ph in report.phases:
            assert _canonical_sum(ph.components) == ph.duration
            for cat in CATEGORIES:
                assert ph.components[cat] >= 0.0 or cat == "cpu"

    def test_root_span_matches_total_time(self):
        result, tracer = _analyzed_sort()
        report = analyze_tracer(tracer)
        root = next(p for p in report.phases if p.name.startswith("sort:"))
        assert root.duration == pytest.approx(result.total_time, rel=1e-12)

    def test_device_busy_dominates_io_bound_sort(self):
        _result, tracer = _analyzed_sort()
        report = analyze_tracer(tracer)
        root = next(p for p in report.phases if p.name.startswith("sort:"))
        assert root.components["device_busy"] > 0.5 * root.duration

    def test_blame_names_read_and_write_directions(self):
        _result, tracer = _analyzed_sort()
        report = analyze_tracer(tracer)
        root = next(p for p in report.phases if p.name.startswith("sort:"))
        blames = {blame for _cat, blame, _secs in root.blame}
        assert "machine:read" in blames
        assert "machine:write" in blames

    def test_requires_analyze_armed_tracer(self):
        with pytest.raises(ConfigError, match="not armed"):
            analyze_tracer(Tracer())

    def test_observe_only_results_bit_identical(self):
        base = api.sort(api.RunOptions(records=20_000, seed=7,
                                       dram_budget=600_000))
        result, _tracer = _analyzed_sort(records=20_000)
        assert result.total_time == base.total_time
        assert result.internal_written == base.internal_written

    def test_two_same_seed_reports_byte_identical(self):
        _r1, t1 = _analyzed_sort()
        _r2, t2 = _analyzed_sort()
        a, b = analyze_tracer(t1), analyze_tracer(t2)
        assert a.to_json() == b.to_json()
        assert a.render() == b.render()

    def test_render_mentions_every_category(self):
        _result, tracer = _analyzed_sort(records=5_000, dram_budget=None)
        text = analyze_tracer(tracer).render()
        for cat in CATEGORIES:
            assert cat in text


class TestBlockedReasons:
    """Synthetic workloads driving each wait kind through the walk."""

    def test_dram_reason_becomes_dram_stall(self, pmem):
        from repro.device.profile import Pattern
        from repro.sim.engine import Join, Spawn

        machine = Machine(profile=pmem)
        tracer = Tracer(analyze=True).install(machine)
        sem = machine.semaphore(0, name="budget", reason="dram")

        def releaser():
            yield machine.io("write", Pattern.SEQ, 1 << 20, tag="w")
            sem.release()

        def waiter():
            rel = yield Spawn(releaser())
            with machine.trace_span("phase:stall"):
                yield sem.acquire()
            yield Join(rel)

        machine.run(waiter())
        report = analyze_tracer(tracer)
        ph = report.phase("phase:stall")
        assert ph.duration > 0
        assert ph.components["dram_stall"] == ph.duration
        assert _canonical_sum(ph.components) == ph.duration

    def test_plain_semaphore_reason_is_queueing(self, pmem):
        from repro.device.profile import Pattern
        from repro.sim.engine import Join, Spawn

        machine = Machine(profile=pmem)
        tracer = Tracer(analyze=True).install(machine)
        sem = machine.semaphore(0, name="slot", reason="write-slot")

        def releaser():
            yield machine.io("read", Pattern.SEQ, 1 << 20, tag="r")
            sem.release()

        def waiter():
            rel = yield Spawn(releaser())
            with machine.trace_span("phase:queued"):
                yield sem.acquire()
            yield Join(rel)

        machine.run(waiter())
        ph = analyze_tracer(tracer).phase("phase:queued")
        assert ph.duration > 0
        assert ph.components["queueing"] == ph.duration
        assert ("queueing", "write-slot") in {
            (cat, blame) for cat, blame, _ in ph.blame
        }

    def test_join_descends_into_last_finishing_child(self, pmem):
        from repro.device.profile import Pattern
        from repro.sim.engine import Join, Spawn

        machine = Machine(profile=pmem)
        tracer = Tracer(analyze=True).install(machine)

        def child(nbytes, direction, tag):
            yield machine.io(direction, Pattern.SEQ, nbytes, tag=tag)

        def parent():
            with machine.trace_span("phase:fanout"):
                fast = yield Spawn(child(1 << 16, "read", "r"))
                slow = yield Spawn(child(8 << 20, "write", "w"))
                yield Join([fast, slow])

        machine.run(parent())
        ph = analyze_tracer(tracer).phase("phase:fanout")
        # The slow writer is the binding constraint: its device time
        # dominates the join window.
        assert ph.components["device_busy"] > 0.0
        blames = {blame for _cat, blame, _ in ph.blame}
        assert any(b.endswith(":write") for b in blames)
        assert _canonical_sum(ph.components) == ph.duration

    def test_sleep_counts_as_queueing(self, pmem):
        from repro.sim.engine import Sleep

        machine = Machine(profile=pmem)
        tracer = Tracer(analyze=True).install(machine)

        def sleeper():
            with machine.trace_span("phase:nap"):
                yield Sleep(1e-3)

        machine.run(sleeper())
        ph = analyze_tracer(tracer).phase("phase:nap")
        assert ph.components["queueing"] == pytest.approx(1e-3)
        assert ("queueing", "sleep") in {
            (cat, blame) for cat, blame, _ in ph.blame
        }


class TestWhatIf:
    def test_parse_bw_grammar(self):
        wi = parse_what_if("braid.write_bw*2")
        assert (wi.kind, wi.metric, wi.factor, wi.scope) == \
            ("bw", "write_bw", 2.0, "braid")
        wi = parse_what_if("read_bw*1.5")
        assert wi.scope is None and wi.factor == 1.5
        assert parse_what_if("net_bw*4").metric == "net_bw"

    def test_parse_dram_grammar(self):
        assert parse_what_if("dram+4GiB").extra_bytes == 4 * 2**30
        assert parse_what_if("dram+512MiB").extra_bytes == 512 * 2**20
        assert parse_what_if("dram+2").extra_bytes == 2 * 2**30  # GiB default

    @pytest.mark.parametrize("expr", [
        "write_bw*0", "write_bw*-2", "bogus*2", "dram+0B", "dram-4GiB", "",
    ])
    def test_parse_rejects_garbage(self, expr):
        with pytest.raises(ConfigError):
            parse_what_if(expr)

    def test_write_bw_projection_matches_actual_rerun(self):
        """Acceptance: 2x write bandwidth on BRAID, projection within
        15% of the measured speedup of an actual re-run."""
        fmt = RecordFormat()

        def run(profile, tracer=None):
            machine = Machine(profile=profile)
            if tracer is not None:
                tracer.install(machine)
            data = generate_dataset(machine, "input", 50_000, fmt, seed=11)
            return WiscSort(fmt, config=SortConfig()).run(
                machine, data, validate=False
            )

        profile = bard_device_profile()
        tracer = Tracer(analyze=True)
        base = run(profile, tracer)
        report = analyze_tracer(tracer)
        projection = report.what_if("write_bw*2")
        projected = next(
            row for row in projection["phases"]
            if row["name"].startswith("sort:")
        )["speedup"]

        doubled = dataclasses.replace(
            profile,
            write=ScalingCurve(list(zip(
                profile.write._threads,
                [bw * 2 for bw in profile.write._bandwidth],
            ))),
        )
        faster = run(doubled)
        actual = base.total_time / faster.total_time
        assert actual > 1.2  # the workload is genuinely write-bound
        assert abs(projected - actual) / actual < 0.15

    def test_unaffected_hypothesis_projects_no_speedup(self):
        _result, tracer = _analyzed_sort(records=5_000, dram_budget=None)
        report = analyze_tracer(tracer)
        projection = report.what_if("net_bw*4")  # standalone: no net ops
        for row in projection["phases"]:
            assert row["speedup"] == 1.0
            assert row["projected"] == row["duration"]

    def test_render_what_if_is_deterministic(self):
        _result, tracer = _analyzed_sort(records=5_000, dram_budget=None)
        report = analyze_tracer(tracer)
        a = report.render_what_if(report.what_if("write_bw*2"))
        b = report.render_what_if(report.what_if("write_bw*2"))
        assert a == b and "speedup" in a


class TestDiff:
    def _report_doc(self):
        _result, tracer = _analyzed_sort(records=5_000, dram_budget=None)
        return analyze_tracer(tracer).as_dict()

    def test_self_diff_is_clean(self):
        doc = self._report_doc()
        diff = diff_reports(doc, json.loads(json.dumps(doc)))
        assert diff["regressions"] == []
        assert diff["improvements"] == []
        assert diff["missing"] == []

    def test_regression_detected_above_threshold(self):
        doc_a = self._report_doc()
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["phases"][0]["duration"] *= 1.5
        diff = diff_reports(doc_a, doc_b, threshold=0.05)
        assert len(diff["regressions"]) == 1
        assert diff["regressions"][0]["name"] == doc_a["phases"][0]["name"]
        assert "REGRESSION" in render_diff(diff)

    def test_improvement_detected_below_threshold(self):
        doc_a = self._report_doc()
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["phases"][0]["duration"] *= 0.5
        diff = diff_reports(doc_a, doc_b, threshold=0.05)
        assert diff["regressions"] == []
        assert len(diff["improvements"]) == 1

    def test_missing_schema_is_typed_error(self):
        doc = self._report_doc()
        naked = {k: v for k, v in doc.items() if k != "schema"}
        with pytest.raises(SchemaMismatchError, match="no 'schema'"):
            diff_reports(naked, doc)
        with pytest.raises(SchemaMismatchError):
            diff_reports(doc, naked)

    def test_schema_version_mismatch_rejected(self):
        doc_a = self._report_doc()
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["schema"] = 99
        with pytest.raises(SchemaMismatchError, match="v1.*v99"):
            diff_reports(doc_a, doc_b)

    def test_kind_mismatch_rejected(self):
        doc = self._report_doc()
        service = {"schema": 1, "makespan": 1.0, "percentiles": {}}
        with pytest.raises(SchemaMismatchError, match="kinds differ"):
            diff_reports(doc, service)

    def test_service_documents_diff_on_percentiles(self):
        a = {"schema": 1, "makespan": 1.0,
             "percentiles": {"latency": {"p99": 0.01}}}
        b = json.loads(json.dumps(a))
        b["percentiles"]["latency"]["p99"] = 0.05
        diff = diff_reports(a, b)
        assert [r["name"] for r in diff["regressions"]] == ["latency:p99"]

    @pytest.mark.parametrize(
        "doc_a, doc_b, named",
        [
            ({"percentiles": {"latency": 3}, "makespan": 1}, None,
             "document A percentiles 'latency'"),
            ({"phases": [{"name": "x"}]}, None, "document A phase 'x'"),
            ({"makespan": 1, "percentiles": {"latency": {"p50": None}}},
             {"makespan": 1, "percentiles": {"latency": {"p50": 0.5}}},
             "document A row 'latency:p50'"),
            ({"phases": [{"name": ["x"], "duration": 1}]}, None,
             "document A phase #0"),
            # the retired self-benchmark's document shape
            ({"workloads": {}}, None, "unrecognised report document"),
        ],
        ids=["percentiles-int", "phase-no-duration", "p50-null",
             "phase-name-list", "workloads-unrecognised"],
    )
    def test_malformed_row_is_typed_error(self, doc_a, doc_b, named, tmp_path,
                                          capsys):
        # Schema-stamped but malformed: each used to escape as a raw
        # KeyError / AttributeError / TypeError / ValueError traceback.
        doc_a = {"schema": 1, **doc_a}
        doc_b = {"schema": 1, **doc_b} if doc_b is not None else doc_a
        with pytest.raises(SchemaMismatchError, match=re.escape(named)):
            diff_reports(doc_a, doc_b)
        from repro.cli import main

        paths = []
        for name, doc in (("a.json", doc_a), ("b.json", doc_b)):
            paths.append(str(tmp_path / name))
            (tmp_path / name).write_text(json.dumps(doc))
        assert main(["trace-diff", *paths]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("trace-diff: ") and named in err[0]


class TestCriticalPathUnits:
    """Direct unit coverage over synthetic tracer records."""

    def _tracer(self, procs, waits):
        tracer = Tracer(analyze=True)
        tracer.procs.extend(procs)
        tracer.waits = waits  # recorded waits are a read-only view
        return tracer

    def test_interval_clipping(self):
        tracer = self._tracer(
            [{"pid": 1, "name": "p", "parent": None, "t0": 0.0, "t1": 10.0}],
            [{"pid": 1, "t0": 0.0, "t1": 10.0, "kind": "io",
              "reason": None, "resource": None,
              "op": {"kind": "io", "track": "m", "t1": 10.0,
                     "direction": "write"}}],
        )
        segs = CriticalPath(tracer).segments_for_interval(1, 2.0, 6.0)
        assert len(segs) == 1
        assert (segs[0].t0, segs[0].t1) == (2.0, 6.0)
        assert segs[0].category == "device_busy"
        assert segs[0].blame == "m:write"

    def test_join_tie_breaks_deterministically(self):
        procs = [
            {"pid": 1, "name": "p", "parent": None, "t0": 0.0, "t1": 5.0},
            {"pid": 2, "name": "a", "parent": 1, "t0": 0.0, "t1": 5.0},
            {"pid": 3, "name": "b", "parent": 1, "t0": 0.0, "t1": 5.0},
        ]
        waits = [
            {"pid": 1, "t0": 0.0, "t1": 5.0, "kind": "join",
             "reason": None, "resource": None, "targets": [2, 3]},
            {"pid": 2, "t0": 0.0, "t1": 5.0, "kind": "sleep",
             "reason": None, "resource": None},
            {"pid": 3, "t0": 0.0, "t1": 5.0, "kind": "primitive",
             "reason": "dram", "resource": None},
        ]
        segs = CriticalPath(self._tracer(procs, waits)) \
            .segments_for_interval(1, 0.0, 5.0)
        # Both children finish at t=5; the tie breaks to the first
        # target (pid 2, the sleeper) -- deterministically.
        assert [s.category for s in segs] == ["queueing"]
        assert segs[0].blame == "sleep"

    def test_net_op_classified_as_net(self):
        tracer = self._tracer(
            [{"pid": 1, "name": "p", "parent": None, "t0": 0.0, "t1": 1.0}],
            [{"pid": 1, "t0": 0.0, "t1": 1.0, "kind": "io",
              "reason": None, "resource": None,
              "op": {"kind": "net", "track": "net", "t1": 1.0,
                     "direction": None}}],
        )
        segs = CriticalPath(tracer).segments_for_interval(1, 0.0, 1.0)
        assert segs[0].category == "net"

    def test_parallel_attributes_to_last_finishing_member(self):
        tracer = self._tracer(
            [{"pid": 1, "name": "p", "parent": None, "t0": 0.0, "t1": 4.0}],
            [{"pid": 1, "t0": 0.0, "t1": 4.0, "kind": "parallel",
              "reason": None, "resource": None,
              "members": [
                  {"kind": "io", "track": "a", "t1": 2.0,
                   "direction": "read"},
                  {"kind": "io", "track": "b", "t1": 4.0,
                   "direction": "write"},
              ]}],
        )
        segs = CriticalPath(tracer).segments_for_interval(1, 0.0, 4.0)
        assert segs[0].blame == "b:write"
