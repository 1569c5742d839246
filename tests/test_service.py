"""Tests for the open-loop sort service: determinism, shedding, SLOs.

The small workloads here are sized to finish in seconds of wall clock:
2k-record jobs sort in ~50 simulated microseconds, so a few hundred
arrivals exercise real queueing without real waiting.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.api import RunOptions
from repro.cluster import Cluster, Job, SLO, SortService, parse_slo
from repro.cluster.policies import (
    BackpressurePolicy,
    EdfPolicy,
    SchedulingContext,
    ShedPolicy,
)
from repro.errors import ConfigError
from repro.workloads.arrivals import PoissonArrivals, TraceArrivals
from tests.conftest import batch_trace

#: Admits ~3 concurrent 2k-record jobs (each reserves ~15.8 MB).
BUDGET = 48_000_000
REPO = Path(__file__).resolve().parents[1]


def overload_options(seed=3):
    return RunOptions(records=2_000, seed=seed, dram_budget=BUDGET)


def serve_overloaded(policy, seed=3, **kw):
    """~300 arrivals into a service that drains ~40k jobs/s."""
    return api.serve(
        overload_options(seed), rate=80_000.0, horizon=0.004,
        policy=policy, **kw,
    )


class TestDeterminism:
    def test_two_runs_render_byte_identical(self):
        a = serve_overloaded("fifo").render()
        b = serve_overloaded("fifo").render()
        assert a == b

    def test_json_report_byte_identical(self):
        a = serve_overloaded("shed", queue_cap=8).to_json()
        b = serve_overloaded("shed", queue_cap=8).to_json()
        assert a == b

    @pytest.mark.parametrize("policy", ["fifo", "backpressure"])
    def test_scalar_and_vector_kernels_agree(self, monkeypatch, policy):
        # The vector fluid kernel is pure perf work: the service report
        # (percentiles included) must match float-for-float.
        def run(vector):
            monkeypatch.setenv("REPRO_SIM_VECTOR", "1" if vector else "0")
            rep = api.serve(
                overload_options(), rate=40_000.0, horizon=0.002,
                policy=policy,
            )
            return rep.render(), rep.percentiles
        scalar_render, scalar_pct = run(False)
        vector_render, vector_pct = run(True)
        assert scalar_render == vector_render
        assert scalar_pct == vector_pct

    def test_bench_sweep_is_byte_identical_across_processes(self, tmp_path):
        # The quick throughput-knee sweep is a pure function of its seed:
        # two processes with different hash seeds (so sets of strings
        # iterate in different orders) must write the same JSON bytes.
        outputs = [tmp_path / f"sweep{seed}.json" for seed in (1, 2)]
        procs = [
            subprocess.Popen(
                [sys.executable, str(REPO / "benchmarks" / "bench_service.py"),
                 "--quick", "--output", str(out)],
                cwd=tmp_path, stdout=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": str(REPO / "src"),
                     "PYTHONHASHSEED": str(seed)},
            )
            for seed, out in zip((1, 2), outputs)
        ]
        assert [p.wait(timeout=600) for p in procs] == [0, 0]
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_same_seed_same_job_stream(self):
        jobs_a = serve_overloaded("fifo").jobs
        jobs_b = serve_overloaded("fifo").jobs
        assert [(j.name, j.seed, j.n_records) for j in jobs_a] == \
            [(j.name, j.seed, j.n_records) for j in jobs_b]


class TestAccounting:
    def test_counts_balance(self):
        rep = serve_overloaded("shed", queue_cap=8)
        assert rep.jobs_arrived == rep.jobs_admitted + rep.jobs_shed
        assert rep.jobs_completed == rep.jobs_admitted  # admitted all finish
        assert len(rep.jobs) == rep.jobs_arrived

    def test_shed_policy_sheds_under_overload(self):
        rep = serve_overloaded("shed", queue_cap=8)
        assert rep.jobs_shed > 0
        shed_jobs = [j for j in rep.jobs if j.shed]
        assert len(shed_jobs) == rep.jobs_shed
        assert all(j.finish_time is None for j in shed_jobs)

    def test_shedding_keeps_p99_flat(self):
        queueing = serve_overloaded("fifo")
        shedding = serve_overloaded("shed", queue_cap=8)
        assert shedding.percentiles["latency"]["p99"] < \
            queueing.percentiles["latency"]["p99"] / 2

    def test_backpressure_bounds_dram_backlog(self):
        rep = serve_overloaded("backpressure")
        assert rep.jobs_shed > 0
        assert rep.percentiles["latency"]["p99"] < 0.001

    def test_deadline_misses_counted(self):
        rep = serve_overloaded("fifo", deadline=0.0002)
        missed = [j for j in rep.jobs if j.missed_deadline]
        assert rep.deadline_misses == len(missed)
        assert rep.deadline_misses > 0  # overload makes the tail miss

    def test_no_deadline_no_misses(self):
        rep = serve_overloaded("fifo")
        assert rep.deadline_misses == 0

    def test_underload_has_no_queueing(self):
        rep = api.serve(
            overload_options(), rate=500.0, horizon=0.02, policy="fifo"
        )
        assert rep.jobs_shed == 0
        assert rep.percentiles["queue"]["p99"] == 0.0
        assert rep.ok

    def test_a_job_costs_at_most_ten_engine_steps_at_low_load(self):
        # Arrival wake, admission, spawn and the sort's own I/O: an
        # engine round-trip that simulates nothing (a clock read, a wake
        # that finds no work) shows up here as a step per job.
        cluster = Cluster(shards=2)
        arrivals = PoissonArrivals(2_000.0, seed=1, records=2_000).take(50)
        rep = SortService(cluster, policy="fifo").serve(TraceArrivals(arrivals))
        assert rep.jobs_completed == 50
        assert rep.percentiles["queue"]["p99"] == 0.0
        assert cluster.engine.steps <= 10 * 50


class TestSLO:
    def test_parse_grammar(self):
        slo = parse_slo("latency:p99<0.05")
        assert slo.metric == "latency"
        assert slo.percentile == 99.0
        assert slo.threshold == 0.05
        assert parse_slo("slowdown:p999<=10").percentile == 99.9
        assert parse_slo("queue:p50<1e-3").threshold == 1e-3

    def test_parse_rejects_garbage(self):
        for bad in ("latency:p99", "p99<0.5", "latency:q99<0.5",
                    "throughput:p99<5"):
            with pytest.raises(ConfigError):
                parse_slo(bad)

    def test_slo_object_validation(self):
        with pytest.raises(ConfigError):
            SLO(metric="latency", percentile=101.0, threshold=1.0)
        with pytest.raises(ConfigError):
            SLO(metric="latency", percentile=99.0, threshold=1.0, op=">")

    def test_verdicts_in_report(self):
        rep = api.serve(
            overload_options(), rate=500.0, horizon=0.01, policy="fifo",
            slos=("latency:p99<1.0", "latency:p99<1e-9"),
        )
        verdicts = {r["slo"]: r["ok"] for r in rep.slo_results}
        assert verdicts["latency:p99<1"] is True
        assert verdicts["latency:p99<1e-09"] is False
        assert rep.ok is False
        assert "FAIL" in rep.render()


class TestPolicyUnits:
    def _ctx(self, **kw):
        defaults = dict(
            now=0.0, fits=lambda j: True, service={}, in_service={},
            running=0, dram_budget=None, dram_available=None, queue_cap=None,
        )
        defaults.update(kw)
        return SchedulingContext(**defaults)

    def _job(self, name, seq, deadline=None, dram=1):
        return Job(name, "t0", "wiscsort", 10, 0, dram, seq=seq,
                   deadline=deadline)

    def test_edf_picks_earliest_deadline_then_seq(self):
        jobs = [
            self._job("late", 0, deadline=2.0),
            self._job("early", 1, deadline=1.0),
            self._job("none", 2),
            self._job("early-tie", 3, deadline=1.0),
        ]
        policy = EdfPolicy()
        assert policy.pick(jobs, self._ctx()).name == "early"
        jobs.remove(jobs[1])
        assert policy.pick(jobs, self._ctx()).name == "early-tie"
        assert policy.pick([self._job("only", 9)], self._ctx()).name == "only"

    def test_shed_policy_respects_service_queue_cap(self):
        policy = ShedPolicy(queue_cap=64)
        pending = [self._job(f"j{i}", i) for i in range(3)]
        assert policy.on_arrival(self._job("x", 9), pending,
                                 self._ctx(queue_cap=3)) is False
        assert policy.on_arrival(self._job("x", 9), pending,
                                 self._ctx(queue_cap=4)) is True

    def test_backpressure_sheds_on_dram_backlog(self):
        policy = BackpressurePolicy(backlog_factor=2.0)
        pending = [self._job("a", 0, dram=60), self._job("b", 1, dram=60)]
        newcomer = self._job("c", 2, dram=60)
        # backlog = 60 + 60 + 60 = 180 vs 2.0 x budget
        assert policy.on_arrival(
            newcomer, pending, self._ctx(dram_budget=80)) is False
        assert policy.on_arrival(
            newcomer, pending, self._ctx(dram_budget=1000)) is True
        assert policy.on_arrival(
            newcomer, pending, self._ctx(dram_budget=None)) is True

    def test_backpressure_pick_skips_head_of_line(self):
        whale = self._job("whale", 0, dram=100)
        minnow = self._job("minnow", 1, dram=1)
        ctx = self._ctx(fits=lambda j: j.dram_bytes <= 10)
        assert BackpressurePolicy().pick([whale, minnow], ctx).name == "minnow"
        assert BackpressurePolicy().pick([whale], ctx) is None


class TestServiceSurface:
    def test_infinite_process_needs_a_bound(self):
        cluster = Cluster(shards=2)
        service = SortService(cluster)
        with pytest.raises(ConfigError, match="horizon"):
            service.serve(PoissonArrivals(100.0))

    def test_trace_arrivals_run_whole_without_bounds(self):
        rep = api.serve(
            RunOptions(records=1_000, seed=5),
            arrivals=TraceArrivals(
                [{"t": 0.0}, {"t": 1e-5}, {"t": 2e-5}], records=1_000
            ),
        )
        assert rep.jobs_completed == 3

    def test_unknown_arrivals_name_rejected(self):
        with pytest.raises(ConfigError, match="poisson"):
            api.serve(RunOptions(records=100), arrivals="zipf", horizon=0.1)

    def test_faults_and_schedule_fuzz_rejected(self):
        with pytest.raises(ConfigError):
            api.serve(RunOptions(records=100, faults="crash@50%"),
                      horizon=0.01)
        with pytest.raises(ConfigError):
            api.serve(RunOptions(records=100, schedule_seed=1), horizon=0.01)

    def test_unknown_policy_lists_choices(self):
        from repro.errors import UnknownSystemError

        with pytest.raises(UnknownSystemError):
            api.serve(overload_options(), rate=100.0, horizon=0.01,
                      policy="lifo")

    def test_oversized_jobs_are_shed_not_fatal(self):
        # Jobs whose reservation exceeds the whole budget can never be
        # admitted; the service sheds them instead of deadlocking.
        rep = api.serve(
            RunOptions(records=2_000, seed=3, dram_budget=1_000_000),
            rate=1_000.0, horizon=0.01, policy="fifo",
        )
        assert rep.jobs_arrived > 0
        assert rep.jobs_shed == rep.jobs_never_fit == rep.jobs_arrived
        assert rep.jobs_completed == 0

    def test_never_fit_is_counted_apart_from_policy_sheds(self):
        rep = api.serve(
            RunOptions(dram_budget=16_000_000),
            arrivals=TraceArrivals(
                [{"t": 0.0, "records": 1_000}, {"t": 0.0, "records": 90_000}]
            ),
        )
        assert (rep.jobs_completed, rep.jobs_shed, rep.jobs_never_fit) == \
            (1, 1, 1)
        assert serve_overloaded("shed", queue_cap=8).jobs_never_fit == 0


class TestSchedulerIntegration:
    """A batch is a finite trace at ``t=0``: every arrival due at one
    instant is queued before admission picks among them."""

    def _start_order(self, policy, *jobs):
        # The budget fits exactly one job's ~15.7 MB reservation, so
        # admissions serialize and the pick order is observable.
        cluster = Cluster(shards=1, dram_budget=16_000_000)
        report = SortService(cluster, policy=policy).serve(batch_trace(*jobs))
        assert report.jobs_completed == len(jobs)
        return [j.name for j in sorted(report.jobs, key=lambda j: j.start_time)]

    def test_edf_policy_in_batch_scheduler(self):
        # Arriving together in anti-deadline order: EDF must admit c, b, a
        # (the parent admitted `a` at 0.0, before b and c were queued).
        assert self._start_order(
            "edf",
            dict(name="a", records=1_000, deadline=3.0),
            dict(name="b", records=1_000, deadline=2.0),
            dict(name="c", records=1_000, deadline=1.0),
        ) == ["c", "b", "a"]

    def test_fair_sees_the_whole_tied_burst(self):
        # bob's burst arrives ahead of alice's one job at the same
        # instant.  With nothing served yet the tenants tie and the name
        # breaks it, so alice goes first -- if her job is already queued
        # when admission first picks (the parent started b0 at 0.0).
        assert self._start_order(
            "fair",
            dict(name="b0", records=1_000, tenant="bob"),
            dict(name="b1", records=1_000, tenant="bob"),
            dict(name="a0", records=1_000, tenant="alice"),
        ) == ["a0", "b0", "b1"]

    def test_tied_arrivals_later_in_a_trace_queue_together(self):
        # The same holds at t > 0 (jobs named in arrival order).
        cluster = Cluster(shards=1, dram_budget=16_000_000)
        report = SortService(cluster, policy="edf").serve(TraceArrivals(
            [{"t": 1e-3, "deadline": d} for d in (3.0, 2.0, 1.0)],
            records=1_000,
        ))
        starts = [j.start_time for j in report.jobs]
        assert starts == sorted(starts, reverse=True)
        assert starts[-1] == 1e-3

    def test_ties_are_told_by_trace_times_not_the_clock(self):
        # Sleeping 0 -> 0.003 -> 0.014 wakes one ulp short of 0.014; the
        # burst tied there must still queue whole before EDF picks.
        assert 0.003 + (0.014 - 0.003) < 0.014
        cluster = Cluster(shards=1, dram_budget=16_000_000)
        report = SortService(cluster, policy="edf").serve(TraceArrivals(
            [{"t": 0.003}]
            + [{"t": 0.014, "deadline": d} for d in (3.0, 2.0, 1.0)],
            records=1_000,
        ))
        starts = [j.start_time for j in report.jobs[1:]]
        assert starts == sorted(starts, reverse=True)

    @pytest.mark.parametrize("policy,kw", [
        ("shed", dict(queue_cap=2)), ("backpressure", {}),
    ])
    def test_presubmitted_work_is_ordered_never_shed(self, policy, kw):
        # Five ~15.7 MB jobs at t=0 overflow both the queue cap and twice
        # the DRAM budget; a batch runs them all.  Arriving one by one
        # *after* the service opened, the same burst is shed.
        def serve(t):
            cluster = Cluster(shards=1, dram_budget=16_000_000)
            return SortService(cluster, policy=policy, **kw).serve(
                TraceArrivals([{"t": t}] * 5, records=1_000)
            )
        batch = serve(0.0)
        assert (batch.jobs_shed, batch.jobs_completed) == (0, 5)
        assert serve(1e-3).jobs_shed > 0

    def test_trace_entry_fields_reach_the_job(self):
        report = SortService(Cluster(shards=2)).serve(
            batch_trace(dict(name="j0", records=500, seed=9))
        )
        job, = report.jobs
        assert (job.n_records, job.seed, job.system) == (500, 9, "wiscsort")
        assert job.slowdown >= 1.0

    def test_sanitized_service_has_zero_drift(self):
        # Job inputs are materialised mid-run, untimed by design; the
        # sanitizer must not read that as uncharged I/O (it did).
        report = api.serve(
            RunOptions(records=1_000, sanitize=True),
            arrivals=batch_trace(dict(name="j0", records=1_000)),
        )
        assert report.extras["sanitizer"].audit_report()["drift"] == []


class TestSLOMonitor:
    """Windowed error-budget burn-rate monitoring."""

    def _monitor(self, **kw):
        from repro.cluster.service import SLOMonitor

        kw.setdefault("window", 1.0)
        kw.setdefault("burn_threshold", 1.0)
        return SLOMonitor(["latency:p50<1.0"], **kw)

    def test_constructor_validation(self):
        from repro.cluster.service import SLOMonitor

        with pytest.raises(ConfigError):
            SLOMonitor(["latency:p99<0.05"], window=0.0)
        with pytest.raises(ConfigError):
            SLOMonitor(["latency:p99<0.05"], burn_threshold=0.0)
        with pytest.raises(ConfigError):
            SLOMonitor(["latency:q99<0.05"])  # bad SLO grammar

    def test_burn_rate_accounting(self):
        mon = self._monitor()
        # Window 0: 4 jobs, 2 violations.  p50 budget is 0.5, so the
        # burn rate is (2/4) / 0.5 = 1.0 -- exactly at the threshold.
        for t, latency in ((0.1, 0.5), (0.2, 2.0), (0.3, 0.5), (0.4, 2.0)):
            mon.observe(t, {"latency": latency})
        mon.finalize()
        assert len(mon.windows) == 1
        row = mon.windows[0]["slos"]["latency:p50<1"]
        assert row == {"total": 4, "violations": 2, "burn": 1.0}
        assert len(mon.alerts) == 1
        alert = mon.alerts[0]
        assert alert["window"] == 0 and alert["t"] == 1.0
        assert alert["burn"] == 1.0

    def test_no_alert_below_threshold(self):
        mon = self._monitor(burn_threshold=2.0)
        for t, latency in ((0.1, 0.5), (0.2, 2.0), (0.3, 0.5), (0.4, 0.5)):
            mon.observe(t, {"latency": latency})
        mon.finalize()
        assert mon.windows[0]["slos"]["latency:p50<1"]["burn"] == 0.5
        assert mon.alerts == []

    def test_observation_in_later_window_closes_earlier(self):
        mon = self._monitor()
        mon.observe(0.5, {"latency": 2.0})
        assert mon.windows == []  # still open
        mon.observe(1.5, {"latency": 0.5})
        assert len(mon.windows) == 1
        mon.finalize()
        assert [w["window"] for w in mon.windows] == [0, 1]

    def test_unknown_metrics_are_ignored(self):
        mon = self._monitor()
        mon.observe(0.1, {"slowdown": 99.0})
        mon.finalize()
        assert mon.windows == []  # nothing counted, window not emitted

    def test_tracer_gets_alert_instants(self):
        from repro.trace import Tracer

        mon = self._monitor()
        tracer = mon.probes.install(Tracer())
        mon.observe(0.1, {"latency": 5.0})
        mon.finalize()
        events = [ev for ev in tracer.instants if ev["name"] == "slo_alert"]
        assert len(events) == 1
        assert events[0]["args"]["slo"] == "latency:p50<1"

    def test_served_report_carries_burn_and_schema(self):
        from repro.cluster.service import SLOMonitor

        mon = SLOMonitor(["latency:p99<1e-9"], window=0.01,
                         burn_threshold=1.0)
        rep = api.serve(
            overload_options(), rate=500.0, horizon=0.01, policy="fifo",
            monitor=mon,
        )
        doc = rep.as_dict()
        assert doc["schema"] == 1
        assert doc["burn"]["window"] == 0.01
        assert doc["burn"]["alerts"]  # impossible SLO: every job violates
        assert "ALERT" in rep.render()
        assert "burn monitor" in rep.render()

    def test_monitor_is_observe_only(self):
        from repro.cluster.service import SLOMonitor

        base = api.serve(overload_options(), rate=500.0, horizon=0.01,
                         policy="fifo")
        mon = SLOMonitor(["latency:p99<0.05"], window=0.01)
        watched = api.serve(overload_options(), rate=500.0, horizon=0.01,
                            policy="fifo", monitor=mon)
        assert watched.makespan == base.makespan
        assert watched.jobs_completed == base.jobs_completed

    def test_windows_and_alerts_are_deterministic(self):
        from repro.cluster.service import SLOMonitor

        def run():
            mon = SLOMonitor(["latency:p99<1e-9"], window=0.01,
                             burn_threshold=1.0)
            api.serve(overload_options(), rate=500.0, horizon=0.01,
                      policy="fifo", monitor=mon)
            return mon.windows, mon.alerts

        assert run() == run()
