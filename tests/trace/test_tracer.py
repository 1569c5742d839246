"""Tests for the sim-time tracer: spans, op attribution, counters."""

from __future__ import annotations

from repro.device.profile import Pattern
from repro.machine import Machine
from repro.trace import Tracer


def _read_write_job(machine, nbytes=1 << 20):
    with machine.trace_span("phase:demo", records=2):
        yield machine.io("read", Pattern.SEQ, nbytes, tag="r", threads=4)
        yield machine.io("write", Pattern.SEQ, nbytes, tag="w", threads=4)


class TestInstall:
    def test_install_tracer_hooks_everything(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        assert isinstance(tracer, Tracer)
        assert machine.probes.probes == [tracer]
        assert machine.engine.probes is machine.probes
        assert machine.engine.fluid.probes.op_issue == (tracer.on_op_issue,)
        assert machine.dram.probes.dram_change == (tracer._dram_change,)

    def test_trace_span_without_tracer_is_noop(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            with machine.trace_span("phase:x"):
                yield machine.io("read", Pattern.SEQ, 4096, tag="r")

        machine.run(job())
        assert machine.probes.span_scope == ()

    def test_reboot_reattaches(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        machine.run(_read_write_job(machine))
        n_ops = len(tracer.ops)
        machine.reboot()
        assert tracer._engine is machine.engine
        machine.run(_read_write_job(machine))
        assert len(tracer.ops) > n_ops


class TestSpans:
    def test_span_nesting_and_parenting(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        machine.run(_read_write_job(machine), name="demo")
        spans = {s.name: s for s in tracer.spans}
        assert "phase:demo" in spans
        demo = spans["phase:demo"]
        assert demo.t1 is not None and demo.t1 > demo.t0
        assert demo.args == {"records": 2}

    def test_process_span_nests_under_main_span(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()

        def job():
            with tracer.span("root", cat="sort"):
                yield from _read_write_job(machine)

        machine.run(job())
        spans = {s.name: s for s in tracer.spans}
        assert spans["phase:demo"].parent == spans["root"].sid

    def test_add_complete_span_records_endpoints(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        span = tracer.add_complete_span(
            "queued:j0", 1.0, 2.5, cat="queue", track="service", tenant="t0"
        )
        assert span.t0 == 1.0 and span.t1 == 2.5
        assert span.duration == 1.5
        assert tracer.spans[-1] is span


class TestOpAttribution:
    def test_io_ops_carry_class_bytes_and_phase(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        machine.run(_read_write_job(machine, nbytes=1 << 20))
        io_ops = [rec for rec in tracer.ops if rec["kind"] == "io"]
        assert len(io_ops) == 2
        read, write = io_ops
        assert read["direction"] == "read" and write["direction"] == "write"
        assert read["bytes"] == float(1 << 20)
        assert read["phase"] == "phase:demo"
        assert read["amplification"] >= 1.0
        assert read["interference"] >= 1.0
        assert read["t1"] is not None and read["t1"] > read["t0"]

    def test_op_ids_are_per_tracer(self, pmem):
        """Exported ids must restart at 1 for every tracer (the global
        FluidOp sequence does not reset between runs in one process)."""
        for _ in range(2):
            machine = Machine(profile=pmem)
            tracer = machine.install_tracer()
            machine.run(_read_write_job(machine))
            assert tracer.ops[0]["oid"] == 1

    def test_rollup_rows_group_by_phase_class(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        machine.run(_read_write_job(machine))
        rows = tracer.rollup_rows()
        keys = {(r[0], r[2]) for r in rows}
        assert ("phase:demo", "read/seq") in keys
        assert ("phase:demo", "write/seq") in keys


class TestCounters:
    def test_bandwidth_and_dram_tracks_exist(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()

        def job():
            machine.dram.allocate(4096)
            yield machine.io("read", Pattern.SEQ, 1 << 20, tag="r")
            machine.dram.free(4096)

        machine.run(job())
        series = {(track, name) for _, track, name, _ in tracer.counters}
        assert (Tracer.MAIN_TRACK, "read_bw") in series
        assert (Tracer.MAIN_TRACK, "dram_used") in series

    def test_counter_samples_are_change_suppressed(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        tracer.counter_sample("x", "s", 1.0, t=0.0)
        tracer.counter_sample("x", "s", 1.0, t=1.0)
        tracer.counter_sample("x", "s", 2.0, t=2.0)
        rows = [c for c in tracer.counters if c[1] == "x"]
        assert [v for _, _, _, v in rows] == [1.0, 2.0]


class TestObserveOnly:
    def test_traced_run_is_bit_identical_to_untraced(self, pmem):
        results = []
        for with_trace in (False, True):
            machine = Machine(profile=pmem)
            if with_trace:
                machine.install_tracer()
            machine.run(_read_write_job(machine))
            results.append(
                (
                    machine.now,
                    machine.stats.bytes_read_internal,
                    machine.stats.bytes_written_internal,
                )
            )
        assert results[0] == results[1]

    def test_detail_mode_records_sched_events_without_drift(self, pmem):
        base = Machine(profile=pmem)
        base.run(_read_write_job(base))
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer(detail=True)
        machine.run(_read_write_job(machine))
        assert machine.now == base.now
        names = {ev["name"] for ev in tracer.instants}
        assert "spawn" in names


class TestCounterTerminalFlush:
    """Regression: counter tracks must not stop short of the run's end.

    Samples are change-suppressed, so a track whose value went flat
    before the end of the run used to miss a final sample; closing the
    root span now flushes a terminal sample for every counter track.
    """

    def test_every_track_gets_a_sample_at_root_close(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        with tracer.span("root", cat="sort"):
            machine.run(_read_write_job(machine))
        root = next(s for s in tracer.spans if s.name == "root")
        assert root.t1 is not None and root.t1 > 0
        last_t = {}
        for t, track, name, _value in tracer.counters:
            last_t[(track, name)] = t
        assert last_t  # bandwidth + dram tracks exist
        for key, t in last_t.items():
            assert t == root.t1, f"{key} stops at {t}, run ends {root.t1}"

    def test_flush_repeats_last_value_not_a_new_one(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        with tracer.span("root", cat="sort"):
            machine.run(_read_write_job(machine))
        series = [
            (t, v) for t, trk, name, v in tracer.counters
            if name == "dram_used"
        ]
        # dram_used went back to its resting value before the run ended;
        # the terminal sample re-states that value at the end time.
        assert series[-1][1] == series[-2][1]

    def test_no_duplicate_flush_at_same_time(self, pmem):
        machine = Machine(profile=pmem)
        tracer = machine.install_tracer()
        with tracer.span("root", cat="sort"):
            pass
        # Install samples dram_used=0 at t=0; the root closes at t=0 too,
        # so the terminal flush must not append a same-time duplicate.
        assert len(tracer.counters) == 1
