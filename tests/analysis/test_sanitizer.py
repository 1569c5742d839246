"""Runtime SimSanitizer tests: deadlock naming, charge audit, determinism."""

import numpy as np
import pytest

from repro.analysis.sanitizer import SimSanitizer, diff_traces, verify_determinism
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.errors import ChargeDriftError, DeadlockError, DeterminismError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.units import KiB
from repro.workloads.background import BackgroundClients


# ----------------------------------------------------------------------
# Deadlock diagnostics
# ----------------------------------------------------------------------


class TestDeadlockDiagnostics:
    def test_stuck_barrier_names_coroutines(self):
        """A 3-party barrier entered by only 2 workers deadlocks; the
        error must name both stuck coroutines and the barrier state."""
        machine = Machine()
        machine.install_sanitizer()
        bar = machine.barrier(3, name="phase-gate")

        def worker():
            yield bar.wait()

        machine.engine.spawn(worker(), name="reader-0")
        machine.engine.spawn(worker(), name="reader-1")
        with pytest.raises(DeadlockError) as exc_info:
            machine.engine.run()
        msg = str(exc_info.value)
        assert "reader-0" in msg
        assert "reader-1" in msg
        assert "phase-gate" in msg
        assert "arrived 2/3" in msg

    def test_queue_deadlock_shows_getter(self):
        machine = Machine()
        machine.install_sanitizer()
        q = machine.queue(name="work-items")

        def consumer():
            yield q.get()

        machine.engine.spawn(consumer(), name="consumer")
        with pytest.raises(DeadlockError) as exc_info:
            machine.engine.run()
        msg = str(exc_info.value)
        assert "consumer" in msg
        assert "work-items" in msg
        assert "get" in msg

    def test_semaphore_deadlock_shows_waiter(self):
        machine = Machine()
        machine.install_sanitizer()
        sem = machine.semaphore(0, name="permits")

        def taker():
            yield sem.acquire()

        machine.engine.spawn(taker(), name="taker")
        with pytest.raises(DeadlockError) as exc_info:
            machine.engine.run()
        msg = str(exc_info.value)
        assert "taker" in msg
        assert "permits" in msg
        assert "count=0" in msg

    def test_without_sanitizer_points_at_flag(self):
        machine = Machine()
        bar = machine.barrier(2)

        def worker():
            yield bar.wait()

        machine.engine.spawn(worker(), name="lonely")
        with pytest.raises(DeadlockError) as exc_info:
            machine.engine.run()
        assert "--sanitize" in str(exc_info.value)

    def test_waits_clear_on_wake(self):
        """A completed rendezvous leaves no tracked waits behind."""
        machine = Machine()
        san = machine.install_sanitizer()
        bar = machine.barrier(2)

        def worker():
            yield bar.wait()

        machine.engine.spawn(worker(), name="a")
        machine.engine.spawn(worker(), name="b")
        machine.engine.run()
        assert san.waits == {}


# ----------------------------------------------------------------------
# Charge accounting audit
# ----------------------------------------------------------------------


class TestChargeAudit:
    def test_clean_run_zero_drift(self):
        machine = Machine()
        san = machine.install_sanitizer()
        f = machine.fs.create("data")
        f.poke(0, np.arange(512, dtype=np.uint8))  # fixture: engine idle

        def job():
            payload = yield f.read(0, 256, tag="RUN read")
            yield f.write(512, payload, tag="RUN write")

        machine.run(job(), name="job")
        san.check()  # must not raise
        report = san.audit_report()
        assert report["moved_read"] == 256
        assert report["moved_write"] == 256
        assert report["charged_read"] == 256.0
        assert report["charged_write"] == 256.0
        assert report["raw_uncharged_moves"] == 0
        assert report["drift"] == []

    def test_uncharged_poke_mid_run_trips_auditor(self):
        """The deliberate violation: raw bytes moved while the event
        loop runs, with no device charge -- the auditor must fail."""
        machine = Machine()
        san = machine.install_sanitizer()
        f = machine.fs.create("smuggled")

        def job():
            f.poke(0, np.zeros(4096, dtype=np.uint8))  # uncharged!
            yield machine.compute(1e-6, tag="RUN sort")

        machine.run(job(), name="smuggler")
        with pytest.raises(ChargeDriftError) as exc_info:
            san.check()
        msg = str(exc_info.value)
        assert "4096" in msg
        assert "smuggled" in msg

    def test_uncharged_peek_mid_run_trips_auditor(self):
        machine = Machine()
        san = machine.install_sanitizer()
        f = machine.fs.create("data")
        f.poke(0, np.zeros(128, dtype=np.uint8))

        def job():
            f.peek(0, 128)  # uncharged!
            yield machine.compute(1e-6, tag="RUN sort")

        machine.run(job(), name="peeker")
        with pytest.raises(ChargeDriftError):
            san.check()

    def test_unaudited_scope_exempts_with_reason(self):
        machine = Machine()
        san = machine.install_sanitizer()
        f = machine.fs.create("data")
        f.poke(0, np.zeros(128, dtype=np.uint8))

        def job():
            with machine.fs.unaudited("metadata scan"):
                f.peek(0, 128)
            yield machine.compute(1e-6, tag="RUN sort")

        machine.run(job(), name="scanner")
        san.check()
        assert san.audit_report()["exempt_raw_bytes"] == {"metadata scan": 128}

    def test_fixture_access_outside_loop_ignored(self):
        machine = Machine()
        san = machine.install_sanitizer()
        f = machine.fs.create("data")
        f.poke(0, np.zeros(1024, dtype=np.uint8))  # before the run

        def job():
            yield machine.compute(1e-6, tag="RUN sort")

        machine.run(job(), name="noop")
        f.peek()  # after the run (validation-style access)
        san.check()
        assert san.audit_report()["raw_uncharged_moves"] == 0

    def test_background_charges_are_non_storage(self):
        """BackgroundClients charge the device without storage moves;
        that is legal and lands in the non-storage bucket."""
        machine = Machine()
        san = machine.install_sanitizer()
        BackgroundClients(machine, 2, "write").start()
        f = machine.fs.create("data")
        f.poke(0, np.zeros(64 * 1024, dtype=np.uint8))

        def job():
            yield f.read(0, 64 * 1024, tag="RUN read")

        machine.run(job(), name="job")
        san.check()
        report = san.audit_report()
        assert report["non_storage_charged_write"] > 0
        assert report["moved_write"] == 0

    def test_full_sort_audits_clean(self):
        machine = Machine()
        san = machine.install_sanitizer()
        fmt = RecordFormat()
        data = generate_dataset(machine, "input", 5_000, fmt, seed=11)
        cfg = SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB)
        system = WiscSort(
            fmt, config=cfg, force_merge_pass=True, merge_chunk_entries=800
        )
        system.run(machine, data, validate=True)
        san.check()
        report = san.audit_report()
        assert report["moved_read"] > 0
        assert report["moved_read"] == report["charged_read"]
        assert report["moved_write"] == report["charged_write"]


# ----------------------------------------------------------------------
# Determinism harness
# ----------------------------------------------------------------------


def _small_sort(san: SimSanitizer, records: int = 2_000) -> None:
    machine = Machine()
    san.install(machine)
    fmt = RecordFormat()
    data = generate_dataset(machine, "input", records, fmt, seed=5)
    WiscSort(fmt).run(machine, data, validate=False)


class TestDeterminism:
    def test_identical_runs_pass(self):
        report = verify_determinism(_small_sort, runs=2)
        assert report.ok
        assert report.events > 0
        assert len(set(report.digests)) == 1
        report.raise_on_failure()  # no-op when ok

    def test_divergent_runs_fail(self):
        """A run_fn that is *not* the same workload twice (here: different
        record counts, so a different op stream) must be caught."""
        counts = iter([2_000, 2_100])

        def run_once(san):
            _small_sort(san, records=next(counts))

        report = verify_determinism(run_once, runs=2)
        assert not report.ok
        assert report.divergence is not None
        with pytest.raises(DeterminismError):
            report.raise_on_failure()

    def test_diff_traces_finds_first_divergence(self):
        a = [("op", 1.0, "io", "t", 5.0), ("op", 2.0, "io", "t", 5.0)]
        b = [("op", 1.0, "io", "t", 5.0), ("op", 2.5, "io", "t", 5.0)]
        d = diff_traces(a, b)
        assert d["index"] == 1
        assert diff_traces(a, a) is None

    def test_length_mismatch_detected(self):
        a = [("proc", 1.0, "x")]
        d = diff_traces(a, a + [("proc", 2.0, "y")])
        assert d["index"] == 1
        assert d["a"] == "<run ended>"

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            verify_determinism(_small_sort, runs=1)

    def test_trace_digest_requires_tracing(self):
        with pytest.raises(ValueError):
            SimSanitizer(trace=False).trace_digest()


# ----------------------------------------------------------------------
# Crash / reboot interaction
# ----------------------------------------------------------------------


class TestRebootIntegration:
    def test_sanitizer_survives_reboot(self):
        """After Machine.reboot() the sanitizer re-attaches to the new
        engine and keeps auditing (charges from both boots add up)."""
        machine = Machine()
        san = machine.install_sanitizer()
        f = machine.fs.create("data")
        f.poke(0, np.zeros(256, dtype=np.uint8))

        def job():
            yield f.read(0, 128, tag="RUN read")

        machine.run(job(), name="boot-1")
        machine.reboot()
        assert san.on_wait in machine.engine.probes.block_io
        machine.run(job(), name="boot-2")
        san.check()
        assert san.audit_report()["moved_read"] == 256

    def test_observe_only_fingerprint_stability(self):
        """Installing the sanitizer must not change simulated results."""

        def run(with_sanitizer: bool) -> float:
            machine = Machine()
            if with_sanitizer:
                machine.install_sanitizer()
            fmt = RecordFormat()
            data = generate_dataset(machine, "input", 2_000, fmt, seed=3)
            WiscSort(fmt).run(machine, data, validate=False)
            return machine.engine.now

        assert run(False) == run(True)
