"""Tests for the Machine facade."""

from __future__ import annotations

import pytest

from repro.device.profile import Pattern
from repro.machine import Machine
from repro.units import GB


class TestOpBuilders:
    def test_io_op_time_matches_curves(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            yield machine.io("read", Pattern.SEQ, 1 << 30, tag="r", threads=16)

        machine.run(job())
        assert machine.now == pytest.approx((1 << 30) / pmem.seq_read.peak, rel=0.01)

    def test_compute_duration(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            yield machine.compute(0.004, tag="c", cores=4)

        machine.run(job())
        assert machine.now == pytest.approx(0.001)

    def test_copy_capped_by_core_bandwidth(self, pmem):
        machine = Machine(profile=pmem)
        nbytes = int(machine.host.copy_bw_per_core)  # 1 second single-core

        def job():
            yield machine.copy(nbytes, tag="c", cores=1)

        machine.run(job())
        assert machine.now == pytest.approx(1.0, rel=0.01)

    def test_sort_compute_scales_nlogn(self, pmem):
        machine = Machine(profile=pmem)
        a = machine.host.sort_seconds(1000)
        b = machine.host.sort_seconds(2000)
        assert b > 2 * a  # superlinear

    def test_io_raw_uses_explicit_work(self, pmem):
        machine = Machine(profile=pmem)
        op = machine.io_raw(1024.0, "read", Pattern.SEQ, 100, tag="raw")
        assert op.work == 1024.0
        assert op.attrs["host_ratio"] == pytest.approx(100 / 1024)

    def test_sequential_ops_accumulate_time(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            yield machine.io("read", Pattern.SEQ, 1 * GB, tag="r", threads=16)
            yield machine.io("write", Pattern.SEQ, 1 * GB, tag="w", threads=5)

        machine.run(job())
        expected = 1 * GB / pmem.seq_read.peak + 1 * GB / pmem.write.peak
        assert machine.now == pytest.approx(expected, rel=0.01)


class TestPrimitiveFactories:
    def test_factories_bound_to_engine(self, pmem):
        machine = Machine(profile=pmem)
        sem = machine.semaphore(1, name="slot", reason="write-slot")
        assert sem._engine is machine.engine
        assert (sem.value, sem.name, sem.reason) == (1, "slot", "write-slot")

    def test_dram_budget_wired(self, pmem):
        machine = Machine(profile=pmem, dram_budget=1000)
        assert machine.dram.budget == 1000

    def test_defaults(self):
        machine = Machine()
        assert machine.profile.name == "pmem"
        assert machine.host.ncores == 16
