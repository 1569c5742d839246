"""Schedule fuzzing: seeded permutations of same-instant scheduling ties.

Every permuted schedule is legal, so a correct workload must produce
byte-identical output under any seed; an order-dependent one must be
caught.  These tests pin both directions.
"""

from __future__ import annotations

import pytest

from repro.analysis.race import (
    SchedulePermuter,
    ScheduleFuzzReport,
    schedule_fuzz,
    sort_output_fingerprint,
)
from repro.errors import ScheduleDivergenceError
from repro.machine import Machine
from repro.sim.engine import Join, Sleep, Spawn


def _run_tagged(machine, n, order):
    """Spawn n children that record their execution order."""

    def child(i):
        order.append(i)
        yield Sleep(0.0)

    def main():
        procs = []
        for i in range(n):
            procs.append((yield Spawn(child(i), name=f"c{i}")))
        yield Join(procs)

    machine.run(main(), name="main")


class TestPermuter:
    def test_same_seed_same_stream(self):
        a = SchedulePermuter(7)
        b = SchedulePermuter(7)
        assert [a.pick(5) for _ in range(20)] == [b.pick(5) for _ in range(20)]

    def test_picks_stay_in_range(self):
        p = SchedulePermuter(3)
        for n in range(1, 10):
            for _ in range(50):
                assert 0 <= p.pick(n) < n

    def test_shuffle_preserves_items(self):
        p = SchedulePermuter(11)
        items = list(range(10))
        shuffled = list(items)
        p.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestEngineIntegration:
    def test_all_ready_processes_still_run(self):
        m = Machine()
        m.install_schedule_fuzz(5)
        order = []
        _run_tagged(m, 8, order)
        assert sorted(order) == list(range(8))

    def test_some_seed_permutes_fifo_order(self):
        fifo = []
        _run_tagged(Machine(), 8, fifo)
        assert fifo == list(range(8))  # FIFO baseline is spawn order
        permuted = False
        for seed in range(1, 6):
            m = Machine()
            m.install_schedule_fuzz(seed)
            order = []
            _run_tagged(m, 8, order)
            if order != fifo:
                permuted = True
        assert permuted, "no seed in 1..5 permuted an 8-way tie"

    def test_same_seed_reproduces_schedule(self):
        orders = []
        for _ in range(2):
            m = Machine()
            m.install_schedule_fuzz(9)
            order = []
            _run_tagged(m, 8, order)
            orders.append(order)
        assert orders[0] == orders[1]

    def test_permuter_survives_reboot(self):
        m = Machine()
        perm = m.install_schedule_fuzz(4)
        m.reboot()
        assert m.engine.probes.pick_ready == perm.pick
        assert m.engine.probes.shuffle_ties == perm.shuffle


class TestHarness:
    def test_clean_sort_is_schedule_invariant(self):
        from repro.api import RunOptions, sort

        opts = RunOptions(records=6_000, system="wiscsort-merge")
        report = schedule_fuzz(
            lambda seed: sort_output_fingerprint(
                sort(opts.replace(schedule_seed=seed))
            ),
            seeds=(1, 2, 3, 4, 5),
        )
        assert report.ok
        assert len(report.rows) == 6  # baseline + 5 seeds
        assert "OK" in report.render()
        report.raise_on_failure()

    def test_order_dependent_workload_caught(self):
        # Two unordered writers to the same region: last issuer wins, so
        # a permuted schedule flips the bytes.  The fuzz harness must
        # catch exactly this.
        def run(seed):
            m = Machine()
            if seed is not None:
                m.install_schedule_fuzz(seed)
            f = m.fs.create("hot")
            f.poke(0, b"\x00" * 512)

            def writer(byte):
                yield f.write(0, bytes([byte]) * 256, tag="W")

            def main():
                a = yield Spawn(writer(0xAA), name="a")
                b = yield Spawn(writer(0xBB), name="b")
                yield Join([a, b])

            m.run(main(), name="main")
            from repro.analysis.race import file_fingerprint

            return file_fingerprint(f)

        report = schedule_fuzz(run, seeds=(1, 2, 3, 4, 5))
        assert not report.ok
        assert report.mismatches
        assert "FAILED" in report.render()
        with pytest.raises(ScheduleDivergenceError):
            report.raise_on_failure()

    def test_report_shapes(self):
        report = ScheduleFuzzReport(
            baseline="abc",
            rows=[("baseline", "abc"), ("seed 1", "abc"), ("seed 2", "xyz")],
            mismatches=[(2, "xyz")],
        )
        assert not report.ok
        rendered = report.render()
        assert "abc" in rendered and "xyz" in rendered


class TestFaultedClusterFuzz:
    def test_crash_recovery_is_schedule_invariant(self):
        """A shard crash mid-sort recovers to identical bytes per seed."""
        from repro import api

        options = api.RunOptions(records=4000, seed=1, faults="shard1:crash@50%")

        def run(seed):
            result = api.sort(options.replace(schedule_seed=seed), shards=2)
            assert result.extras["fault_report"].recoveries == 1
            return sort_output_fingerprint(result)

        report = schedule_fuzz(run, seeds=(1, 2))
        assert report.ok, report.render()
