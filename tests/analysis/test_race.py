"""simrace: sim-time race detection over the coroutine engine.

The fixtures here are the acceptance bed for ``--race-detect``: the
intentional races MUST stay flagged (a silently quiet detector is a CI
failure), the happens-before fixtures MUST stay quiet, and the detector
must never perturb simulated results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.race import sort_output_fingerprint
from repro.errors import RaceError
from repro.machine import Machine
from repro.sim.engine import Join, Sleep, Spawn
from repro.sim.primitives import Semaphore


def _machine_with_file(nbytes=4096, name="hot"):
    m = Machine()
    det = m.install_race_detector()
    f = m.fs.create(name)
    f.poke(0, b"\x00" * nbytes)
    return m, det, f


def _spawn_pair(m, gen_a, gen_b, name_a="a", name_b="b"):
    def main():
        pa = yield Spawn(gen_a, name=name_a)
        pb = yield Spawn(gen_b, name=name_b)
        yield Join([pa, pb])

    m.run(main(), name="main")


class TestIntentionalRaces:
    def test_ww_overlap_flagged_with_diagnostics(self):
        m, det, f = _machine_with_file()

        def writer(lo):
            yield f.write(lo, b"\xff" * 256, tag="W")

        _spawn_pair(m, writer(0), writer(128), "writer-a", "writer-b")
        assert len(det.races) == 1
        r = det.races[0]
        assert {r.a_name, r.b_name} == {"writer-a", "writer-b"}
        assert r.file_name == "hot"
        assert r.a_kind == "w" and r.b_kind == "w"
        assert r.overlaps == [(128, 256)]
        text = det.render()
        assert "WW conflict" in text
        assert "'hot'" in text
        assert "[128, 256)" in text
        assert "writer-a" in text and "writer-b" in text
        with pytest.raises(RaceError):
            det.check()

    def test_rw_overlap_flagged(self):
        m, det, f = _machine_with_file()

        def writer():
            yield f.write(0, b"\xff" * 256, tag="W")

        def reader():
            yield f.read(100, 64, tag="R")

        _spawn_pair(m, writer(), reader())
        assert len(det.races) == 1
        kinds = {det.races[0].a_kind, det.races[0].b_kind}
        assert kinds == {"r", "w"}

    def test_gather_read_vs_write_flagged(self):
        m, det, f = _machine_with_file()

        def writer():
            yield f.write(200, b"\xff" * 16, tag="W")

        def gatherer():
            yield f.read_gather([0, 208, 400], 8, tag="G")

        _spawn_pair(m, writer(), gatherer())
        assert len(det.races) == 1
        assert det.races[0].overlaps == [(208, 216)]

    def test_unsorted_gather_diagnostics_frozen(self):
        # Offsets out of order: the overlap is still reported in range
        # order, with the same text as when every gather was sorted on
        # arrival.
        m, det, f = _machine_with_file()

        def writer():
            yield f.write(200, b"\xff" * 16, tag="W")

        def gatherer():
            yield f.read_gather([400, 0, 208], 8, tag="G")

        _spawn_pair(m, writer(), gatherer(), "writer", "gatherer")
        assert det.races[0].overlaps == [(208, 216)]
        assert det.render() == (
            "race: WR conflict on 'hot' at t=0 (overlap [208, 216))\n"
            "  write by 'writer' (pid 2)\n"
            "  read by 'gatherer' (pid 3)\n"
            "  no happens-before edge orders these accesses: a legal "
            "same-instant schedule permutation can swap them\n"
            "race-detect: 1 distinct racing pair(s)"
        )

    def test_strided_read_vs_write_flagged(self):
        m, det, f = _machine_with_file()

        def writer():
            yield f.write(100, b"\xff" * 8, tag="W")

        def strider():
            yield f.read_strided(0, 4, 100, 10, tag="S")

        _spawn_pair(m, writer(), strider())
        assert len(det.races) == 1

    def test_duplicate_pairs_deduplicated(self):
        m, det, f = _machine_with_file()

        def writer(lo):
            yield f.write(lo, b"\xff" * 64, tag="W")
            yield f.write(lo, b"\xee" * 64, tag="W")

        _spawn_pair(m, writer(0), writer(32))
        assert len(det.races) == 1  # one report per (file, pid, pid) pair


class TestNoFalsePositives:
    def test_read_read_overlap_ok(self):
        m, det, f = _machine_with_file()

        def reader():
            yield f.read(0, 256, tag="R")

        _spawn_pair(m, reader(), reader())
        assert det.races == []
        assert det.pairs_checked == 0  # r/r pairs are skipped outright

    def test_disjoint_ranges_ok(self):
        m, det, f = _machine_with_file()

        def writer(lo):
            yield f.write(lo, b"\xff" * 128, tag="W")

        _spawn_pair(m, writer(0), writer(128))
        assert det.races == []

    def test_different_instants_ok(self):
        m, det, f = _machine_with_file()

        def early():
            yield f.write(0, b"\xff" * 256, tag="W")

        def late():
            yield Sleep(1e-6)
            yield f.write(0, b"\xee" * 256, tag="W")

        _spawn_pair(m, early(), late())
        assert det.races == []

    def test_different_files_ok(self):
        m, det, f = _machine_with_file()
        g = m.fs.create("other")
        g.poke(0, b"\x00" * 4096)

        def wa():
            yield f.write(0, b"\xff" * 256, tag="W")

        def wb():
            yield g.write(0, b"\xee" * 256, tag="W")

        _spawn_pair(m, wa(), wb())
        assert det.races == []

    def test_same_coroutine_sequential_ok(self):
        m, det, f = _machine_with_file()

        def seq():
            yield f.write(0, b"\xff" * 256, tag="W")
            yield f.write(128, b"\xee" * 256, tag="W")

        m.run(seq(), name="seq")
        assert det.races == []


class TestHappensBefore:
    """Each edge of the HB relation suppresses one would-be race."""

    def test_spawn_edge(self):
        m, det, f = _machine_with_file()

        def child():
            yield f.write(0, b"\x01" * 64, tag="W")

        def parent():
            yield f.write(0, b"\x02" * 64, tag="W")
            c = yield Spawn(child(), name="child")
            yield Join(c)

        m.run(parent(), name="parent")
        assert det.races == []

    def test_join_edge(self):
        m, det, f = _machine_with_file()

        def child():
            yield f.write(0, b"\x01" * 64, tag="W")

        def parent():
            c = yield Spawn(child(), name="child")
            yield Join(c)
            yield f.write(0, b"\x02" * 64, tag="W")

        m.run(parent(), name="parent")
        assert det.races == []

    def test_semaphore_edge(self):
        m, det, f = _machine_with_file()
        sem = Semaphore(m.engine, count=0, name="gate")

        def first():
            op = f.write(0, b"\x01" * 256, tag="W")  # logged now, under us
            sem.release()  # our clock flows into the gate
            yield op

        def second():
            yield sem.acquire()  # inherits first's clock
            yield f.write(128, b"\x02" * 256, tag="W")

        _spawn_pair(m, first(), second(), "first", "second")
        assert det.races == []

    def test_semaphore_control_races_without_edge(self):
        # The same shape minus the semaphore IS a race -- proves the
        # suppression above comes from the edge, not the timing.
        m, det, f = _machine_with_file()

        def first():
            yield f.write(0, b"\x01" * 256, tag="W")

        def second():
            yield f.write(128, b"\x02" * 256, tag="W")

        _spawn_pair(m, first(), second(), "first", "second")
        assert len(det.races) == 1


class TestObserveOnly:
    def test_sort_bit_identical_with_detector(self):
        from repro.api import RunOptions, sort

        opts = RunOptions(records=8_000, system="wiscsort-merge")
        base = sort(opts)
        observed = sort(opts.replace(race_detect=True))
        assert sort_output_fingerprint(observed) == sort_output_fingerprint(
            base
        )
        det = observed.extras["race_detector"]
        assert det.races == []
        assert det.accesses_seen > 0
        det.check()  # clean workload: must not raise

    def test_simulated_times_identical_with_detector(self):
        from repro.api import RunOptions, sort

        opts = RunOptions(records=8_000, system="wiscsort-merge")
        base = sort(opts)
        observed = sort(opts.replace(race_detect=True))
        assert observed.total_time == base.total_time

    def test_mergepass_body_counts_frozen(self):
        # The ledger's MergePass body (200k records, 134-way merge, 8
        # background writers): every span and gather is logged, none
        # reaches the overlap test, and the counts match the detector
        # that built sorted ranges for every access.
        from repro.core.base import SortConfig
        from repro.core.wiscsort import WiscSort
        from repro.records.format import RecordFormat
        from repro.records.gensort import generate_dataset
        from repro.units import KiB
        from repro.workloads.background import BackgroundClients

        fmt = RecordFormat()
        m = Machine()
        det = m.install_race_detector()
        data = generate_dataset(m, "input", 200_000, fmt, seed=2023)
        BackgroundClients(m, 8, "write").start()
        WiscSort(
            fmt,
            config=SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB),
            force_merge_pass=True,
            merge_chunk_entries=1_500,
        ).run(m, data, validate=False)
        assert (det.accesses_seen, det.pairs_checked) == (9475, 0)
        assert det.races == []


class TestLifecycle:
    def test_reboot_keeps_detector_and_races(self):
        m, det, f = _machine_with_file()

        def writer(lo):
            yield f.write(lo, b"\xff" * 256, tag="W")

        _spawn_pair(m, writer(0), writer(128))
        assert len(det.races) == 1
        m.reboot()
        assert det._engine is m.engine  # rebound to the fresh engine
        assert det.note_span in m.fs.probes.file_span  # storage hook survives
        assert len(det.races) == 1  # findings survive the crash

        # And the detector still works after the reboot.
        def wr2(lo):
            yield f.write(lo, b"\xaa" * 64, tag="W")

        _spawn_pair(m, wr2(0), wr2(32))
        assert len(det.races) == 2

    def test_cancelled_coroutine_clock_retired(self):
        m, det, f = _machine_with_file()

        def sleeper():
            yield f.write(0, b"\x01" * 64, tag="W")
            yield Sleep(10.0)

        def parent():
            c = yield Spawn(sleeper(), name="sleeper")
            yield Sleep(1e-6)
            m.engine.cancel_tree(c)

        m.run(parent(), name="parent")
        # The cancelled pid's live clock moved to the final-clock table,
        # exactly like a StopIteration finish would have.
        assert det._clocks == {} or all(
            pid in det._final_clocks for pid in list(det._clocks)
        )
        assert any(det._final_clocks)

    def test_render_clean_summary(self):
        m, det, f = _machine_with_file()

        def seq():
            yield f.write(0, b"\xff" * 64, tag="W")

        m.run(seq(), name="seq")
        out = det.render()
        assert "no conflicting" in out
        det.check()


class TestClusterRace:
    def test_cross_shard_files_do_not_alias(self):
        from repro.cluster import Cluster

        cluster = Cluster(shards=2)
        det = cluster.install_race_detector()
        fa = cluster.shards[0].fs.create("part")
        fb = cluster.shards[1].fs.create("part")  # same name, other shard
        fa.poke(0, b"\x00" * 1024)
        fb.poke(0, b"\x00" * 1024)

        def wa():
            yield fa.write(0, b"\x01" * 256, tag="W")

        def wb():
            yield fb.write(0, b"\x02" * 256, tag="W")

        def main():
            pa = yield Spawn(wa(), name="a")
            pb = yield Spawn(wb(), name="b")
            yield Join([pa, pb])

        cluster.run(main())
        # Same name on different shards is different storage: no race.
        assert det.races == []

    def test_shared_shard_file_races(self):
        from repro.cluster import Cluster

        cluster = Cluster(shards=2)
        det = cluster.install_race_detector()
        f = cluster.shards[0].fs.create("shared")
        f.poke(0, b"\x00" * 1024)

        def w(lo):
            yield f.write(lo, b"\x01" * 256, tag="W")

        def main():
            pa = yield Spawn(w(0), name="a")
            pb = yield Spawn(w(128), name="b")
            yield Join([pa, pb])

        cluster.run(main())
        assert len(det.races) == 1
