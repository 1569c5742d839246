"""Tests for device calibration and the thread-pool controller."""

from __future__ import annotations

import gc

import pytest

from repro.calibrate import microbench
from repro.calibrate.microbench import calibrate_device
from repro.core.base import ConcurrencyModel, SortConfig
from repro.core.controller import ThreadPoolController
from repro.device.curves import ScalingCurve
from repro.device.host import HostModel
from repro.device.profile import Pattern
from repro.device.profiles import PROFILE_FACTORIES, pmem_profile
from repro.machine import Machine


class TestCalibration:
    def test_pmem_pools_match_paper(self, pmem, host):
        # Sec 3.8: reads scale to 16-32 threads, writes ~5.
        cal = calibrate_device(pmem, host)
        assert 12 <= cal.seq_read.best_threads <= 32
        assert 16 <= cal.rand_read.best_threads <= 48
        assert 3 <= cal.write.best_threads <= 6

    def test_measured_peaks_close_to_profile(self, pmem, host):
        cal = calibrate_device(pmem, host)
        assert cal.seq_read.peak_bandwidth == pytest.approx(
            pmem.seq_read.peak, rel=0.05
        )
        assert cal.write.peak_bandwidth == pytest.approx(pmem.write.peak, rel=0.05)

    def test_write_probe_sees_degradation(self, pmem, host):
        cal = calibrate_device(pmem, host)
        points = dict(cal.write.points)
        assert points[32] < points[5]

    def test_cache_hit_returns_same_object(self, pmem, host):
        a = calibrate_device(pmem, host)
        b = calibrate_device(pmem, host)
        assert a is b

    def test_equal_valued_fresh_objects_hit_the_cache(self, pmem, host):
        a = calibrate_device(pmem, host)
        assert calibrate_device(pmem_profile(), HostModel()) is a

    def test_one_curve_point_apart_never_share_an_entry(self, monkeypatch, host):
        monkeypatch.setattr(microbench, "_CACHE", {})
        base = pmem_profile()
        bent = pmem_profile()
        bent.write = ScalingCurve(
            [(t, bw * (0.5 if t == base.write.peak_threads else 1.0))
             for t, bw in base.write.points]
        )
        a = calibrate_device(base, host)
        b = calibrate_device(bent, host)
        assert a is not b
        assert a.write.points != b.write.points
        assert a.seq_read == b.seq_read and a.write == calibrate_device(
            base, host, use_cache=False
        ).write
        assert calibrate_device(pmem_profile(), HostModel()) is a
        assert len(microbench._CACHE) == 2

    def test_host_values_are_part_of_the_key(self, pmem, host):
        narrow = HostModel(ncores=4)
        assert calibrate_device(pmem, narrow) is not calibrate_device(pmem, host)

    def test_fresh_machines_always_get_their_own_device(self, monkeypatch):
        # Machines come and go with fresh profile objects; an identity
        # key handed a freed id's calibration to a different device.
        # Runs until a freed profile's id has gone to a different device.
        monkeypatch.setattr(microbench, "_CACHE", {})
        names = sorted(PROFILE_FACTORIES)
        device_of_id = {}
        for i in range(300):
            machine = Machine(profile=PROFILE_FACTORIES[names[i % len(names)]]())
            ctl = ThreadPoolController(machine, SortConfig())
            assert ctl.calibration.device_name == machine.profile.name, i
            earlier = device_of_id.get(id(machine.profile), machine.profile.name)
            if earlier != machine.profile.name:
                break
            device_of_id[id(machine.profile)] = machine.profile.name
            del machine, ctl
            gc.collect()
        else:
            pytest.fail("no freed profile id went to another device in 300 machines")
        assert len(microbench._CACHE) <= len(names)

    def test_table_is_printable(self, pmem, host):
        lines = calibrate_device(pmem, host).table()
        assert any("seq-read" in line for line in lines)

    def test_emulated_device_pools_adapt(self, emulated_profiles, host):
        bard = emulated_profiles["bard"]
        cal = calibrate_device(bard, host)
        # BARD writes scale to 32 threads -- the controller must find that.
        assert cal.write.best_threads >= 24


class TestController:
    def test_defaults_from_calibration(self, pmem):
        machine = Machine(profile=pmem)
        ctl = ThreadPoolController(machine, SortConfig())
        assert ctl.read_threads(Pattern.SEQ) >= 12
        assert 3 <= ctl.write_threads() <= 6
        assert ctl.sort_cores() == machine.host.ncores

    def test_explicit_overrides_win(self, pmem):
        machine = Machine(profile=pmem)
        config = SortConfig(read_threads=7, write_threads=2, sort_cores=3)
        ctl = ThreadPoolController(machine, config)
        assert ctl.read_threads(Pattern.SEQ) == 7
        assert ctl.read_threads(Pattern.RAND) == 7
        assert ctl.write_threads() == 2
        assert ctl.sort_cores() == 3

    def test_no_sync_is_uncontrolled(self, pmem):
        machine = Machine(profile=pmem)
        ctl = ThreadPoolController(
            machine, SortConfig(concurrency=ConcurrencyModel.NO_SYNC)
        )
        assert ctl.read_threads(Pattern.SEQ) == machine.host.ncores
        assert ctl.write_threads() == machine.host.ncores

    def test_describe_lists_pools(self, pmem):
        machine = Machine(profile=pmem)
        ctl = ThreadPoolController(machine, SortConfig())
        text = ctl.describe()
        assert "write=" in text and "seq-read=" in text
