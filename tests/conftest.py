"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.device.host import HostModel
from repro.device.profiles import (
    bard_device_profile,
    bd_device_profile,
    brd_device_profile,
    dram_profile,
    pmem_profile,
)
from repro.machine import Machine
from repro.records.format import RecordFormat

# Profiles are shared across the whole test session (the calibration
# cache is keyed by their field values, so fresh equal ones hit it too).
_PMEM = pmem_profile()
_DRAM = dram_profile()
_BD = bd_device_profile()
_BRD = brd_device_profile()
_BARD = bard_device_profile()


@pytest.fixture(scope="session")
def pmem():
    return _PMEM


@pytest.fixture(scope="session")
def dram():
    return _DRAM


@pytest.fixture(scope="session")
def emulated_profiles():
    return {"bd": _BD, "brd": _BRD, "bard": _BARD}


@pytest.fixture
def machine(pmem):
    return Machine(profile=pmem)


@pytest.fixture
def host():
    return HostModel()


@pytest.fixture
def fmt():
    return RecordFormat()


def batch_trace(*jobs, **defaults):
    """A batch as the sort service sees it: every job arrives at ``t=0``.

    Each job is a dict of :class:`~repro.workloads.arrivals.JobSpec`
    fields (``name`` and ``records`` at least); ``defaults`` fill the
    rest.  At ``t=0`` a relative ``deadline`` is also the absolute one.
    """
    from repro.workloads.arrivals import JobSpec, TraceArrivals

    base = {"tenant": "default", "system": "wiscsort", **defaults}
    return TraceArrivals([
        JobSpec(index=i, arrival_time=0.0, **{"seed": i, **base, **job})
        for i, job in enumerate(jobs)
    ])
