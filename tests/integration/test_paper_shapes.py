"""Integration tests asserting the paper's qualitative results.

Who wins and by roughly what factor is a row of ``repro.bench.claims.CLAIMS``;
each test named after a headline result checks its rows at the tier-1
scale (the ``claims`` fixture).  The three tests with their own setup
need 512 KiB buffers or user byte counts, which no experiment reports.
"""

from __future__ import annotations

import pytest

from repro.baselines import ExternalMergeSort
from repro.core.base import ConcurrencyModel, SortConfig
from repro.core.wiscsort import WiscSort
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset

N = 50_000  # 5 MB sortbenchmark input


def rows(*claim_ids):
    """A test that the named claim rows hold."""

    def test(self, claims):
        for claim_id in claim_ids:
            measured = claims.of(claim_id)
            assert measured.holds, str(measured)

    return test


@pytest.fixture(scope="module")
def pmem_results(pmem):
    fmt = RecordFormat()
    # Buffers sized so every phase runs over many batches even at this
    # reduced scale (a 5 MiB write buffer would hold the whole input in
    # one batch and erase the difference between concurrency models).
    small = 512 * 1024

    def run(system):
        machine = Machine(profile=pmem)
        f = generate_dataset(machine, "input", N, fmt, seed=11)
        return system.run(machine, f, validate=False)

    def cfg(model):
        return SortConfig(concurrency=model, read_buffer=2 * small, write_buffer=small)

    return {
        "ems": run(ExternalMergeSort(fmt, config=cfg(ConcurrencyModel.NO_IO_OVERLAP))),
        "onepass": run(WiscSort(fmt, config=cfg(ConcurrencyModel.NO_IO_OVERLAP))),
        "onepass-overlap": run(WiscSort(fmt, config=cfg(ConcurrencyModel.IO_OVERLAP))),
        "onepass-nosync": run(WiscSort(fmt, config=cfg(ConcurrencyModel.NO_SYNC))),
    }


class TestHeadlineResults:
    test_wiscsort_beats_ems = rows("fig01:wiscsort-vs-ems")
    test_mergepass_beats_ems = rows("fig04:mergepass-speedup-over-ems-160-200-gb")
    test_onepass_beats_mergepass = rows("fig07:onepass-vs-mergepass-no-io-overlap")
    test_ems_beats_inplace_sample_sort = rows("fig01:ems-vs-in-place-sample-sort")
    test_wiscsort_much_faster_than_pmsort = rows("fig07:onepass-vs-single-threaded-pmsort")
    test_controlled_ems_beats_nosync_ems = rows("fig07:ems-no-io-overlap-vs-ems-no-sync")
    test_pmsort_plus_between_pmsort_and_wiscsort = rows(
        "fig07:onepass-each-pmsort-pmsort-single-thread-adjacent-ratios")

    def test_interference_aware_scheduling_wins(self, pmem_results):
        # Fig 7 family ordering for OnePass: no-io-overlap < io-overlap < no-sync.
        assert (
            pmem_results["onepass"].total_time
            < pmem_results["onepass-overlap"].total_time
            < pmem_results["onepass-nosync"].total_time
        )


class TestTrafficReduction:
    def test_wiscsort_writes_half_of_ems(self, pmem_results):
        # Sec 3.3: OnePass avoids all intermediate writes.
        assert pmem_results["onepass"].user_written == pytest.approx(
            pmem_results["ems"].user_written / 2, rel=0.02
        )

    def test_wiscsort_reads_less_user_data(self, pmem_results):
        # OnePass reads keys once (10%) + values once (100%) vs EMS's
        # two full passes: a ~45% reduction in user read traffic.
        assert (
            pmem_results["onepass"].user_read
            <= 0.6 * pmem_results["ems"].user_read
        )


class TestDeviceSensitivity:
    test_bd_device_prefers_ems = rows(
        "fig11:bd-ems-sample-sort-onepass-ems-mergepass-adjacent-ratios")
    test_brd_device_prefers_onepass = rows(
        "fig11:brd-onepass-sample-sort-mergepass-ems-adjacent-ratios")
    test_bard_device_write_asymmetry_rewards_wiscsort = rows("fig11:bard-ems-vs-onepass")
    test_small_values_make_mergepass_lose = rows(
        "fig08:mergepass-speedup-over-ems-at-v-10-v-k-1",
        "fig08:onepass-speedup-over-ems-v-10-502")
