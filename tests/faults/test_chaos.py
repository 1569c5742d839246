"""Chaos suite: seeded crash anywhere -> recovery is byte-identical.

The property under test: for any seeded FaultPlan crashing at a random
op index, crash-and-recover produces output byte-identical to the
fault-free run, without redoing completed runs, and the whole schedule
is reproducible from the seed.

Every seed-dependent test runs once per seed in ``SEEDS``; the fault-free
reference output and the op-count probe do not depend on the seed, so
each is computed once per configuration.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.baselines.external_merge_sort import ExternalMergeSort
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.errors import ConfigError, RecoveryError
from repro.faults import FaultPlan, FaultEvent, parse_fault_spec, run_with_faults
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.units import KiB

SEEDS = [101, 202, 303]
FMT = RecordFormat()
N_RECORDS = 60_000
DATA_SEED = 11

#: (name, factory(checkpoint), output file) for every resumable system
#: configuration; small buffers force merge passes (the "mergepass"
#: variants include intermediate merge rounds).
CONFIGS = [
    (
        "wiscsort-onepass",
        lambda ck: WiscSort(
            FMT, SortConfig(), output_name="out", checkpoint=ck
        ),
        "out",
    ),
    (
        "wiscsort-mergepass",
        lambda ck: WiscSort(
            FMT,
            SortConfig(read_buffer=8 * KiB, write_buffer=8 * KiB),
            output_name="out",
            checkpoint=ck,
            force_merge_pass=True,
            merge_chunk_entries=1_000,
        ),
        "out",
    ),
    (
        "ems",
        lambda ck: ExternalMergeSort(
            FMT,
            SortConfig(read_buffer=32 * KiB, write_buffer=32 * KiB),
            output_name="out",
            checkpoint=ck,
        ),
        "out",
    ),
]


def fresh_machine():
    machine = Machine()
    data = generate_dataset(machine, "input", N_RECORDS, seed=DATA_SEED)
    return machine, data


@functools.cache
def run_clean(factory, out_name):
    machine, data = fresh_machine()
    factory(False).run(machine, data)
    return bytes(bytearray(machine.fs.open(out_name).peek()))


@functools.cache
def probe_total_ops(factory):
    machine, data = fresh_machine()
    injector = machine.install_faults(FaultPlan(), count_only=True)
    factory(True).run(machine, data, validate=False)
    return injector.op_index


class TestCrashRecoveryProperty:
    """Crash at seed-chosen random op indices, expect identity."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "name,factory,out_name", CONFIGS, ids=[c[0] for c in CONFIGS]
    )
    def test_random_crash_points_recover_byte_identical(
        self, name, factory, out_name, seed
    ):
        reference = run_clean(factory, out_name)
        total = probe_total_ops(factory)
        rng = random.Random(seed)
        crash_ops = sorted({rng.randrange(total) for _ in range(5)})
        for at_op in crash_ops:
            machine, data = fresh_machine()
            plan = parse_fault_spec(f"crash@op:{at_op}", seed=seed)
            result, report = run_with_faults(
                factory(True), machine, data, plan=plan
            )
            assert report.crashes == 1, f"{name} crash@op:{at_op} never fired"
            assert report.recoveries == 1
            out = bytes(bytearray(machine.fs.open(out_name).peek()))
            assert out == reference, f"{name} crash@op:{at_op} diverged"
            assert result.validated

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_crash_single_workload(self, seed):
        """Several crash points in one plan: recovery survives them all."""
        name, factory, out_name = CONFIGS[1]
        reference = run_clean(factory, out_name)
        total = probe_total_ops(factory)
        rng = random.Random(seed + 1)
        events = [
            FaultEvent("crash", at_op=op)
            for op in sorted(rng.randrange(total) for _ in range(3))
        ]
        machine, data = fresh_machine()
        plan = FaultPlan(events=events, seed=seed)
        _result, report = run_with_faults(factory(True), machine, data, plan=plan)
        assert report.crashes == report.recoveries
        assert bytes(bytearray(machine.fs.open(out_name).peek())) == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_timed_crash_recovers(self, seed):
        name, factory, out_name = CONFIGS[2]
        reference = run_clean(factory, out_name)
        machine, data = fresh_machine()
        plan = parse_fault_spec("crash@t:0.002", seed=seed)
        _result, report = run_with_faults(factory(True), machine, data, plan=plan)
        assert report.crashes == 1
        assert bytes(bytearray(machine.fs.open(out_name).peek())) == reference


class TestNoRedundantWork:
    """Recovery resumes from the manifest instead of redoing everything."""

    def test_completed_runs_are_salvaged_not_redone(self):
        _name, factory, out_name = CONFIGS[1]
        total = probe_total_ops(factory)
        # crash late (during the merge phase): every run is complete
        machine, data = fresh_machine()
        plan = parse_fault_spec(f"crash@op:{int(total * 0.9)}", seed=1)
        result, _report = run_with_faults(factory(True), machine, data, plan=plan)
        assert result.extras["redone_runs"] == 0
        assert result.extras["salvaged_runs"] > 0
        assert result.extras["salvaged_bytes"] > 0

    def test_mid_run_phase_crash_salvages_prefix(self):
        _name, factory, _out_name = CONFIGS[1]
        # WiscSort mergepass writes 60 runs; crash roughly mid run phase
        machine, data = fresh_machine()
        plan = parse_fault_spec("crash@op:40", seed=1)
        result, report = run_with_faults(factory(True), machine, data, plan=plan)
        assert report.crashes == 1
        # completed runs before the crash were salvaged, the torn one redone
        assert result.extras["salvaged_runs"] > 0
        assert result.extras["redone_runs"] >= 1
        assert result.extras["salvaged_runs"] + result.extras["redone_runs"] <= 60


class TestScheduleDeterminism:
    """Same seed => same crash schedule, stats and final simulated state."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_reproduces_everything(self, seed):
        _name, factory, out_name = CONFIGS[1]
        total = probe_total_ops(factory)

        def one():
            machine, data = fresh_machine()
            plan = FaultPlan(
                events=[
                    FaultEvent("crash", at_op=int(total * 0.4)),
                    FaultEvent("torn", p=0.005),
                    FaultEvent("transient", p=0.005),
                ],
                seed=seed,
            )
            result, report = run_with_faults(factory(True), machine, data, plan=plan)
            return (
                report.crash_points,
                report.stats,
                result.total_time,
                bytes(bytearray(machine.fs.open(out_name).peek())),
            )

        first = one()
        second = one()
        assert first == second


class TestRecoveryGuards:
    def test_recover_without_checkpoint_refuses(self):
        machine, data = fresh_machine()
        system = WiscSort(FMT, SortConfig(), output_name="out")
        with pytest.raises(RecoveryError):
            system.recover(machine, data)

    def test_checkpoint_requires_no_io_overlap(self):
        from repro.core.base import ConcurrencyModel

        machine, data = fresh_machine()
        system = WiscSort(
            FMT,
            SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP),
            output_name="out",
            checkpoint=True,
        )
        with pytest.raises(ConfigError):
            system.run(machine, data)

    def test_crash_loop_bounded(self):
        """A plan whose crashes outpace progress raises RecoveryError."""
        _name, factory, _out = CONFIGS[0]
        total = probe_total_ops(factory)
        at = max(0, total - 2)
        # 4 crashes re-armed at nearly-the-end op indices, but only
        # max_recoveries=2 attempts allowed
        events = [FaultEvent("crash", at_op=at + i) for i in range(4)]
        machine, data = fresh_machine()
        machine.install_faults(FaultPlan(events=events, seed=1))
        with pytest.raises(RecoveryError):
            run_with_faults(
                factory(True), machine, data, max_recoveries=2
            )
