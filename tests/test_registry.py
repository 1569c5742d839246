"""Tests for the declarative system/experiment/profile registry."""

from __future__ import annotations

import pytest

from repro.core.base import ConcurrencyModel, SortConfig, SortSystem
from repro.errors import ConfigError, UnknownSystemError
from repro.machine import Machine
from repro.records.format import RecordFormat
from repro.records.gensort import generate_dataset
from repro.registry import (
    available,
    create_system,
    get_experiment,
    get_profile,
    get_system,
    register_system,
)


class TestLookup:
    def test_builtin_systems_present(self):
        names = available("system")
        assert set(names) >= {
            "wiscsort", "wiscsort-merge", "ems", "pmsort", "pmsort+",
            "sample-sort", "modified-key-sort",
        }

    def test_builtin_profiles_present(self):
        assert set(available("profile")) >= {
            "pmem", "dram", "block-ssd", "bd-device", "brd-device",
            "bard-device",
        }

    def test_builtin_experiments_present(self):
        assert set(available("experiment")) >= {
            "fig01", "tab01", "fig11", "ablation-write-pool",
            "cluster-scaleout",
        }

    def test_unknown_system_lists_choices(self):
        with pytest.raises(UnknownSystemError) as exc:
            get_system("bogosort")
        assert exc.value.name == "bogosort"
        assert "wiscsort" in exc.value.choices
        assert "choices" in str(exc.value)

    def test_unknown_profile_and_experiment(self):
        with pytest.raises(UnknownSystemError):
            get_profile("tape-drive")
        with pytest.raises(UnknownSystemError):
            get_experiment("fig99")

    def test_unknown_system_is_a_config_error(self):
        # Callers that guarded with ConfigError keep working.
        with pytest.raises(ConfigError):
            get_system("bogosort")

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            available("dessert")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_system("wiscsort")(object())

    def test_reregistering_same_object_is_idempotent(self):
        obj = get_system("wiscsort")
        assert register_system("wiscsort")(obj) is obj


class TestRoundTrip:
    """Every registered system sorts 1k, 1 and 0 records and validates."""

    @staticmethod
    def _sort(name, n, pmem):
        fmt = RecordFormat()
        config = SortConfig()
        if name == "pmsort+":
            # PMSort+ is the paper's IO-overlap variant; it refuses the
            # default no-io-overlap concurrency model by design.
            config = SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
        system = create_system(name, fmt, config=config)
        machine = Machine(profile=pmem)
        data = generate_dataset(machine, "input", n, fmt, seed=7)
        return machine, system.run(machine, data)

    @pytest.mark.parametrize("name", available("system"))
    def test_create_and_sort(self, name, pmem):
        _, result = self._sort(name, 1_000, pmem)
        assert result.validated
        assert result.total_time > 0

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("name", available("system"))
    def test_empty_and_single_record(self, name, n, pmem):
        machine, result = self._sort(name, n, pmem)
        assert result.validated and result.n_records == n
        if n == 0:
            assert result.total_time == 0
        assert sorted(machine.fs.list()) == sorted(["input", result.output_name])

    def test_capabilities(self):
        """Service and shard jobs need ``sort_process``; a crash plan needs
        a ``checkpoint`` flag (``api`` refuses the rest up front)."""
        config = SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
        systems = {n: create_system(n, config=config) for n in available("system")}

        def having(attr):
            return {n for n, s in systems.items() if hasattr(s, attr)}

        wiscsorts = {"wiscsort", "wiscsort-merge", "wiscsort-natural"}
        assert having("sort_process") == wiscsorts
        assert having("checkpoint") == wiscsorts | {"ems"}

    @pytest.mark.parametrize("name", available("system"))
    def test_uniform_constructor_keeps_config(self, name):
        fmt = RecordFormat()
        config = SortConfig(concurrency=ConcurrencyModel.IO_OVERLAP)
        system = create_system(name, fmt, config=config)
        assert isinstance(system, SortSystem)
        assert system.fmt is fmt
        assert system.config is config


class TestPolicies:
    def test_builtin_policies_present(self):
        assert set(available("policy")) >= {
            "fifo", "fair", "edf", "backpressure", "shed",
        }

    def test_unknown_policy_lists_choices(self):
        from repro.registry import get_policy

        with pytest.raises(UnknownSystemError) as exc:
            get_policy("round-robin")
        assert exc.value.name == "round-robin"
        assert exc.value.kind == "policy"
        assert "fifo" in exc.value.choices

    def test_create_policy_instantiates(self):
        from repro.cluster.policies import AdmissionPolicy
        from repro.registry import create_policy

        for name in available("policy"):
            policy = create_policy(name)
            assert isinstance(policy, AdmissionPolicy)
            assert policy.name == name

    def test_cli_choices_are_the_registry(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--policy", "edf"])
        assert args.policy == "edf"
        for name in available("policy"):
            build_parser().parse_args(["cluster", "--policy", name])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "round-robin"])


class TestRemovedShims:
    def test_sample_sort_positional_cost_model_rejected(self):
        # The pre-2.0 shim that silently rerouted SampleSort(fmt, cost)
        # is gone: a non-SortConfig second argument is now a hard error.
        from repro.baselines.sample_sort import SampleSort, SampleSortCostModel

        cost = SampleSortCostModel(write_passes=2.0)
        with pytest.raises(ConfigError, match="cost="):
            SampleSort(RecordFormat(), cost)

    def test_sample_sort_cost_keyword_works(self):
        from repro.baselines.sample_sort import SampleSort, SampleSortCostModel

        cost = SampleSortCostModel(write_passes=2.0)
        system = SampleSort(RecordFormat(), cost=cost)
        assert system.cost is cost
        assert isinstance(system.config, SortConfig)
