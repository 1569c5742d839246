"""Tests for the programmatic facade: ``RunOptions`` and ``api.sort``."""

from __future__ import annotations

import pytest

from repro import api
from repro.api import RunOptions
from repro.core.base import SortConfig, SortResult
from repro.errors import ConfigError, UnknownSystemError
from repro.machine import Machine
from repro.records.format import RecordFormat


class TestRunOptions:
    def test_defaults_mirror_classic_sort(self):
        o = RunOptions()
        assert o.records == 100_000
        assert o.system == "wiscsort"
        assert o.device == "pmem"
        assert o.seed == 42
        assert o.validate is True
        assert o.faults is None

    def test_frozen(self):
        o = RunOptions()
        with pytest.raises(AttributeError):
            o.records = 1

    def test_replace_derives_variants(self):
        base = RunOptions(records=5_000, seed=7)
        traced = base.replace(trace="out.json")
        assert traced.trace == "out.json"
        assert traced.records == 5_000
        assert base.trace is None  # original untouched

    def test_effective_format_and_config_filled(self):
        o = RunOptions()
        assert isinstance(o.record_format, RecordFormat)
        assert isinstance(o.sort_config, SortConfig)
        fmt = RecordFormat(key_size=8, value_size=24)
        assert RunOptions(fmt=fmt).record_format is fmt

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            RunOptions(records=-1)
        with pytest.raises(ConfigError):
            RunOptions(fmt="10x90")
        with pytest.raises(ConfigError):
            RunOptions(config={"read_buffer": 1})


class TestFacade:
    def test_default_sort_validates(self):
        result = api.sort(RunOptions(records=2_000))
        assert isinstance(result, SortResult)
        assert result.validated
        assert result.total_time > 0
        assert result.phases  # per-tag breakdown present
        assert isinstance(result.extras["machine"], Machine)

    def test_no_options_means_defaults(self):
        # api.sort() with nothing at all still runs the classic default.
        result = api.sort(RunOptions(records=1_000))
        assert result.validated

    def test_system_and_device_by_registry_name(self):
        result = api.sort(
            RunOptions(records=1_000, system="ems", device="brd-device")
        )
        assert result.validated
        machine = result.extras["machine"]
        assert "brd-device" in machine.profile.describe()

    def test_custom_format_and_config(self):
        fmt = RecordFormat(key_size=8, value_size=24)
        config = SortConfig(read_buffer=1 << 16)
        result = api.sort(
            RunOptions(records=1_500, fmt=fmt, config=config, seed=3)
        )
        assert result.validated

    def test_unknown_names_raise(self):
        with pytest.raises(UnknownSystemError):
            api.sort(RunOptions(records=100, system="bogosort"))
        with pytest.raises(UnknownSystemError):
            api.sort(RunOptions(records=100, device="tape-drive"))

    def test_validate_false_skips_validation(self):
        result = api.sort(RunOptions(records=1_000, validate=False))
        assert not result.validated

    def test_sanitize_runs_clean(self):
        result = api.sort(RunOptions(records=1_000, sanitize=True))
        sanitizer = result.extras["sanitizer"]
        report = sanitizer.audit_report()
        assert report["moved_read"] > 0
        assert report["moved_write"] > 0

    def test_deterministic_across_calls(self):
        a = api.sort(RunOptions(records=2_000, seed=9))
        b = api.sort(RunOptions(records=2_000, seed=9))
        assert a.total_time == b.total_time
        assert a.phases == b.phases

    def test_non_options_positional_rejected(self):
        with pytest.raises(ConfigError):
            api.sort({"records": 100})

    def test_loose_keywords_rejected(self):
        """The pre-RunOptions surface (loose keywords, ``records`` as a
        positional int) is gone: typed error, no deprecation shim."""
        for call in (
            lambda: api.sort(records=2_000, seed=9),
            lambda: api.sort(RunOptions(records=100), seed=1),
            lambda: api.sort(1_000),
            lambda: api.serve(records=2_000),
        ):
            with pytest.raises(ConfigError):
                call()


class TestFacadeFaults:
    def test_crash_spec_recovers(self):
        result = api.sort(RunOptions(records=10_000, faults="crash@50%"))
        assert result.validated
        report = result.extras["fault_report"]
        assert report.crashes >= 1

    def test_crash_on_non_checkpointing_system_rejected(self):
        with pytest.raises(ConfigError):
            api.sort(RunOptions(
                records=1_000, system="sample-sort", faults="crash@op:1"
            ))

    def test_crash_on_natural_run_elision_rejected(self):
        # api.sort arms any system that has a ``checkpoint`` attribute;
        # natural-run elision cannot honour it (its elided chunks are
        # not in the manifest) and must say so rather than recover to a
        # wrong file.
        for spec in ("crash@50%", "crash@op:3"):
            with pytest.raises(ConfigError, match="natural-run elision"):
                api.sort(RunOptions(
                    records=5_000, system="wiscsort-natural", faults=spec
                ))


class TestShardedSort:
    """``api.sort(options, shards=N)``: the same run on a cluster."""

    def test_shard_crash_recovers_to_the_single_device_output(self):
        from repro.analysis.race import sort_output_fingerprint

        options = RunOptions(records=4_000)
        chaos = api.sort(options.replace(faults="shard1:crash@50%"), shards=2)
        assert chaos.validated
        assert chaos.extras["fault_report"].recoveries == 1
        assert chaos.extras["cluster"].faults.shards_recovered == 1
        assert chaos.extras["system"].last_recovery["partitions_redone"] >= 1
        assert "machine" not in chaos.extras
        assert sort_output_fingerprint(chaos) == sort_output_fingerprint(
            api.sort(options)
        )

    def test_devices_run_heterogeneous(self):
        result = api.sort(RunOptions(records=2_000), devices=["pmem", "bd-device"])
        assert result.validated
        profiles = [m.profile.name for m in result.extras["cluster"].shards]
        assert profiles == ["pmem", "bd-device"]

    def test_observers_ride_the_cluster_bus(self):
        result = api.sort(
            RunOptions(records=2_000, sanitize=True, race_detect=True), shards=2
        )
        assert not result.extras["race_detector"].races
        assert result.extras["sanitizer"].audit_report()["moved_write"] > 0

    @pytest.mark.parametrize("sharding,domains", [
        ({}, "none"),
        ({"shards": 4}, "shard0, shard1, shard2, shard3"),
    ])
    def test_fault_target_outside_the_run_is_rejected(self, sharding, domains):
        # one device used to drop the prefix and crash the machine; four
        # shards used to inject nothing and report a clean run
        with pytest.raises(ConfigError, match=f"fault domains are: {domains}"):
            api.sort(
                RunOptions(records=2_000, faults="shard9:crash@50%"), **sharding
            )

    def test_the_ledger_plan_targets_shards_the_run_has(self):
        result = api.sort(
            RunOptions(
                records=4_000,
                faults="shard1:crash@50%,shard0:slow@t:1e-4+1:x0.1",
            ),
            shards=4,
        )
        assert result.extras["fault_report"].crashes == 1
