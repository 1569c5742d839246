"""Tests for reporting helpers and I/O-efficiency accounting."""

from __future__ import annotations

import pytest

from repro.device.profile import Pattern
from repro.machine import Machine
from repro.metrics.efficiency import io_efficiency_rows
from repro.metrics.report import BenchTable, format_table, ms, speedup


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_speedup_rejects_nonpositive_baseline(self):
        # A zero/negative baseline used to return nonsense (0.0 or a
        # negative "speedup") instead of raising.
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(-3.0, 1.0)


class TestBenchTable:
    def test_render_contains_rows_and_notes(self):
        table = BenchTable(title="T", headers=["x", "y"])
        table.add_row(1, "a")
        table.add_note("hello")
        text = table.render()
        assert "== T ==" in text
        assert "hello" in text

    def test_column_extraction(self):
        table = BenchTable(title="T", headers=["x", "y"])
        table.add_row(1, "a")
        table.add_row(2, "b")
        assert table.column("y") == ["a", "b"]
        with pytest.raises(ValueError):
            table.column("z")

    def test_typed_cells_print_through_their_column_format(self):
        table = BenchTable(title="T", headers=["system", "time", "speedup"],
                           formats={"time": ms, "speedup": "{:.2f}x"})
        table.add_row("ems", 0.0250321, 1.0)
        table.add_row("wiscsort", 0.0095392, "")
        assert table.render().splitlines()[3:] == [
            "ems       25.032  1.00x", "wiscsort  9.539"]
        assert table.column("time") == [0.0250321, 0.0095392]
        assert table.cell("time", "wiscsort") == 0.0095392
        assert table.records()[0] == {"system": "ems", "time": 0.0250321, "speedup": 1.0}

    def test_cell_lookup_needs_exactly_one_row(self):
        table = BenchTable(title="T", headers=["kind", "n", "v"])
        table.add_row("read", 1, 0.5)
        table.add_row("read", 2, 0.7)
        assert table.cell("v", "read", 2) == 0.7
        with pytest.raises(KeyError):
            table.cell("v", "read")
        with pytest.raises(KeyError):
            table.cell("v", "write")


class TestIoEfficiency:
    def test_solo_ops_are_fully_efficient(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            yield machine.io("read", Pattern.SEQ, 1 << 24, tag="r", threads=16)
            yield machine.io("write", Pattern.SEQ, 1 << 24, tag="w", threads=5)

        machine.run(job())
        rows = {tag: eff for tag, _, _, eff in io_efficiency_rows(machine)}
        assert rows["r"] == pytest.approx(1.0, abs=0.01)
        assert rows["w"] == pytest.approx(1.0, abs=0.01)

    def test_undersized_pool_shows_inefficiency(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            # 2 threads cannot reach the 16-thread sequential peak.
            yield machine.io("read", Pattern.SEQ, 1 << 24, tag="r", threads=2)

        machine.run(job())
        rows = {tag: eff for tag, _, _, eff in io_efficiency_rows(machine)}
        assert rows["r"] < 0.5

    def test_compute_tags_excluded(self, pmem):
        machine = Machine(profile=pmem)

        def job():
            yield machine.compute(0.001, tag="cpu-only", cores=1)

        machine.run(job())
        assert io_efficiency_rows(machine) == []
