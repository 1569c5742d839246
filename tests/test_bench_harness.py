"""Smoke tests for the experiment harness at heavily reduced scale.

The paper's claims over these tables are ``repro.bench.claims.CLAIMS``
(``tests/integration/test_claims.py``); here we only verify each
experiment builds its table from a reduced sweep.
"""

from __future__ import annotations


from repro.bench import (
    fig01_motivation,
    fig04_sortbenchmark,
    fig07_concurrency,
    fig08_kv_split,
    fig09_strided_vs_seq,
    fig10_interference,
    fig11_future_devices,
    tab01_compliance,
)

SMOKE_SCALE = 20_000  # 400M-record experiments shrink to 20k records


class TestHarnessSmoke:
    def test_tab01_matches_paper_matrix(self):
        table = tab01_compliance()
        assert len(table.rows) == 6
        wisc = [row for row in table.rows if row[0] == "wiscsort"][0]
        assert wisc[1:] == [True] * 5
        pmsort = [row for row in table.rows if row[0] == "pmsort"][0]
        assert pmsort[1:] == [True, False, True, False, False]

    def test_fig01_builds(self):
        table = fig01_motivation(scale=SMOKE_SCALE)
        assert len(table.rows) == 4

    def test_fig04_builds(self):
        table = fig04_sortbenchmark(scale=SMOKE_SCALE, paper_gbs=(40, 160))
        assert len(table.rows) == 4
        passes = table.column("pass")
        assert passes[1] == "one" and passes[3] == "merge"

    def test_fig07_builds(self):
        table = fig07_concurrency(scale=SMOKE_SCALE)
        assert len(table.rows) == 9

    def test_fig08_builds(self):
        table = fig08_kv_split(scale=SMOKE_SCALE, value_sizes=(10, 90))
        assert len(table.rows) == 2

    def test_fig09_builds(self):
        table = fig09_strided_vs_seq(scale=SMOKE_SCALE, value_sizes=(90,))
        assert len(table.rows) == 1

    def test_fig10_builds(self):
        table = fig10_interference(scale=SMOKE_SCALE, client_counts=(0, 4))
        assert len(table.rows) == 4

    def test_fig11_builds(self):
        table = fig11_future_devices(scale=SMOKE_SCALE, devices=("brd-device",))
        assert len(table.rows) == 5

    def test_tables_render(self):
        text = tab01_compliance().render()
        assert "BRAID" in text


class TestAblationSmoke:
    def test_write_pool_sweep_builds(self):
        from repro.bench import ablation_write_pool

        table = ablation_write_pool(scale=SMOKE_SCALE, pool_sizes=(1, 5))
        assert len(table.rows) == 2

    def test_dram_budget_sweep_builds(self):
        from repro.bench import ablation_dram_budget

        table = ablation_dram_budget(
            scale=SMOKE_SCALE, budget_fractions=(0.5, 1.25)
        )
        passes = table.column("pass")
        assert passes == ["merge", "one"]

    def test_merge_fanin_builds(self):
        from repro.bench import ablation_merge_fanin

        table = ablation_merge_fanin(
            scale=SMOKE_SCALE, read_buffers=(4 * 1024, 64 * 1024)
        )
        assert len(table.rows) == 2

    def test_natural_runs_builds(self):
        from repro.bench import ablation_natural_runs

        table = ablation_natural_runs(
            scale=SMOKE_SCALE, presorted_fractions=(1.0,)
        )
        assert len(table.rows) == 2  # pmem + bard
