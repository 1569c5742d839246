"""README's perf table is rendered from ``BENCH_ledger.json``.

The ledger series holds one row per side of every alternated
parent/change comparison: a parent row names its commit, the change row
after it has ``commit`` null (the commit that adds it) and names its
source tree.  README.md carries one table between the ``ledger:begin``
and ``ledger:end`` markers with each such pair's ``host_user_s`` median
and quartiles and the change, and this test fails, printing the block
to paste, when the README differs from :func:`render`.

Run as a script to print the block: ``python tests/test_ledger_table.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BEGIN = "<!-- ledger:begin (generated from BENCH_ledger.json by tests/test_ledger_table.py) -->"
END = "<!-- ledger:end -->"


def pairs(rows):
    """``(parent, change)`` rows: a row naming a commit followed by a
    ``commit: null`` row of the same workload and seed."""
    for parent, change in zip(rows, rows[1:]):
        if (
            parent["commit"] is not None
            and change["commit"] is None
            and (parent["workload"], parent["seed"]) == (change["workload"], change["seed"])
        ):
            yield parent, change


def _quartiles(stats) -> str:
    return f"{stats['median']:.3f} ({stats['q1']:.3f}-{stats['q3']:.3f})"


def render(ledger: dict) -> str:
    lines = [
        BEGIN,
        "",
        "| parent | change (src tree) | workload | seed | pairs "
        "| parent `host_user_s` median (q1-q3) | change `host_user_s` median (q1-q3) | change |",
        "|--------|-------------------|----------|-----:|------:"
        "|----------------------------:|----------------------------:|-------:|",
    ]
    for parent, change in pairs(ledger["rows"]):
        before = parent["host_user_s"]["median"]
        after = change["host_user_s"]["median"]
        lines.append(
            f"| `{parent['commit']}` | `{change['src_tree'][:7]}` "
            f"| `{parent['workload']}` | {parent['seed']} | {change['pairs']} "
            f"| {_quartiles(parent['host_user_s'])} s "
            f"| {_quartiles(change['host_user_s'])} s "
            f"| {(after - before) / before * 100:+.1f} % |"
        )
    lines += ["", END]
    return "\n".join(lines)


def readme_block(text: str) -> str:
    start = text.index(BEGIN)
    return text[start : text.index(END, start) + len(END)]


def test_readme_table_is_the_rendered_ledger():
    ledger = json.loads((ROOT / "BENCH_ledger.json").read_text(encoding="utf-8"))
    expected = render(ledger)
    actual = readme_block((ROOT / "README.md").read_text(encoding="utf-8"))
    assert actual == expected, "README.md's ledger table is stale; paste:\n" + expected


def test_pairs_need_the_same_workload_and_seed_in_order():
    row = {"host_user_s": {"median": 1.0, "q1": 1.0, "q3": 1.0}, "pairs": 4}
    rows = [
        {**row, "commit": "aaa", "src_tree": "t0", "workload": "w", "seed": 1},
        {**row, "commit": None, "src_tree": "t1", "workload": "w", "seed": 1},
        {**row, "commit": "aaa", "src_tree": "t0", "workload": "w", "seed": 2},
        {**row, "commit": None, "src_tree": "t1", "workload": "v", "seed": 2},
        {**row, "commit": None, "src_tree": "t1", "workload": "v", "seed": 2},
    ]
    assert [(p["seed"], c["workload"]) for p, c in pairs(rows)] == [(1, "w")]


if __name__ == "__main__":
    print(render(json.loads((ROOT / "BENCH_ledger.json").read_text(encoding="utf-8"))))
