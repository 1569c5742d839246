"""Every paper claim at the default scale, and EXPERIMENTS.md in sync.

``repro.bench.claims.check`` runs each experiment once (deterministic
simulations: repetition adds nothing) and measures every row of
``repro.bench.claims.CLAIMS``.  EXPERIMENTS.md's tables are that check's render,
so a number that drifts fails here.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS, check
from repro.workloads.datasets import DEFAULT_SCALE

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN, END = "<!-- claims:begin -->", "<!-- claims:end -->"


@pytest.fixture(scope="module")
def report():
    return check(DEFAULT_SCALE)


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim_holds(claim, report):
    measured = report.of(claim.id)
    assert measured.holds, str(measured)


def test_experiments_md_is_the_fresh_render(report):
    generated = EXPERIMENTS.read_text(encoding="utf-8").split(BEGIN)[1].split(END)[0]
    assert generated.strip() == report.render(), (
        "EXPERIMENTS.md is stale: regenerate its tables with "
        f"`repro bench claims --scale {DEFAULT_SCALE}`"
    )
