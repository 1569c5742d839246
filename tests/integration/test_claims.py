"""Every scale-stable paper claim holds at the tier-1 scale.

One check (``repro.bench.claims.check``) runs each experiment once and
measures every row of ``repro.bench.claims.CLAIMS``; ``benchmarks/bench_claims.py``
checks every row at the default scale.
"""

from __future__ import annotations

import pytest

from repro.bench.claims import CLAIMS, Band, Claim, above, below
from repro.metrics.report import BenchTable

STABLE = [c for c in CLAIMS if c.scale_stable]


def test_claim_ids_are_unique():
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)


def test_bands_keep_their_open_and_closed_ends():
    assert not above(1.0).holds(1.0) and above(1.0).holds(1.01)
    assert not below(1.0).holds(1.0) and Band(hi=1.0).holds(1.0)
    assert Band(1.4, 3.0).holds(1.4) and not Band(1.4, 3.0).holds(3.01)
    assert [str(b) for b in (above(1.0), Band(0.85), Band(hi=2.0), Band(0, 0), Band(2.0, 4.0))] \
        == ["> 1.0", "≥ 0.85", "≤ 2.0", "= 0", "[2.0, 4.0]"]


def test_every_value_of_a_sweep_must_lie_in_the_band():
    table = BenchTable(title="T", headers=["v", "speedup"])
    for v, s in ((10, 0.9), (50, 1.5)):
        table.add_row(v, s)
    claim = Claim("t", "wins everywhere", "yes", above(1.0),
                  lambda t: tuple(t.column("speedup")))
    measured = claim.measure(table)
    assert (measured.text, measured.holds) == ("0.90x / 1.50x", False)
    assert "is outside > 1.0" in str(measured)


@pytest.mark.parametrize("claim", STABLE, ids=[c.id for c in STABLE])
def test_claim_holds(claim, claims):
    measured = claims.of(claim.id)
    assert measured.holds, str(measured)
