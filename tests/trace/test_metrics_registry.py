"""Tests for the service report's percentile :class:`Histogram`."""

from __future__ import annotations

import pytest

from repro.trace.metrics import Histogram


class TestInstruments:
    def test_histogram_buckets_and_mean(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(105.5 / 3)
        assert h.counts == [1, 1, 1]

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, 1.0))


class TestPercentileEdgeCases:
    def test_empty_histogram_is_zero(self):
        h = Histogram("x")
        assert h.percentile(0.0) == 0.0
        assert h.percentile(50.0) == 0.0
        assert h.percentile(99.9) == 0.0

    def test_out_of_range_raises(self):
        h = Histogram("x")
        with pytest.raises(ValueError):
            h.percentile(-0.1)
        with pytest.raises(ValueError):
            h.percentile(100.1)

    def test_single_sample_returns_that_value(self):
        h = Histogram("x")
        h.observe(0.005)
        for q in (0.0, 1.0, 50.0, 99.9, 100.0):
            assert h.percentile(q) == 0.005

    def test_all_samples_in_one_bucket_clamp_to_extrema(self):
        h = Histogram("x", buckets=(1.0, 10.0))
        for v in (2.0, 4.0, 9.0):
            h.observe(v)
        # Interpolation is clamped to the exact observed [vmin, vmax],
        # never the raw bucket edges (1.0, 10.0).
        assert h.percentile(100.0) == 9.0
        assert h.percentile(0.0) >= 2.0
        assert 2.0 <= h.percentile(50.0) <= 9.0

    def test_p999_interpolates_at_bucket_boundary(self):
        h = Histogram("x", buckets=(1.0, 2.0, 3.0))
        for _ in range(999):
            h.observe(1.0)
        h.observe(3.0)
        # rank(99.9) sits a float ulp past the 999 samples in the first
        # bucket, so the estimate lands on the next bucket's lower edge.
        assert h.percentile(99.9) == pytest.approx(2.0)
        # Half a sample further interpolates inside the last bucket:
        # lo = previous edge (2.0), hi = vmax (3.0), frac = 0.5.
        assert h.percentile(99.95) == pytest.approx(2.5)
        # And everything below the boundary stays in the first bucket.
        assert h.percentile(99.0) == 1.0

    def test_overflow_bucket_interpolates_to_true_max(self):
        h = Histogram("x", buckets=(1.0,))
        h.observe(5.0)
        h.observe(7.0)
        assert h.percentile(100.0) == 7.0
        assert 1.0 <= h.percentile(50.0) <= 7.0
