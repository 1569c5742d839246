"""A cluster dataset's parts are recipes of their own record ranges.

``generate_cluster_dataset`` builds part ``i`` from rows ``[lo, hi)``
alone: PCG64 jumps ahead to the word holding the part's first key byte,
and ids and fill start from the part's first id.  Every part must equal
its slice of the whole dataset, both as generated and as a released
part makes it again, whatever the record count (0, within one 8,192-row
generator block, across blocks), shard count, seed and geometry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, generate_cluster_dataset
from repro.errors import RecordFormatError
from repro.records.format import RecordFormat
from repro.records.gensort import DatasetRecipe, make_records

records = st.one_of(
    st.sampled_from([0, 1, 8_191, 8_192, 8_193]), st.integers(0, 20_000)
)


@settings(max_examples=60, deadline=None)
@given(
    n_records=records,
    shards=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    key_size=st.integers(1, 16),
    value_size=st.integers(0, 24),
)
def test_every_part_is_its_slice_of_the_dataset(n_records, shards, seed, key_size, value_size):
    fmt = RecordFormat(key_size=key_size, value_size=value_size)
    whole = make_records(n_records, fmt, seed=seed).reshape(-1)
    data = generate_cluster_dataset(Cluster(shards=shards), "in", n_records, fmt, seed=seed)
    assert data.merged().tobytes() == whole.tobytes()
    data.release()
    at = 0
    for part in data.parts:
        assert part._data is None
        piece = whole[at : at + part.size]
        assert np.array_equal(part.peek(), piece), part.name
        at += part.size
    assert at == whole.size


def test_a_range_needs_binary_keys_and_rows_inside_the_dataset():
    fmt = RecordFormat()
    assert make_records(100, fmt, ascii_keys=True, start=0, stop=100).shape == (100, 100)
    with pytest.raises(RecordFormatError):
        make_records(100, fmt, ascii_keys=True, start=10, stop=100)
    for start, stop in [(-1, 5), (5, 4), (0, 101)]:
        with pytest.raises(RecordFormatError):
            DatasetRecipe(100, fmt, 0, False, start, stop)()
