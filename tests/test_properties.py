"""Property tests on drawn inputs; skipped where hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from equirobust.robust2d import TruncationSweep, summarize_sweep  # noqa: E402

from conftest import assert_summary_is_reference  # noqa: E402

_BIN_TYPES = [int, np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64]


@st.composite
def _sweeps(draw):
    """(sweep, bins): random sweep columns, areas often exactly on a bin edge."""
    bins = draw(st.sampled_from(_BIN_TYPES))(draw(st.integers(1, 64)))
    edges = np.linspace(0.0, 1.0, int(bins) + 1).tolist()
    rows = draw(st.integers(1, 80))
    area = st.one_of(st.floats(0.0, 1.0), st.sampled_from(edges), st.integers(0, int(bins)).map(lambda k: k / int(bins)))
    relative_area = np.array(draw(st.lists(area, min_size=rows, max_size=rows)))
    piece_S = np.array(draw(st.lists(st.integers(-1, 12), min_size=rows, max_size=rows)))
    S0 = draw(st.integers(2, 12))
    zeros = np.zeros(rows)
    return TruncationSweep(S0, zeros, zeros, np.ones(rows, dtype=int), relative_area, piece_S), bins


@settings(max_examples=100, deadline=None)
@given(_sweeps())
def test_summary_matches_the_per_category_reference(drawn):
    sweep, bins = drawn
    assert_summary_is_reference(summarize_sweep(sweep, bins), sweep, bins)
