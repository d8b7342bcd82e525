"""Percentiles are nearest-rank and need ten samples beyond them."""

import pytest

from perfbench.stats import MIN_BEYOND, percentile


def test_nearest_rank_picks_a_sample():
    values = [float(v) for v in range(100, 0, -1)]  # order must not matter
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 12.5) == 13.0


def test_tail_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    # p99 of 100 samples has one sample beyond it: not reported.
    assert percentile(list(range(100)), 99) is None
    # 1000 samples: rank 990 leaves exactly ten beyond.
    assert percentile(list(range(1, 1001)), 99) == 990
    # 999 samples: rank 990 leaves nine beyond.
    assert percentile(list(range(1, 1000)), 99) is None
    assert percentile([1.0] * 10, 50) is None
    assert percentile([1.0] * 20, 50) == 1.0


@pytest.mark.parametrize("q", [0, 100, -1, 101])
def test_rejects_degenerate_quantiles(q):
    with pytest.raises(ValueError):
        percentile([1.0] * 50, q)

