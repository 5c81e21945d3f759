"""Direct unit tests for percentile edge behavior and SLO accounting."""

import pytest

from repro.errors import ConfigError
from repro.serving.metrics import slo_attainment
from repro.sim.stats import percentiles


def percentile(values, pct):
    return percentiles(values, (pct,))[0]


# ----------------------------------------------------------------------
# percentile edges
# ----------------------------------------------------------------------
def test_percentile_zero_is_minimum():
    assert percentile([5.0, 1.0, 9.0], 0.0) == 1.0


def test_percentile_hundred_is_maximum():
    assert percentile([5.0, 1.0, 9.0], 100.0) == 9.0


def test_percentile_single_sample_any_pct():
    for pct in (0.0, 1.0, 50.0, 95.0, 99.9, 100.0):
        assert percentile([42.0], pct) == 42.0


def test_percentile_empty_is_zero():
    assert percentile([], 95.0) == 0.0
    assert percentile([], 0.0) == 0.0


def test_percentile_rejects_out_of_range():
    with pytest.raises(ConfigError):
        percentile([1.0], -0.1)
    with pytest.raises(ConfigError):
        percentile([1.0], 100.1)


def test_percentile_nearest_rank_interior():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    # Tiny positive percentile rounds up to the first rank, not below it.
    assert percentile(values, 0.5) == 1.0


def test_percentiles_share_one_sort():
    values = [float(i) for i in range(1, 101)]
    assert percentiles(values, (50.0, 95.0, 100.0)) == [50.0, 95.0, 100.0]
    assert percentiles([], (50.0, 95.0)) == [0.0, 0.0]
    assert percentiles(values, ()) == []


# ----------------------------------------------------------------------
# attainment / goodput
# ----------------------------------------------------------------------
def test_slo_attainment_completed_only():
    lats = [10.0, 20.0, 30.0, 40.0]
    assert slo_attainment(lats, 25.0) == pytest.approx(0.5)


def test_slo_attainment_counts_unfinished_as_misses():
    lats = [10.0, 20.0]
    assert slo_attainment(lats, 25.0, offered=4) == pytest.approx(0.5)
    assert slo_attainment(lats, 5.0, offered=4) == 0.0


def test_slo_attainment_empty_is_perfect():
    assert slo_attainment([], 100.0) == 1.0
    assert slo_attainment([], 100.0, offered=0) == 1.0


def test_slo_validation():
    with pytest.raises(ConfigError):
        slo_attainment([1.0], 0.0)
