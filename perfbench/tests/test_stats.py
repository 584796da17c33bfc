"""The tail rule: ten samples beyond the percentile, none under forty."""

import pytest

import stats


def test_no_tail_under_forty_samples():
    assert stats.tail([float(i) for i in range(39)]) is None


@pytest.mark.parametrize("count", [40, 41, 57, 100, 1000])
def test_tail_has_ten_samples_beyond_it(count):
    values = [float(i) for i in reversed(range(count))]
    value, percentile = stats.tail(values)
    beyond = [v for v in values if v > value]
    assert len(beyond) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (count - 10) / count)


def test_forty_samples_give_the_75th_percentile():
    assert stats.tail([float(i) for i in range(40)]) == (29.0, 75.0)


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
