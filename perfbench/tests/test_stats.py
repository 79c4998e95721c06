import statistics

import pytest

import stats


@pytest.mark.parametrize(
    "n, p",
    [
        (1, 50.0),  # too few for any tail: the median stands in
        (19, 50.0),
        (20, 50.0),  # exactly 10 beyond the median
        (39, 50.0),  # p75 would leave 9.75
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),  # p99 would leave 9.99
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p
    assert n * (100 - p) / 100 >= 10 - 1e-9 or p == 50.0


def test_tail_reports_value_percentile_and_count():
    values = [float(i) for i in range(1, 101)]  # 1..100
    value, p, count = stats.tail(values)
    assert (p, count) == (90.0, 100)
    assert value == pytest.approx(90.1)  # linear interpolation at rank 89.1
    assert stats.percentile(values, 50) == pytest.approx(50.5)


def test_percentile_single_value_and_empty():
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartiles_match_statistics_module():
    values = [10.0, 11.0, 12.0, 13.0, 30.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)


def _verdict(parent, change, higher=False, bound=0.1):
    pairs = list(zip(parent, change))
    return stats.verdict(parent, change, pairs, higher, bound)[0]


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_verdict_improved_needs_nine_tenths_and_a_gap_over_the_spread():
    change = [v * 0.8 for v in PARENT]
    assert _verdict(PARENT, change) == stats.IMPROVED
    # higher-is-better metrics read the other way
    assert _verdict(PARENT, [v * 1.2 for v in PARENT], higher=True) == stats.IMPROVED
    # one lost pair in ten is still nine tenths
    one_lost = change[:9] + [PARENT[9] + 1.0]
    assert _verdict(PARENT, one_lost) == stats.IMPROVED
    # two lost pairs are not
    two_lost = change[:8] + [PARENT[8] + 1.0, PARENT[9] + 1.0]
    assert _verdict(PARENT, two_lost) != stats.IMPROVED


def test_verdict_small_gain_within_spread_is_no_worse():
    change = [v - 0.01 for v in PARENT]  # wins every pair, gap below the IQR
    assert _verdict(PARENT, change) == stats.NO_WORSE


def test_verdict_worse_beyond_bound():
    assert _verdict(PARENT, [v * 1.3 for v in PARENT]) == stats.WORSE
    assert _verdict(PARENT, [v * 1.05 for v in PARENT]) == stats.NO_WORSE
    assert _verdict(PARENT, [v * 0.7 for v in PARENT], higher=True) == stats.WORSE


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    change = [10.0] * 10
    assert _verdict(noisy, change) == stats.UNRESOLVED
    # unless every change run reads better than every parent run
    assert _verdict(noisy, [4.0] * 10) != stats.UNRESOLVED


def test_verdict_without_bound():
    assert _verdict(PARENT, [v * 1.3 for v in PARENT], bound=None) == stats.NO_BOUND
    assert _verdict(PARENT, [v * 0.5 for v in PARENT], bound=None) == stats.IMPROVED


def test_verdict_ties_count_for_neither():
    verdict, facts = stats.verdict(PARENT, PARENT, list(zip(PARENT, PARENT)), False, 0.1)
    assert (facts["wins"], facts["losses"]) == (0, 0)
    assert verdict == stats.NO_WORSE
