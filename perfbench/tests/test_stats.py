"""Summary arithmetic: percentile selection, failure counting, rate selection."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_samples_beyond_uses_nearest_rank():
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.samples_beyond(999, 99.0) == 9
    samples = list(range(1, 1001))
    assert stats.percentile(samples, 99.0) == 990
    assert sum(1 for s in samples if s > stats.percentile(samples, 99.0)) == 10


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_windows_are_whole_and_consecutive():
    assert stats.windows(list(range(7)), size=3) == [[0, 1, 2], [3, 4, 5]]
    assert stats.windows(list(range(2)), size=3) == []


def test_failed_frac_counts_every_kind_of_failure():
    assert stats.failed_frac(attempted=100, errors=1, shed=2, lost=3, timed_out=4) == pytest.approx(0.10)
    assert stats.failed_frac(attempted=5) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac(attempted=0)


def _level(offered, achieved, p99, failed=0):
    return {"offered_qps": offered, "achieved_qps": achieved, "p99_ms": p99, "failed": failed}


def test_max_ok_rate_picks_the_highest_passing_level():
    levels = [_level(150, 150, 20), _level(300, 299, 60), _level(600, 420, 900)]
    assert stats.max_ok_rate(levels)["offered_qps"] == 300


@pytest.mark.parametrize(
    "bad",
    [_level(300, 299, 101), _level(300, 299, 60, failed=1), _level(300, 280, 60)],
    ids=["p99-over-limit", "a-failure", "achieved-below-95pct"],
)
def test_max_ok_rate_rejects_a_level_missing_any_limit(bad):
    levels = [_level(150, 150, 20), bad]
    assert stats.max_ok_rate(levels)["offered_qps"] == 150


def test_max_ok_rate_is_none_when_nothing_passes():
    assert stats.max_ok_rate([_level(150, 100, 20)]) is None
