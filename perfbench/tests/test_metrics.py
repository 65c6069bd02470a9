"""Metric arithmetic over raw samples."""

import pytest

from perfbench import metrics


def test_update_p50_is_the_median_pair_mean():
    # Removals (~4 ms) cost more than re-adds (~1 ms): single-write medians
    # would sit between the groups; pair means do not.
    round_trips = [0.004, 0.001, 0.005, 0.001, 0.003, 0.001]
    assert metrics.pair_p50_ms(round_trips) == pytest.approx(2.5)


def test_a_failed_write_drops_its_pair():
    assert metrics.pair_p50_ms([0.004, None, 0.002, 0.002]) == pytest.approx(2.0)
    assert metrics.pair_p50_ms([None, 0.001]) == 0.0


def test_set_end_to_end_takes_medians_over_windows():
    report = metrics.Report("w")
    report.attempted, report.failed = 3001, 1
    windows = [[0.001] * 990 + [0.010] * 10, [0.002] * 1000, [0.003] * 1000]
    report.set_end_to_end(
        setup_s=0.5, latency_windows=windows, throughput_qps=500.0,
        update_p50_ms=2.0, updates=10, rss_mb=60.0,
    )
    assert report.end_to_end["latency_p50_ms"] == pytest.approx(2.0)
    assert report.end_to_end["latency_p99_ms"] == pytest.approx(2.0)
    assert report.end_to_end["ok_frac"] == pytest.approx(3000 / 3001)
    assert set(report.result(trace=False)["metrics"]) == set(metrics.END_TO_END_UNITS)


def test_a_window_too_small_for_p99_is_refused():
    report = metrics.Report("w")
    report.attempted = 100
    with pytest.raises(RuntimeError):
        report.set_end_to_end(
            setup_s=0.5, latency_windows=[[0.001] * 100], throughput_qps=1.0,
            update_p50_ms=1.0, updates=0, rss_mb=1.0,
        )
