"""Pure summary arithmetic shared by every workload (unit-tested)."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles a tail report may pick from, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Latency samples per window.  Runs report the median over windows of each
#: window's percentiles, which keeps a few seconds of host noise from moving
#: the run's figure; 1,000 samples leave 10 beyond each window's p99.
WINDOW = 1000


def _rank(count: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(pct / 100.0 * count, 6)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def windows(samples: Sequence, size: int = WINDOW) -> List[Sequence]:
    """Consecutive full windows of ``size`` samples; a partial tail is dropped."""
    return [samples[i : i + size] for i in range(0, len(samples) - size + 1, size)]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with ``MIN_BEYOND`` samples beyond it."""
    eligible = [p for p in TAIL_PERCENTILES if samples_beyond(count, p) >= MIN_BEYOND]
    return eligible[-1] if eligible else None


def failed_frac(*, attempted: int, errors: int = 0, shed: int = 0, lost: int = 0, timed_out: int = 0) -> float:
    """(errors + shed + lost + timed-out) / attempted."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return (errors + shed + lost + timed_out) / attempted


#: Serving limits behind ``max_ok_rate_qps``.
P99_LIMIT_MS = 100.0
MIN_ACHIEVED = 0.95


def max_ok_rate(levels: Iterable[Dict[str, float]]) -> Optional[Dict[str, float]]:
    """The highest offered-rate level that meets every serving limit.

    Each level carries ``offered_qps``, ``achieved_qps``, ``p99_ms`` and
    ``failed``.  A level passes when its p99 is within ``P99_LIMIT_MS``,
    nothing failed, and the achieved rate is at least ``MIN_ACHIEVED`` of the
    offered one.  Returns the passing level with the highest offered rate.
    """
    passing = [
        level
        for level in levels
        if level["p99_ms"] <= P99_LIMIT_MS
        and level["failed"] == 0
        and level["achieved_qps"] >= MIN_ACHIEVED * level["offered_qps"]
    ]
    return max(passing, key=lambda level: level["offered_qps"]) if passing else None

