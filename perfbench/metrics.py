"""Metric names, units and the arithmetic that turns samples into them."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from perfbench import stats
from perfbench.trace import Span, self_time_by_name

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_qps": "1/s",
    "update_p50_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "api.self_ms_per_query": "ms",
    "engine.session_self_ms_per_query": "ms",
    "engine.dispatch_ms_per_query": "ms",
    "engine.dist_cache_hit_rate": "fraction",
    "engine.reverse_bfs_calls": "count",
    "engine.reverse_bfs_ms_per_query": "ms",
    "index.build_self_ms_per_query": "ms",
    "index.forward_bfs_ms_per_query": "ms",
    "index.edges_per_query": "count",
    "plan.ms_per_query": "ms",
    "plan.join_share": "fraction",
    "enum.ms_per_query": "ms",
    "enum.edges_accessed_per_query": "count",
    "enum.useful_ratio": "fraction",
    "result.self_ms_per_query": "ms",
    "server.submit_ms_per_query": "ms",
    "server.residual_ms_per_query": "ms",
    "server.job_ms_p50": "ms",
    "server.wait_ms_p50": "ms",
    "server.queue_depth_high_water": "count",
    "protocol.encode_ms_per_query": "ms",
    "protocol.decode_ms_per_query": "ms",
    "live.apply_ms_p50": "ms",
    "live.repair_ms_p50": "ms",
    "live.repair_incremental_ratio": "fraction",
    "live.compactions": "count",
    "loadgen.lateness_ms_p99": "ms",
    "trace.coverage": "fraction",
    "trace.overhead_ratio": "ratio",
}

#: Span name -> per-query self-time metric.  Every span name the tracer
#: records appears here, so the metrics partition the traced wall time.
SELF_TIME_METRICS = {
    "api": "api.self_ms_per_query",
    "engine.session": "engine.session_self_ms_per_query",
    "engine.dispatch": "engine.dispatch_ms_per_query",
    "engine.reverse_bfs": "engine.reverse_bfs_ms_per_query",
    "index.build": "index.build_self_ms_per_query",
    "index.forward_bfs": "index.forward_bfs_ms_per_query",
    "plan": "plan.ms_per_query",
    "enum": "enum.ms_per_query",
    "result": "result.self_ms_per_query",
    "server.submit": "server.submit_ms_per_query",
    "client.request": "server.residual_ms_per_query",
    "protocol.encode": "protocol.encode_ms_per_query",
    "protocol.decode": "protocol.decode_ms_per_query",
    "loadgen.lateness": None,  # reported as a percentile, below
}


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def ms(seconds: float) -> float:
    return seconds * 1e3


def p50_ms(seconds: Sequence[float]) -> float:
    return ms(statistics.median(seconds)) if seconds else 0.0


def pair_p50_ms(round_trips: Sequence[Optional[float]]) -> float:
    """Median over remove/re-add pairs of the pair's mean round trip (ms).

    ``round_trips`` alternates removal, re-add (``None`` for a failed
    write, which drops its pair).  A removal repairs the cached distance
    arrays and costs several times a re-add, so the median of single writes
    falls in the gap between the two groups and jumps across it from run to
    run; the pair mean has one mode.
    """
    pairs = [
        (removal + addition) / 2.0
        for removal, addition in zip(round_trips[0::2], round_trips[1::2])
        if removal is not None and addition is not None
    ]
    return p50_ms(pairs)


def read_layers(spans: Sequence[Span], *, queries: int, wall_ns: int) -> Dict[str, float]:
    """Per-query self times and counters over the spans of ``queries`` reads.

    ``spans`` holds every span the reads caused, parent links included;
    ``wall_ns`` is the traced wall time they should partition.
    """
    totals = self_time_by_name(spans)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    out = {metric: 0.0 for metric in PER_LAYER_UNITS}
    for name, metric in SELF_TIME_METRICS.items():
        if metric is not None:
            out[metric] = totals.get(name, 0) / 1e6 / queries
    reverse = count("engine.reverse_bfs")
    out["engine.reverse_bfs_calls"] = reverse
    out["engine.dist_cache_hit_rate"] = 1.0 - reverse / queries
    builds, plans = count("index.build"), count("plan")
    out["index.edges_per_query"] = attr_sum("index.build", "edges") / builds if builds else 0.0
    out["plan.join_share"] = attr_sum("plan", "join") / plans if plans else 0.0
    out["enum.edges_accessed_per_query"] = attr_sum("enum", "edges") / queries
    partial = attr_sum("enum", "partial")
    out["enum.useful_ratio"] = 1.0 - attr_sum("enum", "invalid") / partial if partial else 1.0
    lateness = [s.duration / 1e6 for s in spans if s.name == "loadgen.lateness"]
    out["loadgen.lateness_ms_p99"] = stats.percentile(lateness, 99.0) if lateness else 0.0
    out["trace.coverage"] = sum(totals.values()) / wall_ns
    return out


def write_layers(spans: Sequence[Span], compactions: int) -> Dict[str, float]:
    """Live-update metrics from the spans of the write operations."""
    applies = [s.duration / 1e9 for s in spans if s.name == "live.apply"]
    repairs = [s for s in spans if s.name == "live.repair"]
    return {
        "live.apply_ms_p50": p50_ms(applies),
        "live.repair_ms_p50": p50_ms([s.duration / 1e9 for s in repairs]),
        "live.repair_incremental_ratio": (
            sum(s.attrs.get("incremental", 0) for s in repairs) / len(repairs) if repairs else 0.0
        ),
        "live.compactions": compactions,
    }


class Report:
    """What one run prints: end-to-end or per-layer metrics plus the checks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        #: The traced run's spans, written out when the run ends.
        self.spans: List[Span] = []
        self.notes: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems

    def set_end_to_end(
        self, *, setup_s: float, latency_windows: Sequence[Sequence[float]],
        throughput_qps: float, update_p50_ms: float, updates: int, rss_mb: float,
    ) -> None:
        """Latency percentiles are medians over windows of ``stats.WINDOW`` queries."""
        if not latency_windows or min(map(len, latency_windows)) < stats.WINDOW:
            raise RuntimeError(f"need whole windows of {stats.WINDOW} latency samples")
        count = min(map(len, latency_windows))
        self.end_to_end = {
            "setup_s": setup_s,
            "latency_p50_ms": statistics.median(ms(stats.percentile(w, 50.0)) for w in latency_windows),
            "latency_p99_ms": statistics.median(ms(stats.percentile(w, 99.0)) for w in latency_windows),
            "throughput_qps": throughput_qps,
            "update_p50_ms": update_p50_ms,
            "ok_frac": 1.0 - stats.failed_frac(attempted=self.attempted, errors=self.failed),
            "peak_rss_mb": rss_mb,
        }
        tail = stats.tail_percentile(count)
        self.notes.append(
            f"latency: median over {len(latency_windows)} windows of {count}+ samples; p{tail:g} is the "
            f"highest percentile with {stats.MIN_BEYOND}+ samples beyond it in every window; "
            f"{updates} update samples"
        )
        self.notes.append("per-window p50/p99 ms: " + ", ".join(
            f"{ms(stats.percentile(w, 50.0)):.3f}/{ms(stats.percentile(w, 99.0)):.3f}" for w in latency_windows
        ))

    def result(self, trace: bool) -> Dict[str, object]:
        chosen, units = (self.per_layer, PER_LAYER_UNITS) if trace else (self.end_to_end, END_TO_END_UNITS)
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
        }

    def lines(self, trace: bool) -> List[str]:
        chosen, units = (self.per_layer, PER_LAYER_UNITS) if trace else (self.end_to_end, END_TO_END_UNITS)
        out = [f"workload {self.workload}: correct={self.correct} attempted={self.attempted} failed={self.failed} "
               f"failed_frac={self.failed / max(1, self.attempted):.6f}"]
        out += [f"  {name} = {chosen[name]:.6g} {units[name]}" for name in units]
        out += [f"  note: {note}" for note in self.notes]
        out += [f"  MISMATCH: {problem}" for problem in self.problems]
        return out

