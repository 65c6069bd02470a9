"""The inline workloads: one caller, closed loop, through ``Database``."""

from __future__ import annotations

import hashlib
import itertools
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import inputs, layers, metrics, stats
from perfbench.trace import Tracer
from repro import Database
from repro.baselines.generic_dfs import GenericDfs
from repro.core.listener import RunConfig
from repro.core.query import Query
from repro.graph.digraph import DiGraph
from repro.graph.snapshot import save_snapshot
from repro.workloads.datasets import load_dataset

#: Fresh-interpreter ``Database`` opens (plus first query) per run;
#: ``setup_s`` is their median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
#: Edges sampled for the write probe's remove/re-add pairs (more than a run uses).
WRITE_PAIRS = 1000
#: The untraced probe runs this many pairs every ``WRITE_EVERY_S`` of the read loop.
WRITE_CHUNK = 20
WRITE_EVERY_S = 1.0
#: Pairs of the traced run's probe, which follows its read passes.
TRACED_WRITE_PAIRS = 150
#: Unmeasured queries that open a traced run.
WARMUP_QUERIES = 200


@dataclass
class InlineWorkload:
    name: str
    dataset: str
    k: int
    count: int
    make_queries: Callable[..., List[Query]]
    #: Seeded sample size checked against the GenericDFS oracle.
    oracle_sample: int
    #: Queries that warm the write probe's database and check it afterwards.
    probe_queries: int


INLINE_WORKLOADS = {
    "short-k3": InlineWorkload("short-k3", "gg", 3, 3000, inputs.high_to_low_queries, 150, 200),
    # 50 probe queries: 200 long-k4 queries took ~10 s of each run to warm and re-check.
    "long-k4": InlineWorkload("long-k4", "ep", 4, 1000, inputs.high_to_high_queries, 6, 50),
}


@dataclass
class Passes:
    """Per-query wall times of a sequence of closed-loop passes."""

    latencies: List[float] = field(default_factory=list)
    lengths: List[int] = field(default_factory=list)
    loop_seconds: float = 0.0
    failed: int = 0
    first_pass: Dict[int, object] = field(default_factory=dict)

    def merge(self, other: "Passes") -> None:
        self.latencies += other.latencies
        self.loop_seconds += other.loop_seconds
        self.failed += other.failed
        if not self.lengths:
            self.first_pass = other.first_pass
        self.lengths += other.lengths


def _payload(result) -> List[tuple]:
    return sorted(tuple(path) for path in result.paths)


def run_passes(
    snapshot: Path, queries: List[Query], *, seconds: Optional[float] = None,
    lengths: Optional[List[int]] = None, tracer: Optional[Tracer] = None,
    keep: frozenset = frozenset(), between: Optional[Callable[[], None]] = None,
) -> Passes:
    """Closed-loop passes over ``queries``, each on a freshly opened ``Database``.

    A fresh database per pass gives every pass the same cold distance cache,
    so repeating the pool never turns misses into hits, and every pass
    times the same queries again.  Passes run until ``seconds`` elapse and
    at least one pass is whole, or replay
    exactly the given pass ``lengths``.  The ``Database`` open is not part
    of the loop time.  ``between`` runs after every query, untimed.
    """
    out = Passes()
    deadline = None if seconds is None else time.perf_counter() + seconds
    plan = iter(lengths) if lengths is not None else None
    while True:
        limit = len(queries) if plan is None else next(plan, None)
        if limit is None or (deadline is not None and time.perf_counter() >= deadline
                             and len(out.latencies) >= len(queries)):
            return out
        done = 0
        with Database(str(snapshot)) as db:
            started = time.perf_counter()
            for position, query in enumerate(queries[:limit]):
                span = None if tracer is None else tracer.open("api", str(position))
                before = time.perf_counter()
                try:
                    result = db.query(query).result()
                except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
                    result = None
                after = time.perf_counter()
                if span is not None:
                    tracer.close(span)
                out.latencies.append(after - before)
                done += 1
                if result is None or result.stats.timed_out:
                    out.failed += 1
                elif not out.lengths and position in keep:
                    out.first_pass[position] = _payload(result)
                if deadline is not None and after >= deadline and len(out.latencies) >= len(queries):
                    break
                if between is not None:
                    between()
            out.loop_seconds += time.perf_counter() - started
        out.lengths.append(done)


def oracle_mismatches(graph: DiGraph, queries: List[Query], payloads: Dict[int, object]) -> List[int]:
    """Positions whose paths differ from the naive GenericDFS oracle's."""
    oracle = GenericDfs()
    config = RunConfig(store_paths=True)
    return [
        position
        for position, payload in sorted(payloads.items())
        if _payload(oracle.run(graph, queries[position], config)) != payload
    ]


def measure_setup(snapshot: Path, queries: List[Query]) -> float:
    """Median seconds from ``Database(snapshot)`` to its first answered query.

    Each repeat runs in a fresh interpreter (``first_answer.py``), so the
    lazy loading a program pays on its first open is counted, and asks a
    different one of the workload's first queries, so one heavy query
    cannot set the figure.
    """
    script = Path(__file__).resolve().parent / "first_answer.py"
    samples = []
    for first in queries[:SETUP_REPEATS]:
        done = subprocess.run(
            [sys.executable, str(script), str(snapshot), str(first.source), str(first.target), str(first.k)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


class WriteProbe:
    """Remove/re-add pairs of sampled edges through a warm ``Database`` of its own.

    Each call is timed; ``times`` alternates removal and re-add (``None``
    where a write failed).  In an untraced run ``due()`` is called between
    queries and runs ``WRITE_CHUNK`` pairs once a second, so writes sample
    the host across the whole read loop as reads do: a probe run once at
    the end caught one moment of the host's drifting speed, and long-k4's
    ``update_p50_ms`` then spread by 0.33 of its median over five seeds.
    """

    def __init__(self, snapshot: Path, graph: DiGraph, warm: List[Query], seed: int) -> None:
        self.db = Database(str(snapshot))
        self.warm = warm
        self.before = self._digests()
        self.edges = iter(inputs.sample_edges(graph, WRITE_PAIRS, seed))
        self.times: List[Optional[float]] = []
        self.failed = 0
        self.compactions = 0
        self.next_chunk = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() >= self.next_chunk:
            self.run(WRITE_CHUNK)
            self.next_chunk = time.perf_counter() + WRITE_EVERY_S

    def run(self, pairs: int) -> None:
        for edge in itertools.islice(self.edges, pairs):
            for call in (self.db.remove_edges, self.db.insert_edges):
                started = time.perf_counter()
                try:
                    info = call([edge])
                except Exception:  # noqa: BLE001 - a failed write is counted
                    self.failed += 1
                    self.times.append(None)
                    continue
                self.times.append(time.perf_counter() - started)
                self.compactions = info["stats"]["compactions"]

    def _digests(self) -> List[bytes]:
        # Digests, not payloads: 200 long-k4 payloads hold about 150 MB of
        # path tuples, which would swamp ``peak_rss_mb``.
        return [hashlib.sha256(repr(_payload(self.db.query(q).result())).encode()).digest() for q in self.warm]

    def close(self) -> bool:
        """Close the database; True when the warm-up queries answer as before
        the writes (every pair restores its edge)."""
        with self.db:
            return self._digests() == self.before


def run(name: str, *, seed: int, seconds: float, trace: bool, workdir: Path) -> metrics.Report:
    spec = INLINE_WORKLOADS[name]
    graph = load_dataset(spec.dataset)
    queries = spec.make_queries(graph, count=spec.count, k=spec.k, seed=seed)
    snapshot = save_snapshot(graph, workdir / f"{spec.dataset}.rsnap")
    rng = np.random.default_rng(seed + 1)
    keep = frozenset(int(i) for i in rng.choice(len(queries), size=spec.oracle_sample, replace=False))
    report = metrics.Report(name)

    if trace:
        # Untraced passes for a quarter of the budget, then the same queries
        # traced, traced again and untraced again: host speed drifting
        # linearly during the run cancels out of ``trace.overhead_ratio``
        # (traced loop time / untraced loop time).  A short unmeasured pass
        # first keeps the process's one-time warm-up out of the ratio.
        run_passes(snapshot, queries, lengths=[WARMUP_QUERIES])
        passes, traced, tracer = run_passes(snapshot, queries, seconds=seconds / 4, keep=keep), Passes(), Tracer()
        lengths = list(passes.lengths)
        for _ in range(2):
            layers.install_core(tracer)
            try:
                traced.merge(run_passes(snapshot, queries, lengths=lengths, tracer=tracer))
            finally:
                tracer.uninstall()
        passes.merge(run_passes(snapshot, queries, lengths=lengths))
        reads = len(tracer.spans)
        probe = WriteProbe(snapshot, graph, queries[: spec.probe_queries], seed)
        try:
            layers.install_core(tracer)
            try:
                probe.run(TRACED_WRITE_PAIRS)
            finally:
                tracer.uninstall()
        finally:
            restored = probe.close()
        report.per_layer = metrics.read_layers(
            tracer.spans[:reads], queries=len(traced.latencies), wall_ns=int(traced.loop_seconds * 1e9)
        )
        report.per_layer.update(metrics.write_layers(tracer.spans[reads:], probe.compactions))
        report.per_layer["trace.overhead_ratio"] = traced.loop_seconds / passes.loop_seconds
        report.spans = tracer.spans
        report.attempted, report.failed = len(traced.latencies), traced.failed
    else:
        setup = measure_setup(snapshot, queries)
        probe = WriteProbe(snapshot, graph, queries[: spec.probe_queries], seed)
        try:
            passes = run_passes(snapshot, queries, seconds=seconds, keep=keep, between=probe.due)
        finally:
            restored = probe.close()
        rss = metrics.peak_rss_mb()

    mismatches = oracle_mismatches(graph, queries, passes.first_pass)
    report.check(not mismatches, f"{len(mismatches)} of {len(passes.first_pass)} sampled payloads differ from GenericDFS")
    report.check(restored, "answers after the remove/re-add write probe differ from those before it")
    report.attempted += len(passes.latencies) + len(probe.times)
    report.failed += passes.failed + probe.failed
    if not trace:
        # One latency window per whole pass: every window times the same queries.
        windows = stats.windows(passes.latencies, size=len(queries))
        report.set_end_to_end(
            setup_s=setup, latency_windows=windows,
            throughput_qps=statistics.median(len(w) / sum(w) for w in windows),
            update_p50_ms=metrics.pair_p50_ms(probe.times), updates=len(probe.times), rss_mb=rss,
        )
    report.notes.append(
        f"{len(passes.latencies)} queries in {len(passes.lengths)} passes over a "
        f"{len(queries)}-query pool; {len(passes.first_pass)} payloads checked against GenericDFS"
    )
    return report
