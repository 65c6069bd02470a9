"""The serve-mixed workload: ``repro serve`` under reads plus writes.

One load-generator process (this one) holds two connections, one for reads
and one for writes.  After a warm-up, a closed-loop phase (one outstanding
read) gives the registered latency, throughput and update figures; it fills
the whole budget of an untraced run.  The traced run adds open-loop phases:
reads arrive as a seeded Poisson process at each fixed rate, each timed from
its *scheduled* arrival, so a stalled generator or server charges the wait
to every request it delays, and the generator reports how late it ran.
Writes remove a sampled edge and later re-add it, so after the load the
server's graph is the base graph again and the hub query set it serves must
be byte-identical to an inline ``Database`` run.
"""

from __future__ import annotations

import asyncio
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import inputs, layers, metrics, stats
from perfbench.trace import Span, Tracer, load_spans
from repro import Database
from repro.errors import ConnectionLost
from repro.server.client import QueryClient
from repro.workloads.datasets import load_dataset

DATASET = "gg"
K = 3
#: Distinct hub queries the reads draw from (and the post-load check replays).
#: The closed loop asks each once per round, so a round is one latency window.
POOL = stats.WINDOW
#: Open-loop read rates (queries/s), each with ``MIN_READS`` reads.
RATES = (150.0, 300.0, 600.0)
#: Unmeasured open-loop reads at the lowest rate before anything is timed.
WARMUP_READS = 300
#: The registered latency, throughput and update metrics come from a
#: closed-loop phase (one outstanding read) with writes at this rate.  On a
#: 2-vCPU host the open-loop percentiles at 150 q/s spread by 0.5 (p50) and
#: 1.0-1.5 (p99) of their median over five seeds, because queueing amplifies
#: host noise that stretches service times; the closed loop spread by 0.06
#: and 0.21.  Given only the 14 s that the open-loop levels left it, its p99
#: still spread by 0.42 over ten seeds, so an untraced run gives it all the
#: time.
CLOSED_WRITE_QPS = 15.0
#: Upper bound on closed-loop reads per second, for sizing its read list.
CLOSED_MAX_QPS = 1000
#: Allowance for draining the open-loop levels' backlog.
OPEN_LOOP_SLACK_S = 2.0
#: Every rate level gets at least this many reads (p99 then has 10 beyond it).
MIN_READS = 1000
#: Writes arrive at this share of the read rate.
WRITE_SHARE = 0.10
#: Server boots per untraced run; ``setup_s`` is their median.
BOOTS = 5
READ_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 120.0


# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #
class Server:
    """``repro serve --dataset gg --port 0`` (default thread backend) as a child process.

    With ``spans`` set, the child is ``perfbench/serve_child.py``, which wraps
    the server's layers before serving and writes its spans to that file on
    shutdown.
    """

    def __init__(self, root: Path, workdir: Path, spans: Optional[Path] = None) -> None:
        serve_args = ["serve", "--dataset", DATASET, "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(root / "perfbench" / "serve_child.py"), str(spans), *serve_args]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        self._stderr = open(workdir / "server.stderr", "w+")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            banner = self._lines.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            banner = None
        if not banner or not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not boot: {banner!r}; stderr: {self.stderr()}")
        self.boot_seconds = time.perf_counter() - started
        self.port = int(banner.split()[2].rsplit(":", 1)[1])

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def stderr(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def peak_rss_mb(self) -> float:
        return metrics.peak_rss_mb(str(self.process.pid))

    def stop(self) -> int:
        """SIGTERM, wait for the clean shutdown, and reap the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self._stderr.close()
        return self.process.returncode


# --------------------------------------------------------------------- #
# the load generator
# --------------------------------------------------------------------- #
@dataclass
class Op:
    """One read or write as the load generator saw it (perf_counter ns)."""

    due: int
    sent: int
    done: int
    status: str  # "done" | "error" | "overloaded" | "cancelled" | "timeout" | "lost"
    key: str = ""  # query id (reads) or the write's operation
    job: str = ""
    wall_ms: float = 0.0
    compactions: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "done"


async def _sleep_until(due_ns: int) -> None:
    delay = (due_ns - time.perf_counter_ns()) / 1e9
    if delay > 0:
        await asyncio.sleep(delay)


async def _read(client: QueryClient, query, due: int) -> Op:
    sent = time.perf_counter_ns()
    key = layers.query_id(query)
    try:
        job = await client.submit([[query.source, query.target, query.k]], frames="path")
        outcome = await asyncio.wait_for(client.collect(job), READ_TIMEOUT_S)
    except asyncio.TimeoutError:
        return Op(due, sent, time.perf_counter_ns(), "timeout", key)
    except (ConnectionLost, ConnectionError, OSError):
        return Op(due, sent, time.perf_counter_ns(), "lost", key)
    done = time.perf_counter_ns()
    status = outcome.status
    if status == "done" and any(result.timed_out for result in outcome.results):
        status = "timeout"
    return Op(due, sent, done, status, key, job, float(outcome.info.get("wall_ms", 0.0)))


async def _writes(
    client: QueryClient, level: inputs.RateLevel, start: int, stop: Optional[asyncio.Event] = None
) -> List[Op]:
    """The level's writes on their schedule; once ``stop`` is set, no new
    remove/re-add pair starts (a begun pair always completes)."""
    ops = []
    for offset, (kind, edge) in zip(level.write_arrivals, level.writes):
        due = start + int(offset * 1e9)
        await _sleep_until(due)
        if stop is not None and stop.is_set() and kind == "remove":
            break
        sent = time.perf_counter_ns()
        try:
            frame = await asyncio.wait_for(client.update(**{kind: [edge]}), READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            ops.append(Op(due, sent, time.perf_counter_ns(), "timeout", kind))
            continue
        except (RuntimeError, ConnectionLost, ConnectionError, OSError):
            ops.append(Op(due, sent, time.perf_counter_ns(), "error", kind))
            continue
        ops.append(Op(due, sent, time.perf_counter_ns(), "done", kind,
                      compactions=int(frame["stats"]["compactions"])))
    return ops


async def _open_loop(reader: QueryClient, writer: QueryClient, level: inputs.RateLevel):
    start = time.perf_counter_ns() + 20_000_000
    write_task = asyncio.ensure_future(_writes(writer, level, start))
    tasks = []
    for offset, query in zip(level.arrivals, level.reads):
        due = start + int(offset * 1e9)
        await _sleep_until(due)
        tasks.append(asyncio.ensure_future(_read(reader, query, due)))
    reads = await asyncio.gather(*tasks)
    return list(reads), await write_task


async def _closed_loop(reader: QueryClient, writer: QueryClient, level: inputs.RateLevel, seconds: float):
    """One outstanding read at a time for ``seconds`` (and until at least one
    window of reads succeeded), with the level's writes on their own
    schedule meanwhile."""
    start = time.perf_counter_ns()
    until = start + int(seconds * 1e9)
    stop = asyncio.Event()
    write_task = asyncio.ensure_future(_writes(writer, level, start, stop))
    reads, ok = [], 0
    for query in level.reads:
        now = time.perf_counter_ns()
        if now >= until and ok >= stats.WINDOW:
            break
        reads.append(await _read(reader, query, now))
        ok += reads[-1].ok
    stop.set()
    return reads, await write_task


async def _drive(port: int, plan: "LoadPlan"):
    """Warm-up, the closed-loop phase, then each open-loop rate level."""
    reader = await QueryClient.connect(port=port)
    writer = await QueryClient.connect(port=port)
    try:
        warmup = await _open_loop(reader, writer, plan.warmup)
        closed = await _closed_loop(reader, writer, plan.closed, plan.closed_seconds)
        levels = [warmup] + [await _open_loop(reader, writer, level) for level in plan.levels]
        server_stats = await reader.stats()
    finally:
        await reader.close()
        await writer.close()
    return closed, levels, server_stats


def summarize(reads: Sequence[Op]) -> Dict[str, float]:
    """Rates and latency percentiles of a stretch of reads.

    ``offered_qps`` is the seeded Poisson schedule's own rate over the
    stretch, which is what the server was actually offered.
    """
    done = [op for op in reads if op.ok]
    first = min(op.due for op in reads)
    latencies = [(op.done - op.due) / 1e9 for op in done]
    return {
        "offered_qps": (len(reads) - 1) / ((max(op.due for op in reads) - first) / 1e9),
        "achieved_qps": len(done) / ((max(op.done for op in reads) - first) / 1e9),
        "p50_ms": metrics.ms(stats.percentile(latencies, 50.0)) if latencies else float("inf"),
        "p99_ms": metrics.ms(stats.percentile(latencies, 99.0)) if latencies else float("inf"),
        "failed": len(reads) - len(done),
    }


@dataclass
class LoadPlan:
    warmup: inputs.RateLevel
    #: Reads for the closed-loop phase (more than it can use) and its writes.
    closed: inputs.RateLevel
    closed_seconds: float
    #: One open-loop level per planned rate, lowest first.
    levels: List[inputs.RateLevel]


def plan_load(graph, pool, seed: int, seconds: float, rates: Sequence[float]) -> LoadPlan:
    """Warm-up, a closed-loop phase filling ``seconds`` after the fixed parts,
    then ``MIN_READS`` reads at each of ``rates``.  The highest rates may
    overload the server and leave a backlog, so they come last."""
    open_loop = sum(MIN_READS / rate for rate in rates) + (OPEN_LOOP_SLACK_S if rates else 0.0)
    fixed = WARMUP_READS / RATES[0] + open_loop

    def level(index: int, rate: float, reads: int, cycle: bool = False) -> inputs.RateLevel:
        return inputs.rate_level(
            graph, pool, offered_qps=rate, reads=reads, write_share=WRITE_SHARE, seed=seed * 101 + index * 7,
            cycle=cycle,
        )

    closed_seconds = max(0.0, seconds - fixed)
    return LoadPlan(
        warmup=level(0, RATES[0], WARMUP_READS),
        closed=level(1, CLOSED_WRITE_QPS / WRITE_SHARE, int(CLOSED_MAX_QPS * max(closed_seconds, 10.0)), cycle=True),
        closed_seconds=closed_seconds,
        levels=[level(2 + index, rate, MIN_READS) for index, rate in enumerate(rates)],
    )


@dataclass
class Pass:
    #: The closed-loop phase: (reads, writes).
    closed: Tuple[List[Op], List[Op]]
    #: (reads, writes) of the warm-up, then of each planned rate.
    levels: List[Tuple[List[Op], List[Op]]]
    server_stats: Dict[str, object]
    boot_seconds: float
    rss_mb: float
    check_problem: Optional[str]
    spans: List[Span]

    def ops(self) -> Tuple[List[Op], List[Op]]:
        phases = [self.closed] + self.levels
        return [op for reads, _ in phases for op in reads], [op for _, writes in phases for op in writes]


def one_pass(root: Path, workdir: Path, graph, pool, plan, *, traced: bool, tracer: Optional[Tracer] = None) -> Pass:
    spans_path = workdir / "server-spans.json.gz" if traced else None
    server = Server(root, workdir, spans_path)
    try:
        if tracer is not None:
            layers.install_client(tracer)
        try:
            closed, levels, server_stats = asyncio.run(_drive(server.port, plan))
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss = server.peak_rss_mb()
        check_problem = check_served(server.port, graph, pool)
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code}: {server.stderr()}")
    spans = load_spans(spans_path) if traced else []
    return Pass(closed, levels, server_stats, server.boot_seconds, rss, check_problem, spans)


def check_served(port: int, graph, pool) -> Optional[str]:
    """The hub query set over TCP must be byte-identical to an inline run on the base graph."""
    triples = [(q.source, q.target, q.k) for q in pool]
    with Database(f"127.0.0.1:{port}") as remote:
        served = remote.batch(triples).payload_bytes()
    with Database(graph) as local:
        expected = local.batch(triples).payload_bytes()
    if served != expected:
        return f"served payload of the {len(pool)}-query hub set differs from an inline run on the base graph"
    return None


def boot_seconds(root: Path, workdir: Path) -> List[float]:
    """Boot-to-banner times of servers that are stopped right away."""
    samples = []
    for _ in range(BOOTS - 1):
        server = Server(root, workdir)
        samples.append(server.boot_seconds)
        server.stop()
    return samples


def pin_to_one_cpu() -> None:
    """Run this process, and the servers it starts, on one CPU.

    The closed loop keeps one read outstanding, so the load generator and
    the server take turns.  Spread over two vCPUs, the pair stalls whenever
    the host deschedules either of them: unpinned on a 2-vCPU VM, its p50
    doubled (2.6 -> 5-6.5 ms) in half of ten runs during minutes of host
    contention in which the single-process inline workloads slowed by only
    1.1-1.35x.  On one CPU it waits on one vCPU, as they do.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(*, seed: int, seconds: float, trace: bool, workdir: Path, root: Path) -> metrics.Report:
    pin_to_one_cpu()
    graph = load_dataset(DATASET)
    pool = inputs.hub_queries(graph, count=POOL, k=K, seed=seed)
    report = metrics.Report("serve-mixed")
    if trace:
        # Untraced: every open-loop rate level (for ``max_ok_rate_qps``) and
        # one closed-loop window.  Traced: the same seeded load against a
        # server with every layer wrapped, at the lowest rate only, whose
        # reads are attributed layer by layer.
        plain = one_pass(root, workdir, graph, pool, plan_load(graph, pool, seed, seconds / 2, RATES), traced=False)
        tracer = Tracer()
        traced_plan = plan_load(graph, pool, seed, seconds / 2, RATES[:1])
        traced = one_pass(root, workdir, graph, pool, traced_plan, traced=True, tracer=tracer)
        passes = [plain, traced]
        report.per_layer, report.spans = serve_layers(traced, tracer.spans)
        report.per_layer["trace.overhead_ratio"] = (
            summarize(traced.closed[0])["p50_ms"] / summarize(plain.closed[0])["p50_ms"]
        )
        levels = [summarize(reads) for reads, _ in plain.levels[1:]]
        for rate, summary in zip(RATES, levels):
            report.notes.append(
                f"open loop {rate:g}/s: " + "offered {offered_qps:.1f}/s achieved {achieved_qps:.1f}/s "
                "p50 {p50_ms:.2f} ms p99 {p99_ms:.2f} ms failed {failed}".format(**summary)
            )
        best = stats.max_ok_rate(levels)
        report.notes.append(
            f"max_ok_rate_qps = {best['achieved_qps'] if best else 0.0:.3f} 1/s (untraced; achieved rate of the "
            f"highest of {'/'.join(f'{r:g}' for r in RATES)} q/s meeting p99 <= {stats.P99_LIMIT_MS:g} ms, "
            "no failures, achieved >= 95% of offered)"
        )
    else:
        boots = boot_seconds(root, workdir)
        plain = one_pass(root, workdir, graph, pool, plan_load(graph, pool, seed, seconds, ()), traced=False)
        passes = [plain]
    for one in passes:
        report.check(one.check_problem is None, str(one.check_problem))
        reads, writes = one.ops()
        report.attempted += len(reads) + len(writes)
        report.failed += sum(not op.ok for op in reads + writes)
    if not trace:
        reads, writes = plain.closed
        windows = stats.windows([(op.done - op.due) / 1e9 for op in reads if op.ok])
        boots.append(plain.boot_seconds)
        report.set_end_to_end(
            setup_s=statistics.median(boots),
            latency_windows=windows,
            throughput_qps=statistics.median(len(w) / sum(w) for w in windows),
            update_p50_ms=metrics.pair_p50_ms([(op.done - op.sent) / 1e9 if op.ok else None for op in writes]),
            updates=len(writes),
            rss_mb=plain.rss_mb,
        )
    return report


# --------------------------------------------------------------------- #
# per-layer attribution across the two processes
# --------------------------------------------------------------------- #
def serve_layers(one: Pass, client_spans: List[Span]) -> Tuple[Dict[str, float], List[Span]]:
    """Merge client and server spans into one tree per read request.

    Both processes stamp spans with ``CLOCK_MONOTONIC``, so their intervals
    compare directly.  A request's root spans from scheduled arrival to its
    ``done`` frame; its children are the generator's lateness, the client's
    frame decoding (matched by job id), the server's frame encoding (job
    id) and every server thread-root span of the same query (matched by
    query id) that starts inside the request's window.  Only the 150 q/s
    open-loop reads are attributed: the higher rates overload the server on
    purpose, and their queueing would swamp every per-query figure.  Server
    spans of the writes feed the live-update metrics.  Returns the metrics
    and the merged spans (read trees, then the write spans).
    """
    reads, _ = one.levels[1]
    writes = one.ops()[1]
    spans: List[Span] = []
    roots: Dict[str, int] = {}
    by_key: Dict[str, List[Tuple[int, int]]] = {}
    for op in reads:
        if not op.ok:
            continue
        roots[op.job] = len(spans)
        by_key.setdefault(op.key, []).append((op.sent, len(spans)))
        spans.append(Span("client.request", op.due, op.done, None, op.job))
        spans.append(Span("loadgen.lateness", op.due, op.sent, roots[op.job], op.job))
    for sends in by_key.values():
        sends.sort()

    def owner(span: Span) -> Optional[int]:
        if span.qid in roots:
            return roots[span.qid]
        candidates = [root for sent, root in by_key.get(span.qid or "", ()) if sent <= span.start]
        if candidates and span.start < spans[candidates[-1]].end:
            return candidates[-1]
        return None

    # Parents precede their children in record order, so one pass re-links them.
    for source in (client_spans, one.spans):
        kept: Dict[int, int] = {}
        for index, span in enumerate(source):
            if not span.end:
                continue
            parent = kept.get(span.parent) if span.parent is not None else owner(span)
            if parent is None:
                continue
            kept[index] = len(spans)
            spans.append(Span(span.name, span.start, span.end, parent, span.qid, span.attrs))
    ok_reads = [op for op in reads if op.ok]
    wall_ns = sum(op.done - op.due for op in ok_reads)
    out = metrics.read_layers(spans, queries=len(ok_reads), wall_ns=wall_ns)
    write_spans = [s for s in one.spans if s.name in ("live.apply", "live.repair")]
    compactions = max((op.compactions for op in writes), default=0)
    out.update(metrics.write_layers(write_spans, compactions))
    out["server.job_ms_p50"] = stats.percentile([op.wall_ms for op in ok_reads], 50.0)
    out["server.wait_ms_p50"] = stats.percentile(
        [(op.done - op.due) / 1e6 - op.wall_ms for op in ok_reads], 50.0
    )
    out["server.queue_depth_high_water"] = float(one.server_stats.get("queue_depth_high_water", 0))
    return out, spans + [Span(s.name, s.start, s.end, None, s.qid, s.attrs) for s in write_spans]
