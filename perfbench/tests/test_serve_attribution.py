"""Read summaries and the cross-process span merge of serve-mixed."""

import pytest

from perfbench.serve import Op, Pass, serve_layers, summarize
from perfbench.trace import Span

MS = 1_000_000  # ns


def test_summarize_counts_every_failed_status():
    statuses = ["done", "done", "error", "overloaded", "timeout", "lost", "cancelled"]
    reads = [Op(i * 10 * MS, i * 10 * MS, i * 10 * MS + 5 * MS, status) for i, status in enumerate(statuses)]
    summary = summarize(reads)
    assert summary["failed"] == 5
    assert summary["p50_ms"] == pytest.approx(5.0)
    # 7 reads scheduled over 60 ms: the schedule offered 6 gaps / 60 ms.
    assert summary["offered_qps"] == pytest.approx(100.0)


def _pass(reads, server_spans):
    return Pass(
        closed=([], []), levels=[([], []), (reads, [])], server_stats={"queue_depth_high_water": 3},
        boot_seconds=0.5, rss_mb=60.0, check_problem=None, spans=server_spans,
    )


def test_server_and_client_spans_join_each_read_and_partition_its_latency():
    read = Op(due=0, sent=10 * MS, done=100 * MS, status="done", key="1:2:3", job="c1", wall_ms=60.0)
    server = [
        Span("server.submit", 12 * MS, 15 * MS, None, "1:2:3"),
        Span("engine.dispatch", 20 * MS, 30 * MS, None, "1:2:3"),
        Span("engine.reverse_bfs", 22 * MS, 28 * MS, 1, "1:2:3"),
        Span("result", 40 * MS, 80 * MS, None, "1:2:3"),
        Span("enum", 50 * MS, 70 * MS, 3, "1:2:3", {"edges": 7, "partial": 4, "invalid": 1}),
        Span("protocol.encode", 82 * MS, 84 * MS, None, "c1"),
        # Another query, and a span outside the read's window: not this read's.
        Span("server.submit", 20 * MS, 21 * MS, None, "9:9:3"),
        Span("server.submit", 150 * MS, 151 * MS, None, "1:2:3"),
        Span("live.apply", 300 * MS, 302 * MS, None, None),
    ]
    client = [Span("protocol.decode", 90 * MS, 95 * MS, None, "c1")]
    out, spans = serve_layers(_pass([read], server), client)
    # The request, its lateness, the client decode, six server spans, the write.
    assert len(spans) == 10
    assert out["trace.coverage"] == pytest.approx(1.0)
    assert out["server.submit_ms_per_query"] == pytest.approx(3.0)
    assert out["engine.dispatch_ms_per_query"] == pytest.approx(4.0)
    assert out["engine.reverse_bfs_ms_per_query"] == pytest.approx(6.0)
    assert out["engine.dist_cache_hit_rate"] == pytest.approx(0.0)
    assert out["result.self_ms_per_query"] == pytest.approx(20.0)
    assert out["enum.ms_per_query"] == pytest.approx(20.0)
    assert out["enum.useful_ratio"] == pytest.approx(0.75)
    assert out["protocol.encode_ms_per_query"] == pytest.approx(2.0)
    assert out["protocol.decode_ms_per_query"] == pytest.approx(5.0)
    assert out["loadgen.lateness_ms_p99"] == pytest.approx(10.0)
    # 100 ms of latency minus 70 ms inside spans.
    assert out["server.residual_ms_per_query"] == pytest.approx(30.0)
    assert out["server.job_ms_p50"] == pytest.approx(60.0)
    assert out["server.wait_ms_p50"] == pytest.approx(40.0)
    assert out["server.queue_depth_high_water"] == 3
    assert out["live.apply_ms_p50"] == pytest.approx(2.0)
