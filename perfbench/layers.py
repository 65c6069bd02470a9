"""Which program entry points the traced run wraps, and under what span names.

Every wrapper replaces an attribute that its caller looks up at call time
(a module global or a class attribute), so the program runs unchanged and
an untraced run, which installs nothing, pays nothing.
"""

from __future__ import annotations

from perfbench.trace import Tracer

#: Enumeration engines as called from ``repro.core.engine``.
ENUM_ENTRY_POINTS = (
    "run_dfs_kernel",
    "run_join_kernel",
    "run_dfs_native",
    "run_join_native",
    "run_idx_dfs",
    "run_idx_join",
)


def query_id(query) -> str:
    return f"{query.source}:{query.target}:{query.k}"


def _bfs_name(args, kwargs) -> str:
    return "engine.reverse_bfs" if kwargs.get("reverse") else "index.forward_bfs"


def _index_after(span, args, kwargs, index) -> None:
    span.attrs["edges"] = index.num_index_edges


def _plan_after(span, args, kwargs, plan) -> None:
    span.attrs["join"] = 1 if plan.kind == "join" else 0


def _enum_after(span, args, kwargs, result) -> None:
    stats = kwargs.get("stats")
    if stats is not None:
        span.attrs["edges"] = stats.edges_accessed
        span.attrs["partial"] = stats.partial_results_generated
        span.attrs["invalid"] = stats.invalid_partial_results


def _repair_after(span, args, kwargs, result) -> None:
    span.attrs["incremental"] = 1 if result[1] else 0


def install_core(tracer: Tracer) -> None:
    """Reverse BFS, index build, plan, enumeration and result assembly."""
    import repro.core.engine as engine
    import repro.core.index as index
    import repro.live.repair as repair
    from repro.core.engine import QuerySession
    from repro.core.index import LightWeightIndex
    from repro.live.epochs import LiveGraph

    tracer.wrap(engine, "bfs_distances_bounded", _bfs_name)
    tracer.wrap(index, "bfs_distances_bounded", _bfs_name)
    tracer.wrap(LightWeightIndex, "build", "index.build", kind="classmethod", after=_index_after)
    tracer.wrap(engine, "choose_plan", "plan", after=_plan_after)
    for entry in ENUM_ENTRY_POINTS:
        tracer.wrap(engine, entry, "enum", after=_enum_after)
    tracer.wrap(engine, "timed_run", "result", qid=lambda a, k: query_id(a[1]))
    tracer.wrap(QuerySession, "run", "engine.session", qid=lambda a, k: query_id(a[1]))
    tracer.wrap(LiveGraph, "apply", "live.apply")
    tracer.wrap(repair, "repair_reverse_distances", "live.repair", after=_repair_after)


def install_server(tracer: Tracer) -> None:
    """Core layers plus the service, dispatch, mutation and frame encoding."""
    import repro.server.protocol as protocol
    from repro.core.engine import ExecutorCore
    from repro.server.service import QueryService

    install_core(tracer)
    first = lambda a, k: query_id(list(a[1])[0]) if a[1] else None  # noqa: E731
    tracer.wrap(QueryService, "submit", "server.submit", qid=first)
    tracer.wrap(QueryService, "mutate", "live.mutate")
    tracer.wrap(ExecutorCore, "start", "engine.dispatch", qid=first)
    tracer.wrap(
        protocol, "encode_frame", "protocol.encode",
        qid=lambda a, k: None if a[0].get("id") is None else str(a[0]["id"]),
    )


def _decode_after(span, args, kwargs, frame) -> None:
    if isinstance(frame, dict) and frame.get("id") is not None:
        span.qid = str(frame["id"])


def install_client(tracer: Tracer) -> None:
    """Client-side frame decoding in the load generator."""
    import repro.server.protocol as protocol

    tracer.wrap(protocol, "decode_frame", "protocol.decode", after=_decode_after)


__all__ = ["install_core", "install_server", "install_client", "query_id"]
