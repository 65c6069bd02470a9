"""Span recording for the benchmark's traced runs.

The benchmark times each layer from outside the program: it replaces the
module attributes (functions, methods) that callers look up at call time
with wrappers that open a span around the original.  Nothing under ``src/``
knows about the tracer, and an untraced run installs no wrapper at all.

A span records its name, start and end (``time.perf_counter_ns``, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across processes on
one host), its parent span on the same thread, and a query id that children
inherit from their parent.  Spans stay in memory and are written to a
gzipped JSON file when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: Optional[int] = None
    qid: Optional[str] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span recorder with per-thread span stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, qid: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent].qid
        span = Span(name, time.perf_counter_ns(), parent=parent, qid=qid)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        self._stack().pop()
        return span

    # -- wrappers ------------------------------------------------------- #
    def wrap(
        self,
        owner: object,
        attr: str,
        name,
        *,
        qid: Optional[Callable] = None,
        after: Optional[Callable] = None,
        kind: str = "function",
    ) -> None:
        """Replace ``owner.attr`` with a span-opening wrapper.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``qid(args, kwargs)`` names the query the call serves (children
        inherit it); ``after(span, args, kwargs, result)`` may attach
        attributes once the call returns.  ``kind="classmethod"`` rewraps a
        classmethod so the class is still passed first.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = raw.__func__ if kind == "classmethod" else raw
        tracer = self

        def opened(args, kwargs) -> int:
            span_name = name(args, kwargs) if callable(name) else name
            return tracer.open(span_name, None if qid is None else qid(args, kwargs))

        if inspect.iscoroutinefunction(original):
            # Only for coroutines that never suspend before returning (such
            # as ``QueryService.submit``): another task running inside the
            # span would push onto the same event-loop thread's stack.
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index = opened(args, kwargs)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    span = tracer.close(index)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = opened(args, kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span = tracer.close(index)
                if after is not None:
                    after(span, args, kwargs, result)
                return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if kind == "classmethod" else wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def write_spans(path, spans: Sequence[Span]) -> None:
    """Spans as gzipped JSON; parents are indices into the same list."""
    with gzip.open(path, "wt") as handle:
        json.dump([span.__dict__ for span in spans], handle)


def load_spans(path) -> List[Span]:
    with gzip.open(path, "rt") as handle:
        return [Span(**entry) for entry in json.load(handle)]


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``[start, end)`` intervals."""
    total, cursor = 0, None
    for start, end in sorted(intervals):
        if cursor is None or start >= cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: Sequence[Span], children: Dict[int, List[int]]) -> List[int]:
    """Each span's duration minus the part of it that its children cover.

    ``children`` maps a span index to its child indices.  Children are
    clipped to their parent's interval and merged before subtraction, so a
    child that overlaps a sibling (possible across threads) is not
    subtracted twice.
    """
    result = []
    for index, span in enumerate(spans):
        covered = union_ns(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
            if spans[c].end > span.start and spans[c].start < span.end
        )
        result.append(span.duration - covered)
    return result


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            tree.setdefault(span.parent, []).append(index)
    return tree


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, int]:
    """Sum of self times (ns) per span name."""
    totals: Dict[str, int] = {}
    for span, own in zip(spans, self_times(spans, children_of(spans))):
        totals[span.name] = totals.get(span.name, 0) + own
    return totals
