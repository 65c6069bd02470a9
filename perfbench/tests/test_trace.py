"""Span recording, wrapping and self-time arithmetic."""

import types

from perfbench.trace import Span, Tracer, children_of, self_time_by_name, self_times, union_ns


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("leaf", 20, 30, parent=1),
        Span("b", 50, 60, parent=0),
    ]
    own = self_times(spans, children_of(spans))
    assert own == [60, 20, 10, 10]
    # Nested spans partition the root: self times sum to its wall time.
    assert sum(own) == spans[0].duration


def test_overlapping_children_are_not_subtracted_twice():
    spans = [Span("root", 0, 100), Span("x", 10, 50, parent=0), Span("y", 30, 70, parent=0)]
    assert self_times(spans, children_of(spans))[0] == 40


def test_children_are_clipped_to_their_parent():
    spans = [Span("root", 10, 20), Span("late", 15, 40, parent=0)]
    assert self_times(spans, children_of(spans))[0] == 5


def test_union_merges_overlaps_and_gaps():
    assert union_ns([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20
    assert union_ns([]) == 0


def test_self_time_by_name_sums_per_layer():
    spans = [Span("q", 0, 10), Span("enum", 2, 6, parent=0), Span("q", 20, 30), Span("enum", 21, 22, parent=2)]
    assert self_time_by_name(spans) == {"q": 15, "enum": 5}


def test_wrap_records_nested_spans_and_uninstall_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original_inner, original_outer = module.inner, module.outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner", after=lambda span, a, k, r: span.attrs.update(result=r))
    tracer.wrap(module, "outer", "outer", qid=lambda a, k: f"q{a[0]}")
    assert module.outer(3) == 8
    tracer.uninstall()
    assert module.inner is original_inner and module.outer is original_outer
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.qid) == ("outer", None, "q3")
    assert (inner.name, inner.parent, inner.qid) == ("inner", 0, "q3")
    assert inner.attrs == {"result": 4}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_wrap_keeps_a_classmethod_bound_to_its_class():
    class Builder:
        @classmethod
        def build(cls, value):
            return cls, value

    tracer = Tracer()
    tracer.wrap(Builder, "build", "build", kind="classmethod")
    assert Builder.build(7) == (Builder, 7)
    tracer.uninstall()
    assert Builder.build(7) == (Builder, 7)
    assert [span.name for span in tracer.spans] == ["build"]


def test_wrap_times_a_coroutine_until_it_returns():
    import asyncio

    class Service:
        async def submit(self, value):
            return value * 2

    tracer = Tracer()
    tracer.wrap(Service, "submit", "submit", qid=lambda a, k: str(a[1]))
    assert asyncio.run(Service().submit(4)) == 8
    tracer.uninstall()
    assert [(span.name, span.qid) for span in tracer.spans] == [("submit", "4")]
    assert tracer.spans[0].end >= tracer.spans[0].start > 0


def test_dump_and_load_round_trip(tmp_path):
    from perfbench.trace import load_spans, write_spans

    spans = [Span("lateness", 5, 9, None, "c1", {"extra": 1})]
    write_spans(tmp_path / "spans.json.gz", spans)
    assert load_spans(tmp_path / "spans.json.gz") == spans
