"""Self time from a span tree, and wrappers that leave no residue."""

import pytest

from ledger import trace
from ledger.trace import Span


def test_self_time_is_duration_minus_child_cover():
    #  a [0, 10]
    #    b [1, 4]
    #      c [2, 3]
    #    b [5, 9]
    #  d [10, 12]        (a second root)
    spans = [
        Span("a", 0.0, 10.0, -1, 0, 0, 1),
        Span("b", 1.0, 4.0, 0, 0, 0, 1),
        Span("c", 2.0, 3.0, 1, 0, 0, 1),
        Span("b", 5.0, 9.0, 0, 0, 0, 1),
        Span("d", 10.0, 12.0, -1, 1, 0, 1),
    ]
    got = trace.self_times(spans)
    assert got["a"] == (1, pytest.approx(3.0))  # 10 - (3 + 4)
    assert got["b"] == (2, pytest.approx(6.0))  # (3 - 1) + 4
    assert got["c"] == (1, pytest.approx(1.0))
    assert got["d"] == (1, pytest.approx(2.0))
    # self times add up to the roots' durations: nothing counted twice
    assert sum(t for _, t in got.values()) == pytest.approx(12.0)


def test_recorded_spans_nest_and_same_name_delegation_counts_once():
    tracer = trace.Tracer()

    def leaf():
        return 1

    inner = tracer.spanned(leaf, "x.leaf")
    same = tracer.spanned(lambda: inner(), "x.entry")
    outer = tracer.spanned(lambda: same() + inner(), "x.entry")
    tracer.op_id = 7
    assert outer() == 2
    spans = tracer.spans()
    assert [s.name for s in spans] == ["x.entry", "x.leaf", "x.leaf"]
    assert [s.parent for s in spans] == [-1, 0, 0]
    assert all(s.op_id == 7 for s in spans)
    assert all(spans[0].start <= s.start <= s.end <= spans[0].end for s in spans[1:])


def test_install_and_remove_leave_every_attribute_identical():
    tracer = trace.Tracer()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in trace.targets(tracer)]
    with trace.installed(tracer):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def test_wrappers_are_removed_when_the_block_raises():
    from repro.serve.cache import LRUCache

    original = vars(LRUCache)["get"]
    with pytest.raises(RuntimeError):
        with trace.installed(trace.Tracer()):
            raise RuntimeError("boom")
    assert vars(LRUCache)["get"] is original


def test_traced_calls_are_recorded_under_their_layer_names():
    from repro.serve.cache import LRUCache

    tracer = trace.Tracer()
    with trace.installed(tracer):
        cache = LRUCache(4)
        cache.put("k", 1)
        assert cache.get("k") == 1
    assert [s.name for s in tracer.spans()] == ["serve.cache.put", "serve.cache.get"]
    assert LRUCache(4).get("missing") is None  # unwrapped again: no new span
    assert len(tracer.spans()) == 2
