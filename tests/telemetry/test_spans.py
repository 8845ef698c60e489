"""Unit tests for the span-tree vocabulary."""

import pytest

from repro.telemetry import (
    SPAN_MERGE,
    SPAN_PREFILL,
    SPAN_QUERY,
    SPAN_SHARD,
    QueryTrace,
    Span,
    render_spans_report,
)


def _tiny_trace() -> QueryTrace:
    shard = Span(name=SPAN_SHARD, start_s=0.0, end_s=3.0, shard_id=0,
                 children=[
                     Span(name="queue_wait", start_s=0.0, end_s=1.0,
                          shard_id=0),
                     Span(name="batch", start_s=1.0, end_s=3.0, shard_id=0,
                          labels={"outcome": "ok"}),
                 ])
    root = Span(name=SPAN_QUERY, start_s=0.0, end_s=5.0, children=[
        shard,
        Span(name=SPAN_MERGE, start_s=3.0, end_s=3.5),
        Span(name=SPAN_PREFILL, start_s=3.5, end_s=5.0),
    ])
    return QueryTrace(
        req_id=7, arrival_s=0.0, retrieval_done_s=3.0, merge_s=0.5,
        prefill_s=1.5, root=root, determining_shard=0, n_required=1)


class TestSpan:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Span(name="batch", start_s=2.0, end_s=1.0)

    def test_zero_duration_allowed(self):
        span = Span(name="merge", start_s=1.0, end_s=1.0)
        assert span.duration_s == 0.0

    def test_walk_is_depth_first_in_order(self):
        trace = _tiny_trace()
        names = [span.name for _, span in trace.root.walk()]
        assert names == [SPAN_QUERY, SPAN_SHARD, "queue_wait", "batch",
                         SPAN_MERGE, SPAN_PREFILL]
        depths = [depth for depth, _ in trace.root.walk()]
        assert depths == [0, 1, 2, 2, 1, 1]

    def test_n_spans_counts_subtree(self):
        trace = _tiny_trace()
        assert trace.root.n_spans() == 6
        assert trace.n_spans() == 6

    def test_find_all(self):
        trace = _tiny_trace()
        batches = trace.root.find_all("batch")
        assert len(batches) == 1
        assert batches[0].labels["outcome"] == "ok"


class TestQueryTrace:
    def test_tti_uses_simulator_association(self):
        trace = _tiny_trace()
        # ((done - arrival) + merge) + prefill, in exactly that order.
        assert trace.retrieval_latency_s == 3.0
        assert trace.tti_s == ((3.0 - 0.0) + 0.5) + 1.5

    def test_shard_spans_keyed_by_id(self):
        trace = _tiny_trace()
        assert set(trace.shard_spans) == {0}
        assert trace.shard_spans[0].name == SPAN_SHARD


class TestSpansReport:
    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            render_spans_report([_tiny_trace()] * 3, limit=-1)
