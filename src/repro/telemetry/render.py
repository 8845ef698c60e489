"""Fixed-format text rendering of span trees and critical paths.

Every formatter here is deterministic down to the byte -- the golden
files under ``tests/goldens/`` pin the output, so formats use explicit
precision (never ``%g`` on computed floats) and sorted label order.
Times print as absolute simulated seconds at nanosecond precision and
durations as milliseconds at microsecond-and-three precision; both are
exact prints of bit-deterministic model outputs.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .critical import CriticalPath, conservation_error_cycles, \
    p99_contributors, stage_attribution
from .spans import SPAN_SHARD, QueryTrace, Span

__all__ = [
    "render_query_trace",
    "render_spans_report",
    "render_critical_path",
    "render_attribution",
]


def _span_label(span: Span) -> str:
    if span.name == SPAN_SHARD and span.shard_id is not None:
        return f"shard{span.shard_id}"
    return span.name


def _labels_suffix(span: Span) -> str:
    if not span.labels:
        return ""
    inner = " ".join(f"{key}={span.labels[key]}"
                     for key in sorted(span.labels))
    return f"  [{inner}]"


def render_query_trace(trace: QueryTrace) -> str:
    """One query's span tree as an indented block."""
    determining = ("none" if trace.determining_shard is None
                   else f"shard{trace.determining_shard}")
    lines = [
        f"query {trace.req_id}: arrival {trace.arrival_s:.9f} s, "
        f"retrieval {trace.retrieval_latency_s * 1e3:.6f} ms, "
        f"tti {trace.tti_s * 1e3:.6f} ms, determining {determining}"
    ]
    for depth, span in trace.root.walk():
        if depth == 0:
            continue  # the header already states the root
        lines.append(
            f"  {'  ' * (depth - 1)}{_span_label(span):<13s} "
            f"{span.duration_s * 1e3:12.6f} ms  "
            f"[{span.start_s:.9f}, {span.end_s:.9f}]"
            f"{_labels_suffix(span)}")
    return "\n".join(lines)


def render_spans_report(traces: Sequence[QueryTrace],
                        limit: Optional[int] = None) -> str:
    """Span trees for a whole run (optionally only the first ``limit``)."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit!r}")
    total_spans = sum(trace.n_spans() for trace in traces)
    shown = traces if limit is None else traces[:limit]
    lines = [f"span trees: {len(traces)} queries, {total_spans} spans"]
    for trace in shown:
        lines.append("")
        lines.append(render_query_trace(trace))
    if len(shown) < len(traces):
        lines.append("")
        lines.append(f"... {len(traces) - len(shown)} more "
                     f"quer{'y' if len(traces) - len(shown) == 1 else 'ies'} "
                     f"elided")
    return "\n".join(lines)


def render_critical_path(path: CriticalPath, clock_hz: float) -> str:
    """One request's blocking chain plus its conservation check."""
    determining = ("none" if path.determining_shard < 0
                   else f"shard{path.determining_shard}")
    lines = [f"critical path for query {path.req_id} "
             f"(determining {determining}, {len(path.segments)} segments):"]
    for segment in path.segments:
        where = "host" if segment.shard_id < 0 \
            else f"shard{segment.shard_id}"
        lines.append(
            f"  {segment.stage:<18s} {where:<7s} "
            f"{segment.duration_s * 1e3:12.6f} ms  "
            f"[{segment.start_s:.9f}, {segment.end_s:.9f}]")
    error = conservation_error_cycles(path, clock_hz)
    lines.append(
        f"  total {path.total_s * 1e3:.6f} ms vs reported tti "
        f"{path.tti_s * 1e3:.6f} ms -> {error:.3e} cycle error")
    return "\n".join(lines)


def render_attribution(paths: Sequence[CriticalPath],
                       clock_hz: float,
                       reconcile: Optional[Any] = None) -> str:
    """Run-level critical-path attribution + p99 tail contributors."""
    totals = stage_attribution(paths)
    grand = sum(totals.values())
    worst = max((conservation_error_cycles(path, clock_hz)
                 for path in paths), default=0.0)
    lines = [f"critical-path attribution over {len(paths)} queries "
             f"(worst conservation error {worst:.3e} cycles):"]
    lines.append(f"  {'stage':<18s} {'seconds':>14s} {'share':>8s}")
    for stage in sorted(totals, key=lambda s: (-totals[s], s)):
        share = totals[stage] / grand if grand > 0 else 0.0
        lines.append(f"  {stage:<18s} {totals[stage]:14.9f} "
                     f"{share * 100:7.2f}%")
    p99, shares = p99_contributors(paths)
    lines.append(f"  p99 tti {p99 * 1e3:.6f} ms; tail stage shares:")
    for stage in sorted(shares, key=lambda s: (-shares[s], s)):
        lines.append(f"    {stage:<18s} {shares[stage] * 100:7.2f}%")
    if reconcile is not None:
        lines.append(f"  {reconcile.summary()}")
    return "\n".join(lines)
