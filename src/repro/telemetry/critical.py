"""Critical-path extraction and latency attribution over span trees.

For one request, the **critical path** is the blocking chain that
produced its reported TTI: the segment chain of the *determining* shard
(the shard whose completion or death resolved the scatter-gather),
followed by the host merge and the generator prefill.  The chain's
segments partition ``[arrival, retrieval_done]`` bitwise -- adjacent
segments share the exact floats the discrete-event loop used -- so the
path is cycle-conserving by construction: the scalar sum of segment
durations agrees with the reported TTI to float associativity (orders
of magnitude below one device cycle; see
:func:`conservation_error_cycles`).

Aggregation answers "which stage is guilty": :func:`stage_attribution`
sums critical time per stage over a run, and :func:`p99_contributors`
restricts that to the requests at or above the p99 TTI, so a tail
regression names the stage that grew.  Every sum has one association:
within a path left to right (:meth:`CriticalPath.stage_totals`), then
across paths in record order (:func:`sum_stage_totals`), so a caller
that folds each path once -- as the telemetry builder does while it
emits the segments -- gets the same floats bitwise.

:class:`Segment` and :class:`CriticalPath` are typed tuples: a run
builds one path per request and several segments per path, so their
construction cost is per-request cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .spans import SPAN_BATCH, SPAN_MERGE, SPAN_PREFILL, QueryTrace

__all__ = [
    "Segment",
    "CriticalPath",
    "critical_path",
    "conservation_error_cycles",
    "stage_attribution",
    "sum_stage_totals",
    "p99_contributors",
]


class _BatchStages(dict):
    """Outcome detail -> the ``batch:<detail>`` attribution key, each key
    formatted once on first use."""

    def __missing__(self, detail: str) -> str:
        key = self[detail] = f"{SPAN_BATCH}:{detail}"
        return key


#: The attribution key of a ``batch`` segment, by its outcome detail.
BATCH_STAGES: Dict[str, str] = _BatchStages()


class Segment(NamedTuple):
    """One link of a critical path (a leaf interval, never nested).

    Its ``repr`` is the keyword form, ``Segment(name=..., ...)``.
    """

    name: str
    start_s: float
    end_s: float
    shard_id: int = -1          # -1 = host side (merge, prefill)
    #: For ``batch`` segments: the attempt's outcome label.
    detail: str = ""

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def stage(self) -> str:
        """Attribution key (`batch` refined by its outcome detail)."""
        if self.name == SPAN_BATCH and self.detail:
            return BATCH_STAGES[self.detail]
        return self.name


class CriticalPath(NamedTuple):
    """The exact blocking chain behind one request's TTI."""

    req_id: int
    segments: Tuple[Segment, ...]
    #: The reported TTI this chain must conserve (simulator association).
    tti_s: float
    determining_shard: int = -1

    @property
    def total_s(self) -> float:
        """Left-to-right sum of segment durations."""
        total = 0.0
        for segment in self.segments:
            total += segment.duration_s
        return total

    def stage_totals(self) -> Dict[str, float]:
        """Critical seconds per stage key for this one request."""
        totals: Dict[str, float] = {}
        for segment in self.segments:
            key = segment.stage
            totals[key] = totals.get(key, 0.0) + segment.duration_s
        return totals

    def stage_seconds(self, key: str) -> float:
        """Critical seconds of one stage key: bitwise
        ``stage_totals().get(key, 0.0)``, the same left fold, without
        building the dict."""
        total = 0.0
        for segment in self.segments:
            if segment.stage == key:
                total += segment.end_s - segment.start_s
        return total


def critical_path(trace: QueryTrace) -> CriticalPath:
    """Extract the blocking chain for one request.

    The chain is the determining shard's child spans (they partition
    ``[arrival, retrieval_done]`` bitwise by construction) plus the
    merge and prefill spans from the query root.
    """
    segments: List[Segment] = []
    if trace.determining_shard is not None:
        shard_span = trace.shard_spans.get(trace.determining_shard)
        if shard_span is None:  # pragma: no cover - builder invariant
            raise ValueError(
                f"request {trace.req_id}: determining shard "
                f"{trace.determining_shard} has no span")
        segments.extend(
            Segment(name=child.name, start_s=child.start_s,
                    end_s=child.end_s, shard_id=trace.determining_shard,
                    detail=child.labels.get("outcome", ""))
            for child in shard_span.children)
    for child in trace.root.children:
        if child.name in (SPAN_MERGE, SPAN_PREFILL):
            segments.append(Segment(
                name=child.name, start_s=child.start_s,
                end_s=child.end_s))
    return CriticalPath(
        req_id=trace.req_id,
        segments=tuple(segments),
        tti_s=trace.tti_s,
        determining_shard=-1 if trace.determining_shard is None
        else trace.determining_shard,
    )


def conservation_error_cycles(path: CriticalPath,
                              clock_hz: float) -> float:
    """|sum of segment durations - reported TTI| in device cycles.

    Zero up to float associativity; the regression suites assert this
    stays far below one cycle for every request.
    """
    return abs(path.total_s - path.tti_s) * clock_hz


def sum_stage_totals(per_path: Iterable[Mapping[str, float]]
                     ) -> Dict[str, float]:
    """Sum per-path stage totals across paths, in the given order."""
    totals: Dict[str, float] = {}
    for path_totals in per_path:
        for key, value in path_totals.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def stage_attribution(paths: Sequence[CriticalPath]) -> Dict[str, float]:
    """Total critical seconds per stage key across a run."""
    return sum_stage_totals(path.stage_totals() for path in paths)


def p99_contributors(paths: Sequence[CriticalPath]
                     ) -> Tuple[float, Dict[str, float]]:
    """(p99 TTI, stage shares among requests at or above it).

    Uses the same nearest-rank percentile as the serving report, so
    "p99" here selects exactly the requests behind the reported p99.
    Shares sum to 1 over the selected requests' critical time.
    """
    if not paths:
        raise ValueError("p99 attribution of an empty run")
    from ..serve.metrics import nearest_rank_percentile

    p99 = nearest_rank_percentile([p.tti_s for p in paths], 99)
    tail = [p for p in paths if p.tti_s >= p99]
    totals = stage_attribution(tail)
    grand = sum(totals.values())
    if grand <= 0:  # pragma: no cover - TTI always positive
        return p99, {}
    return p99, {key: value / grand for key, value in totals.items()}
