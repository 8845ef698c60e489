"""Request-scoped causal spans: the telemetry tree vocabulary.

A :class:`Span` is one contiguous interval of simulated time attributed
to a named stage of a request's life, with parent/child causality.  The
taxonomy mirrors the serving stack::

    query                      the request, arrival -> first token
      shard<k>                 the scatter leg on one shard device
        queue_wait             batch formation / device busy
        batch                  one executed attempt (outcome label)
          dma / mac / topk / return      Table 8 stage decomposition
          checksum / scrub               ABFT protection tax
          slowdown                       fault-injected stretch
        backoff                retry gate after a failed attempt
        failover_wait          queued on a shard that then died
      merge                    host top-k merge
      prefill                  generator prefill (TTI tail)

Spans are plain data: the builder (:mod:`repro.telemetry.build`)
derives them from the scheduler's causal record, so constructing them
never perturbs the simulation.  Sibling spans under one ``shard<k>``
parent partition the parent's interval *bitwise* -- every boundary is
the same float the discrete-event loop used -- which is what makes the
critical path cycle-conserving by construction
(:mod:`repro.telemetry.critical`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "QueryTrace",
    "SPAN_QUERY",
    "SPAN_SHARD",
    "SPAN_QUEUE_WAIT",
    "SPAN_BATCH",
    "SPAN_BACKOFF",
    "SPAN_FAILOVER_WAIT",
    "SPAN_MERGE",
    "SPAN_PREFILL",
    "STAGE_SPANS",
    "interval_error",
]

#: Span stage names (the closed vocabulary the renderers rely on).
SPAN_QUERY = "query"
SPAN_SHARD = "shard"          # rendered as shard<k>
SPAN_QUEUE_WAIT = "queue_wait"
SPAN_BATCH = "batch"
SPAN_BACKOFF = "backoff"
SPAN_FAILOVER_WAIT = "failover_wait"
SPAN_MERGE = "merge"
SPAN_PREFILL = "prefill"

#: Leaf stages a ``batch`` span decomposes into (display order).
STAGE_SPANS = ("dma", "mac", "topk", "return", "checksum", "scrub",
               "slowdown")


def interval_error(name: str, start_s: float, end_s: float) -> ValueError:
    """The error for an interval of stage ``name`` that ends before it
    starts (spans and critical-path segments alike)."""
    return ValueError(f"span {name!r} ends before it starts: "
                      f"[{start_s!r}, {end_s!r}]")


@dataclass
class Span:
    """One attributed interval of simulated time in a request's life."""

    name: str
    start_s: float
    end_s: float
    #: Shard device the interval occupied; ``None`` for host-side spans
    #: (query root, merge, prefill).
    shard_id: Optional[int] = None
    #: Small string-valued annotations (outcome, batch size, ...).
    labels: Dict[str, str] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise interval_error(self.name, self.start_s, self.end_s)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def walk(self) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (depth, span) traversal, children in order."""
        stack: List[Tuple[int, Span]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def n_spans(self) -> int:
        """Size of the subtree rooted here (this span included)."""
        return sum(1 for _ in self.walk())

    def find_all(self, name: str) -> List["Span"]:
        """Every span in the subtree with the given stage name."""
        return [span for _, span in self.walk() if span.name == name]


@dataclass
class QueryTrace:
    """One request's span tree plus the scalars the tree must conserve.

    ``tti_s`` is computed with exactly the association the simulator
    uses for its latency samples (``((done - arrival) + merge) +
    prefill``), so telemetry totals can be compared bitwise against the
    report.
    """

    req_id: int
    arrival_s: float
    retrieval_done_s: float
    merge_s: float
    prefill_s: float
    root: Span
    #: Shard whose completion (or death) resolved the scatter-gather;
    #: ``None`` when the request resolved empty-handed (no live shards).
    determining_shard: Optional[int]
    n_required: int
    failed_shards: Tuple[int, ...] = ()
    corrupted_shards: Tuple[int, ...] = ()

    @property
    def retrieval_latency_s(self) -> float:
        return self.retrieval_done_s - self.arrival_s

    @property
    def tti_s(self) -> float:
        """Reported time-to-interactive (simulator association)."""
        return (self.retrieval_latency_s + self.merge_s) + self.prefill_s

    @property
    def shard_spans(self) -> Dict[int, Span]:
        """Shard id -> that shard's scatter-leg span."""
        spans: Dict[int, Span] = {}
        for child in self.root.children:
            if child.name == SPAN_SHARD and child.shard_id is not None:
                spans[child.shard_id] = child
        return spans

    def n_spans(self) -> int:
        return self.root.n_spans()
