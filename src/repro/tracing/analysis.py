"""Latency-breakdown analysis over raw span data.

The central primitive is the *attribution sweep*: for one record, every
instant of the root span's window is attributed to exactly one stage —
the deepest (most specific) span covering it, ties broken towards the
most recently opened span, and instants no span covers fall to the
synthetic ``(untraced)`` stage. The per-record stage times therefore
tile the record's end-to-end latency exactly: their sum equals the root
span's duration up to float addition error, which is the invariant the
acceptance tests assert.

On top of the sweep sit aggregate views: per-stage breakdown tables
across all completed records, per-record critical-path extraction, and
a bottleneck ranking per configuration.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.tracing.spans import Span, Tracer

#: Stage charged for instants not covered by any recorded span.
UNTRACED = "(untraced)"


@dataclasses.dataclass(frozen=True)
class StageStat:
    """Aggregate cost of one stage across a set of records."""

    stage: str
    #: Summed attributed time over all records (seconds).
    total: float
    #: Mean attributed time per record (seconds; 0 for absent records).
    mean: float
    #: Fraction of summed end-to-end latency this stage accounts for.
    share: float
    #: Records in which the stage appeared.
    records: int


@dataclasses.dataclass(frozen=True)
class PathSegment:
    """One hop of a record's critical path."""

    stage: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span_depths(spans: typing.Sequence[Span]) -> dict[int, int]:
    """Depth of each span (root = 0) via parent-chain walking."""
    by_id = {span.span_id: span for span in spans}
    depths: dict[int, int] = {}

    def depth_of(span: Span) -> int:
        if span.span_id in depths:
            return depths[span.span_id]
        if span.parent_id is None or span.parent_id not in by_id:
            depths[span.span_id] = 0
        else:
            depths[span.span_id] = depth_of(by_id[span.parent_id]) + 1
        return depths[span.span_id]

    for span in spans:
        depth_of(span)
    return depths


def _attribution_segments(
    root: Span, spans: typing.Sequence[Span]
) -> list[PathSegment]:
    """The sweep: partition ``[root.start, root.end]`` into owned segments."""
    assert root.end is not None
    candidates = []
    for span in spans:
        if span.span_id == root.span_id or span.end is None:
            continue
        # Clip to the root window; spans entirely outside contribute nothing.
        start = max(span.start, root.start)
        end = min(span.end, root.end)
        if end < start:
            continue
        candidates.append((span, start, end))

    depths = _span_depths([root, *[span for span, __, __ in candidates]])
    boundaries = sorted({root.start, root.end}.union(
        *[{start, end} for __, start, end in candidates]
    ))
    segments: list[PathSegment] = []
    for left, right in zip(boundaries, boundaries[1:]):
        owner: Span | None = None
        owner_rank: tuple[int, float, int] | None = None
        for span, start, end in candidates:
            if start <= left and end >= right:
                rank = (depths[span.span_id], span.start, span.span_id)
                if owner_rank is None or rank > owner_rank:
                    owner, owner_rank = span, rank
        stage = owner.name if owner is not None else UNTRACED
        segments.append(PathSegment(stage=stage, start=left, end=right))
    return segments


def record_breakdown(tracer: Tracer, trace_id: int) -> dict[str, float]:
    """Per-stage attributed time for one completed record.

    Stage times tile the record's end-to-end latency: their sum equals
    the root span duration (float tolerance). Raises on open roots.
    """
    root = tracer.root(trace_id)
    if root.end is None:
        raise ValueError(f"trace {trace_id} has not completed")
    breakdown: dict[str, float] = {}
    for segment in _attribution_segments(root, tracer.spans(trace_id)):
        breakdown[segment.stage] = breakdown.get(segment.stage, 0.0) + segment.duration
    return breakdown


def critical_path(tracer: Tracer, trace_id: int) -> list[PathSegment]:
    """The record's timeline as an ordered stage sequence.

    Consecutive segments owned by the same stage are merged; zero-length
    segments are dropped. The result walks the record from creation to
    completion — the per-record critical path through the pipeline.
    """
    root = tracer.root(trace_id)
    if root.end is None:
        raise ValueError(f"trace {trace_id} has not completed")
    merged: list[PathSegment] = []
    for segment in _attribution_segments(root, tracer.spans(trace_id)):
        if segment.duration == 0.0:
            continue
        if merged and merged[-1].stage == segment.stage:
            merged[-1] = PathSegment(
                stage=segment.stage, start=merged[-1].start, end=segment.end
            )
        else:
            merged.append(segment)
    return merged


def breakdown_table(
    tracer: Tracer, cutoff: float = 0.0
) -> list[StageStat]:
    """Aggregate per-stage breakdown over completed records.

    ``cutoff`` discards records completing before it (warm-up discard,
    matching the metrics collector). Stages are ordered by total time,
    descending — the first row is the configuration's bottleneck.
    """
    totals: dict[str, float] = {}
    appearances: dict[str, int] = {}
    record_count = 0
    latency_sum = 0.0
    for trace_id in tracer.finished_trace_ids():
        root = tracer.root(trace_id)
        if root.end < cutoff:
            continue
        record_count += 1
        latency_sum += root.duration
        for stage, value in record_breakdown(tracer, trace_id).items():
            totals[stage] = totals.get(stage, 0.0) + value
            appearances[stage] = appearances.get(stage, 0) + 1
    if record_count == 0:
        return []
    stats = [
        StageStat(
            stage=stage,
            total=total,
            mean=total / record_count,
            share=(total / latency_sum) if latency_sum > 0 else 0.0,
            records=appearances[stage],
        )
        for stage, total in totals.items()
    ]
    stats.sort(key=lambda s: (-s.total, s.stage))
    return stats


def bottleneck_ranking(
    tracer: Tracer, cutoff: float = 0.0, top: int | None = None
) -> list[StageStat]:
    """Stages ranked by attributed time; ``top`` truncates the list."""
    ranking = breakdown_table(tracer, cutoff=cutoff)
    return ranking if top is None else ranking[:top]


def bottleneck(tracer: Tracer, cutoff: float = 0.0) -> str | None:
    """The single most expensive stage, or None without completed records."""
    ranking = breakdown_table(tracer, cutoff=cutoff)
    return ranking[0].stage if ranking else None


#: Node charged for span time carrying no ``node`` attribute (all of it,
#: in single-host runs; driver/client-side stages in clustered runs).
UNATTRIBUTED_NODE = "(unattributed)"


def node_breakdown(tracer: Tracer, cutoff: float = 0.0) -> dict[str, float]:
    """Summed span time per cluster node across completed records.

    Scale-out components (:mod:`repro.cluster`) tag their spans with a
    ``node`` attribute; this rolls raw span durations up by that tag so a
    clustered run shows where simulated time was spent. Unlike the
    attribution sweep above, concurrent spans both count — the result is
    *occupancy* per node, not a tiling of end-to-end latency.
    """
    totals: dict[str, float] = {}
    for trace_id in tracer.finished_trace_ids():
        root = tracer.root(trace_id)
        if root.end < cutoff:
            continue
        for span in tracer.spans(trace_id):
            if span.span_id == root.span_id or span.end is None:
                continue
            node = span.attrs.get("node", UNATTRIBUTED_NODE)
            totals[node] = totals.get(node, 0.0) + span.duration
    return dict(sorted(totals.items()))
