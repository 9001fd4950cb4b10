"""Span primitives and the per-record tracer.

A *trace* is the full journey of one :class:`CrayfishDataBatch` through
the pipeline: producer serialization, broker append, topic dwell, the
SPS engine's stages, serving internals, and the output append. Each
stage is a *span* — a named ``[start, end]`` interval in simulated time,
optionally nested under a parent span. The root span of every trace runs
from the batch's ``created_at`` to its completion timestamp, i.e. it is
exactly the record's measured end-to-end latency.

Tracing is strictly observational: recording a span never schedules a
simulation event, never draws from an RNG stream, and never charges
simulated time. A traced run therefore executes the *identical* event
sequence as an untraced one (the determinism regression test asserts
byte-identical latency statistics).

Spans are stored as columns, one row per span: its name and its end
time (NaN while open), plus one (first row, trace id, start) triple per
*visit*, the consecutive rows one call wrote, each row starting where
the one before it ends. Explicit parents and attrs live in sparse dicts
keyed by row. The columns are lists, which a call extends in a few tens
of nanoseconds where an ``array`` takes hundreds; a stored span costs
about 65 bytes, and the hot path allocates nothing per span beyond
column entries.
``begin``/``record``/``stages`` hand back the int span id;
:class:`Span` objects are views, built from the columns when a trace is
queried.

A component writes each *visit* of a record once, with
:meth:`Tracer.stages`: every stage whose end is already known becomes a
closed row, also when it starts or ends after the clock. One rule makes
such rows read like sequential ``begin``/``end`` pairs: a row is visible
once the clock reaches its start, and it is open until the clock reaches
its end. An interrupt cuts a visit (:meth:`Tracer.cut`): the running
stage stays open and the later ones never start.

Memory at high input rates is bounded by head-based sampling: the
sampling decision is taken once, when the batch is created
(``sample_every``), and a hard ``max_traces`` cap stops admitting new
traces once reached — spans of unsampled records are never stored.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import typing

from repro.errors import ConfigError
from repro.simul.process import Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul import Environment


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The trace identity carried on a sampled CrayfishDataBatch."""

    trace_id: int


@dataclasses.dataclass(frozen=True)
class TraceOptions:
    """User-facing tracing knobs (the runner builds the Tracer)."""

    #: Head-based sampling: trace every Nth batch (1 = every batch).
    sample_every: int = 1
    #: Hard cap on admitted traces; bounds memory at 30k ev/s. At about
    #: 41 spans per record and ~65 bytes per stored span, the default
    #: cap holds under 11 MiB of spans (views are built only on query).
    max_traces: int = 4096

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.max_traces < 1:
            raise ConfigError(f"max_traces must be >= 1, got {self.max_traces}")


#: The end time of a span that is still open, or that an interrupt cut.
OPEN = math.nan


class Span:
    """A view of one named interval of a trace. ``end`` is None while open.

    :class:`Tracer` stores spans as columns and builds these on query.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        end: float | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"[{self.start:.6f}, {end}])"
        )


class NullTracer:
    """Tracing disabled: every operation is a no-op returning None.

    It admits no trace (``make_context`` returns None), so the record
    path, which tests each record's trace first, never calls it.
    """

    enabled = False

    def make_context(self, batch_id: int, created_at: float) -> None:
        return None

    def context_of(self, obj: typing.Any) -> None:
        return None

    def begin(self, obj, name, parent=None, start=None, **attrs) -> None:
        return None

    def end(self, span, **attrs) -> None:
        return None

    def record(self, obj, name, start, end=None, parent=None, **attrs) -> None:
        return None

    def close_root(self, obj, end_time=None) -> None:
        return None

    def trace_ids(self) -> tuple:
        return ()


#: The shared "tracing off" instance; components default to it.
NO_TRACE = NullTracer()


class Tracer:
    """Collects spans per trace, in simulated time, as columns.

    ``begin``/``record`` accept a ``CrayfishDataBatch``
    (anything with a ``trace`` attribute), a :class:`TraceContext`, or
    ``None``, and unsampled subjects make them no-ops. The record path
    writes with :meth:`stages`, which takes the context of a traced
    record: its call sites test ``batch.trace`` first, so an untraced
    record costs no call.

    Span handles are int span ids. Row ``r`` of the columns holds span id
    ``r + 1``; ids follow one global counter across traces, roots
    included. Rows come in *visits*, runs of consecutive stages of one
    trace that one call wrote. :meth:`spans`, :meth:`root` and
    :meth:`span` build :class:`Span` views from the columns and cache
    them until the next write.
    """

    enabled = True

    def __init__(
        self,
        env: "Environment",
        sample_every: int = 1,
        max_traces: int = 4096,
    ) -> None:
        options = TraceOptions(sample_every=sample_every, max_traces=max_traces)
        self.env = env
        self.sample_every = options.sample_every
        self.max_traces = options.max_traces
        #: Traces rejected by the max_traces cap (not by sample_every).
        self.dropped = 0
        # One entry per span, indexed by row: its name and its end (NaN
        # while open).
        self._name: list[str] = []
        self._end: list[float] = []
        # Three entries per visit: its first row, trace id and start.
        # Every other row of a visit starts where the row before it ends.
        self._visits: list[float] = []
        # Sparse: explicit parent span ids and attrs, by row. A span with
        # no explicit parent hangs off its trace's root.
        self._parent: dict[int, int] = {}
        self._attrs: dict[int, dict] = {}
        # Trace id -> row of its root span, in admission order.
        self._root_row: dict[int, int] = {}
        # Query cache (clock, trace id -> visible (row, start) pairs,
        # trace id -> views); any write, or a new clock, drops it.
        self._cache: tuple | None = None

    # -- admission -------------------------------------------------------

    def make_context(self, batch_id: int, created_at: float) -> TraceContext | None:
        """Head-based sampling decision for a new batch.

        Returns the context to carry on the batch, or None when the
        batch is unsampled or the trace budget is exhausted.
        """
        if batch_id % self.sample_every != 0:
            return None
        if len(self._root_row) >= self.max_traces:
            self.dropped += 1
            return None
        row = self._root_row[batch_id] = len(self._name)
        self._name.append("record")
        self._end.append(OPEN)
        self._visits.extend((row, batch_id, created_at))
        self._cache = None
        return TraceContext(trace_id=batch_id)

    def context_of(self, obj: typing.Any) -> TraceContext | None:
        """Resolve a batch / context / None to a known TraceContext."""
        ctx = getattr(obj, "trace", obj)
        if isinstance(ctx, TraceContext) and ctx.trace_id in self._root_row:
            return ctx
        return None

    # -- span lifecycle --------------------------------------------------

    def _append(
        self,
        trace_id: int,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        attrs: dict | None = None,
    ) -> int:
        """Add a visit of one row; returns its span id."""
        row = len(self._name)
        self._name.append(name)
        self._end.append(end)
        self._visits.extend((row, trace_id, start))
        if parent is not None:
            self._parent[row] = parent
        if attrs:
            self._attrs[row] = attrs
        self._cache = None
        return row + 1

    def begin(
        self,
        obj: typing.Any,
        name: str,
        parent: int | None = None,
        start: float | None = None,
        **attrs: typing.Any,
    ) -> int | None:
        """Open a span at ``start`` (default: now); returns its id, or
        None for unsampled subjects."""
        ctx = self.context_of(obj)
        if ctx is None:
            return None
        if start is None:
            start = self.env.now
        return self._append(ctx.trace_id, name, start, OPEN, parent, attrs)

    def end(self, span: int | None, **attrs: typing.Any) -> None:
        """Close a span now (None-safe)."""
        if span is None:
            return
        row = span - 1
        self._end[row] = self.env.now
        if attrs:
            # Rows written by stages() may share one attrs dict: copy.
            self._attrs[row] = {**self._attrs.get(row, {}), **attrs}
        self._cache = None

    def record(
        self,
        obj: typing.Any,
        name: str,
        start: float,
        end: float | None = None,
        parent: int | None = None,
        **attrs: typing.Any,
    ) -> int | None:
        """Record a retroactive, already-closed span (e.g. queue dwell)."""
        ctx = self.context_of(obj)
        if ctx is None:
            return None
        if end is None:
            end = self.env.now
        if end < start:
            raise ValueError(f"span {name!r}: end {end} before start {start}")
        return self._append(ctx.trace_id, name, start, end, parent, attrs)

    def stages(
        self,
        trace: TraceContext,
        start: float,
        names: tuple[str, ...],
        ends: tuple[float, ...],
        attrs: dict[int, dict] | None = None,
        close: int | None = None,
    ) -> int:
        """Write one visit of a record: the stages ``names``, the first
        from ``start``, each ending at its entry of ``ends`` where the
        next begins. Returns the first stage's span id; the others
        follow it.

        ``trace`` is the record's own context (callers skip untraced
        records). Ends may lie ahead of the clock, and the last one may
        be :data:`OPEN` for the caller to :meth:`end`. ``attrs`` maps a
        stage's index to its attrs. ``close`` is an open span of the
        record that ends where this visit starts.
        """
        ends_column = self._end
        if close is not None:
            ends_column[close - 1] = start
        first = len(self._name)
        self._name.extend(names)
        ends_column.extend(ends)
        self._visits.extend((first, trace.trace_id, start))
        if attrs is not None:
            for index, values in attrs.items():
                self._attrs[first + index] = values
        self._cache = None
        return first + 1

    def cut(self, running: int, last: int) -> None:
        """An interrupt cut a visit :meth:`stages` wrote: the stage
        ``running`` stays open, and the stages after it, up to ``last``,
        never begin (each starts where an open stage ends)."""
        ends = self._end
        for row in range(running - 1, last):
            ends[row] = OPEN
        self._cache = None

    # -- root management -------------------------------------------------

    def close_root(self, obj: typing.Any, end_time: float | None = None) -> None:
        """Close a trace's root span at the record's completion time.

        Idempotent: under at-least-once replay the first completion wins
        (matching the metrics collector's duplicate accounting).
        """
        ctx = getattr(obj, "trace", obj)
        if ctx.__class__ is not TraceContext:
            return
        row = self._root_row.get(ctx.trace_id)
        if row is None or not math.isnan(self._end[row]):
            return
        if end_time is None:
            end_time = self.env.now
        self._end[row] = end_time
        self._cache = None

    # -- queries ---------------------------------------------------------

    def trace_ids(self) -> tuple[int, ...]:
        """All admitted trace ids, in admission order."""
        return tuple(self._root_row)

    def finished_trace_ids(self) -> tuple[int, ...]:
        """Trace ids whose record completed (root span closed)."""
        ends = self._end
        return tuple(
            t for t, row in self._root_row.items() if not math.isnan(ends[row])
        )

    def _views(self, trace_id: int) -> list[Span]:
        """The cached views of one trace, root first, in recording order.

        Rows show as of the clock: a row is visible once the clock has
        reached its start, and open until the clock reaches its end. A
        row after an open one in its visit (cut by an interrupt) starts
        at NaN, so it never shows.
        """
        now = self.env.now
        if self._cache is None or self._cache[0] != now:
            rows: dict[int, list[tuple[int, float]]] = {t: [] for t in self._root_row}
            ends = self._end
            visits = self._visits
            bounds = [*visits[0::3], len(self._name)]
            for visit, owner in enumerate(visits[1::3]):
                visible = rows[owner]
                start = visits[3 * visit + 2]
                for row in range(bounds[visit], bounds[visit + 1]):
                    if start <= now:
                        visible.append((row, start))
                    start = ends[row]
            self._cache = (now, rows, {})
        __, rows, views = self._cache
        built = views.get(trace_id)
        if built is None:
            built = views[trace_id] = [
                self._view(trace_id, row, start, now) for row, start in rows[trace_id]
            ]
        return built

    def _view(self, trace_id: int, row: int, start: float, now: float) -> Span:
        parent = self._parent.get(row)
        root_row = self._root_row[trace_id]
        if parent is None and row != root_row:
            parent = root_row + 1
        end = self._end[row]
        return Span(
            trace_id,
            row + 1,
            parent,
            self._name[row],
            start=start,
            end=end if end <= now else None,
            attrs=self._attrs.get(row),
        )

    def spans(self, trace_id: int) -> list[Span]:
        """All spans of one trace, root first, in recording order."""
        return list(self._views(trace_id))

    def root(self, trace_id: int) -> Span:
        return self._views(trace_id)[0]

    def span(self, span_id: int) -> Span:
        """The view of one span, by the id ``begin``/``record`` returned."""
        if not 0 < span_id <= len(self._name):
            raise KeyError(span_id)
        visit = bisect.bisect_right(self._visits[0::3], span_id - 1) - 1
        for view in self._views(self._visits[3 * visit + 1]):
            if view.span_id == span_id:
                return view
        raise KeyError(span_id)  # a stage the clock has not reached

    @property
    def span_count(self) -> int:
        return len(self._name)


def chained_stages(
    env: "Environment",
    tracer: typing.Any,
    obj: typing.Any,
    *stages: typing.Any,
    since: tuple[str, float] | None = None,
    closed: bool = False,
    close: int | None = None,
    attrs: dict | None = None,
) -> typing.Generator:
    """Coroutine: spend each of ``stages`` in turn as one kernel event,
    and return the id of the last stage's span, still open for the
    caller to end unless ``closed`` (None for an untraced ``obj``).

    ``stages`` is one or two stages, ``name, wait[, name, wait]``: one
    wait is ``service_timeout(wait)``, two are ``service_timeout(first,
    then=second)``. ``since`` is ``(name, start)`` of a stage that ends
    now, such as the queue wait before the visit; it is written first.
    ``close`` is an open span that ends where the visit starts.
    ``attrs`` are given to each of ``stages`` (not to ``since``).

    All stages are written at once (:meth:`Tracer.stages`), with the
    floats sequential waits would give them, so views and exports
    match those waits' at any clock. An interrupt cuts the chain at the
    stage running when it lands (:meth:`Tracer.cut`).
    """
    trace = getattr(obj, "trace", obj)
    if len(stages) == 2:
        name, wait = stages
        then = None
    else:
        name, wait, second, then = stages
    if trace is None:
        yield env.service_timeout(wait, then=then)
        return None
    now = env.now
    handoff = now + wait
    end = (handoff if then is None else handoff + then) if closed else OPEN
    if since is None:
        start = now
        if then is None:
            names: tuple = (name,)
            ends: tuple = (end,)
        else:
            names, ends = (name, second), (handoff, end)
    else:
        start = since[1]
        if then is None:
            names, ends = (since[0], name), (now, end)
        else:
            names, ends = (since[0], name, second), (now, handoff, end)
    if attrs is not None:
        first = len(names) - len(stages) // 2
        attrs = {index: attrs for index in range(first, len(names))}
    last = tracer.stages(trace, start, names, ends, attrs, close) + len(names) - 1
    try:
        yield env.service_timeout(wait, then=then)
    except Interrupt:
        # The stage the interrupt landed in stays open.
        running = last - 1 if then is not None and env.now < handoff else last
        tracer.cut(running, last)
        raise
    return last


def make_tracer(env: "Environment", trace: typing.Any) -> Tracer | NullTracer:
    """Resolve the runner's ``trace`` argument to a tracer instance.

    Accepts ``None`` (off), ``True`` (defaults), :class:`TraceOptions`,
    or a ready :class:`Tracer`.
    """
    if trace is None or trace is False:
        return NO_TRACE
    if trace is True:
        return Tracer(env)
    if isinstance(trace, TraceOptions):
        return Tracer(env, sample_every=trace.sample_every, max_traces=trace.max_traces)
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    raise ConfigError(f"cannot build a tracer from {trace!r}")
