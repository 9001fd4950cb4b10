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

Spans are stored as columns, one row per span: trace id and name in
lists, start and end times in ``array('d')`` (NaN while open), and
explicit parents and attrs in sparse dicts keyed by row. A stored span
costs about 45 bytes, and the hot path allocates nothing per span beyond
column entries.
``begin``/``record``/``lapse`` hand back the int span id; :class:`Span`
objects are views, built from the columns when a trace is queried.

Memory at high input rates is bounded by head-based sampling: the
sampling decision is taken once, when the batch is created
(``sample_every``), and a hard ``max_traces`` cap stops admitting new
traces once reached — spans of unsampled records are never stored.
"""

from __future__ import annotations

import array
import collections
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
    #: 41 spans per record and ~45 bytes per stored span, the default
    #: cap holds under 8 MiB of spans (views are built only on query).
    max_traces: int = 4096

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.max_traces < 1:
            raise ConfigError(f"max_traces must be >= 1, got {self.max_traces}")


#: The end time of a span that is still open.
_OPEN = math.nan


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

    Instrumentation sites call the tracer unconditionally; with this
    singleton installed nothing is allocated and no state is touched.
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

    def mark(self, obj, key) -> None:
        return None

    def lapse(self, obj, name, key, parent=None, **attrs) -> None:
        return None

    def close_root(self, obj, end_time=None) -> None:
        return None

    def trace_ids(self) -> tuple:
        return ()


#: The shared "tracing off" instance; components default to it.
NO_TRACE = NullTracer()


class Tracer:
    """Collects spans per trace, in simulated time, as columns.

    Accepts a ``CrayfishDataBatch`` (anything with a ``trace``
    attribute), a :class:`TraceContext`, or ``None`` wherever a trace
    subject is expected; unsampled subjects make every call a no-op, so
    call sites need no sampling checks.

    Span handles are int span ids. Row ``r`` of the columns holds span id
    ``r + 1``; ids follow one global counter across traces, roots
    included. :meth:`spans`, :meth:`root` and :meth:`span` build
    :class:`Span` views from the columns and cache them until the next
    write.
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
        # One entry per span, indexed by row; NaN ends mark open spans.
        self._trace: list[int] = []
        self._name: list[str] = []
        self._start = array.array("d")
        self._end = array.array("d")
        # Sparse: explicit parent span ids and attrs, by row. A span with
        # no explicit parent hangs off its trace's root.
        self._parent: dict[int, int] = {}
        self._attrs: dict[int, dict] = {}
        # Trace id -> row of its root span, in admission order.
        self._root_row: dict[int, int] = {}
        self._marks: dict[tuple[int, str], float] = {}
        # Stage pairs written ahead by chained_stages, oldest first:
        # (handoff time, first row, second row). Until the clock reaches
        # the handoff, views show the first open and the second unbegun.
        self._ahead: collections.deque[tuple[float, int, int]] = collections.deque()
        # Second rows of chains interrupted before their handoff.
        self._cut: set[int] = set()
        # Query cache (clock, trace id -> rows, trace id -> views, rows
        # still open at the clock); any write, or a new clock, drops it.
        self._cache: (
            tuple[float, dict[int, list[int]], dict[int, list[Span]], set[int]] | None
        ) = None

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
        self._root_row[batch_id] = len(self._name)
        self._append(batch_id, "record", created_at, _OPEN)
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
        """Add one row; returns its span id."""
        row = len(self._name)
        self._trace.append(trace_id)
        self._name.append(name)
        self._start.append(start)
        self._end.append(end)
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
        return self._append(ctx.trace_id, name, start, _OPEN, parent, attrs)

    def end(self, span: int | None, **attrs: typing.Any) -> None:
        """Close a span now (None-safe)."""
        if span is None:
            return
        self._end[span - 1] = self.env.now
        if attrs:
            self._attrs.setdefault(span - 1, {}).update(attrs)
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

    def _write_ahead(self, handoff: float, first: int, second: int) -> None:
        """Hold back two spans :func:`chained_stages` wrote ahead of the
        clock: ``first`` ends and ``second`` begins at ``handoff``."""
        ahead = self._ahead
        now = self.env.now
        while ahead and ahead[0][0] <= now:
            ahead.popleft()
        ahead.append((handoff, first - 1, second - 1))

    def _cut_ahead(self, first: int, second: int) -> None:
        """A chain interrupted before its handoff: ``first`` stays open
        and ``second`` never begins."""
        self._end[first - 1] = _OPEN
        self._cut.add(second - 1)
        self._cache = None

    # -- marks: measure waits across process boundaries ------------------

    def mark(self, obj: typing.Any, key: str) -> None:
        """Remember 'now' under ``key`` for a later :meth:`lapse`."""
        ctx = self.context_of(obj)
        if ctx is None:
            return
        self._marks[(ctx.trace_id, key)] = self.env.now

    def lapse(
        self,
        obj: typing.Any,
        name: str,
        key: str,
        parent: int | None = None,
        **attrs: typing.Any,
    ) -> int | None:
        """Record a span from the matching :meth:`mark` to now."""
        ctx = self.context_of(obj)
        if ctx is None:
            return None
        start = self._marks.pop((ctx.trace_id, key), None)
        if start is None:
            return None
        return self.record(ctx, name, start=start, parent=parent, **attrs)

    # -- root management -------------------------------------------------

    def close_root(self, obj: typing.Any, end_time: float | None = None) -> None:
        """Close a trace's root span at the record's completion time.

        Idempotent: under at-least-once replay the first completion wins
        (matching the metrics collector's duplicate accounting).
        """
        ctx = self.context_of(obj)
        if ctx is None:
            return
        row = self._root_row[ctx.trace_id]
        if not math.isnan(self._end[row]):
            return
        self._end[row] = self.env.now if end_time is None else end_time
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

        Spans :func:`chained_stages` wrote ahead show as of the clock: a
        second stage the clock has not reached is left out, and the
        first stage before it is still open.
        """
        now = self.env.now
        if self._cache is None or self._cache[0] != now:
            unbegun = set(self._cut)
            unended = set()
            for handoff, first, second in self._ahead:
                if handoff > now:
                    unended.add(first)
                    unbegun.add(second)
            rows: dict[int, list[int]] = {t: [] for t in self._root_row}
            for row, owner in enumerate(self._trace):
                if row not in unbegun:
                    rows[owner].append(row)
            self._cache = (now, rows, {}, unended)
        __, rows, views, unended = self._cache
        built = views.get(trace_id)
        if built is None:
            built = views[trace_id] = [
                self._view(row, row in unended) for row in rows[trace_id]
            ]
        return built

    def _view(self, row: int, unended: bool) -> Span:
        trace_id = self._trace[row]
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
            start=self._start[row],
            end=None if unended or math.isnan(end) else end,
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
        views = self._views(self._trace[span_id - 1])
        for view in views:
            if view.span_id == span_id:
                return view
        raise KeyError(span_id)  # a second stage the clock has not reached

    @property
    def span_count(self) -> int:
        return len(self._name)


def chained_stages(
    env: "Environment",
    tracer: typing.Any,
    obj: typing.Any,
    first: str,
    first_wait: float,
    second: str,
    second_wait: float,
) -> typing.Generator:
    """Coroutine: spend ``first_wait`` in stage ``first``, then
    ``second_wait`` in stage ``second``, as one kernel event
    (``service_timeout(first_wait, then=second_wait)``). Returns the id
    of ``second``'s span, still open for the caller to end.

    Both spans are written at once, with the floats two sequential waits
    would give them: ``first`` closed at the handoff, ``second`` open
    from it. Views show them as of the clock, and an interrupt before
    the handoff leaves ``first`` open and ``second`` unbegun, so they
    match the sequential waits' views.
    """
    handoff = env.now + first_wait
    head = tracer.record(obj, first, start=env.now, end=handoff)
    span = None
    if head is not None:
        span = tracer.begin(obj, second, start=handoff)
        tracer._write_ahead(handoff, head, span)
    try:
        yield env.service_timeout(first_wait, then=second_wait)
    except Interrupt:
        if head is not None and env.now < handoff:
            tracer._cut_ahead(head, span)
        raise
    return span


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
