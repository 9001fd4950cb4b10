"""Spans written ahead of the clock read like sequential waits.

A component writes each visit of a record once, with every stage whose
end it already knows (:meth:`Tracer.stages`), and an interrupt cuts the
visit (:meth:`Tracer.cut`). For any stages, zero-length ones included,
any interrupt instant and any clock instant at which the trace is
queried, the views and exports must equal those of ``begin``/``end``
around each wait; only span ids may differ.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.simul import Environment, Interrupt
from repro.tracing.export import chrome_trace, span_rows
from repro.tracing.spans import Tracer, chained_stages

#: Stage lengths: zero, or a multiple of 1/8 (exact sums, so the drawn
#: instants can land on stage boundaries).
lengths = st.one_of(st.just(0.0), st.integers(1, 16).map(lambda k: k / 8))
instants = st.integers(0, 80).map(lambda k: k / 8)


def _run(write_ahead, start, stages, horizon, interrupt_at):
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, 0.0)
    names = tuple(f"stage{i}" for i in range(len(stages)))

    def visit():
        yield env.timeout(start)
        if write_ahead:
            at, ends = env.now, []
            for length in stages:
                at += length
                ends.append(at)
            first = tracer.stages(ctx, env.now, names, tuple(ends))
            last = first + len(stages) - 1
            for index, length in enumerate(stages):
                try:
                    yield env.timeout(length)
                except Interrupt:
                    tracer.cut(first + index, last)
                    raise
        else:
            for name, length in zip(names, stages):
                span = tracer.begin(ctx, name)
                yield env.timeout(length)
                tracer.end(span)
        tracer.close_root(ctx)

    proc = env.process(visit())
    if interrupt_at is not None:

        def interrupter():
            yield env.timeout(interrupt_at)
            if proc.is_alive:
                proc.interrupt("cut")

        env.process(interrupter())
    env.run(until=horizon)
    return tracer


def _views(tracer):
    spans = [(s.name, s.start, s.end) for s in tracer.spans(0)]
    rows = [
        {k: v for k, v in row.items() if k not in ("span_id", "parent_id")}
        for row in span_rows(tracer)
    ]
    return spans, rows, chrome_trace(tracer)


@given(
    start=instants,
    stages=st.lists(lengths, min_size=1, max_size=4),
    horizon=instants,
    interrupt_at=st.one_of(st.none(), instants),
)
@settings(max_examples=300, deadline=None)
def test_stages_read_like_sequential_waits(start, stages, horizon, interrupt_at):
    ahead = _run(True, start, stages, horizon, interrupt_at)
    sequential = _run(False, start, stages, horizon, interrupt_at)
    assert _views(ahead) == _views(sequential)


def _run_chained(chained, waits, since, horizon, interrupt_at):
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, 0.0)
    args = [x for i, wait in enumerate(waits) for x in (f"wait{i}", wait)]

    def visit():
        yield env.timeout(since)
        queued = env.now
        yield env.timeout(1.0)
        if chained:
            yield from chained_stages(
                env, tracer, ctx, *args, since=("queued", queued), closed=True
            )
        else:
            tracer.record(ctx, "queued", start=queued)
            for name, wait in zip(args[0::2], waits):
                span = tracer.begin(ctx, name)
                yield env.timeout(wait)
                tracer.end(span)
        tracer.close_root(ctx)

    proc = env.process(visit())
    if interrupt_at is not None:

        def interrupter():
            yield env.timeout(interrupt_at)
            if proc.is_alive:
                proc.interrupt("cut")

        env.process(interrupter())
    env.run(until=horizon)
    return tracer


@given(
    since=instants,
    waits=st.lists(lengths, min_size=1, max_size=2),
    horizon=instants,
    interrupt_at=st.one_of(st.none(), instants),
)
@settings(max_examples=300, deadline=None)
def test_chained_stages_read_like_sequential_waits(since, waits, horizon, interrupt_at):
    # A chain is one kernel event: an interrupt exactly at its handoff
    # may land on either side of the sequential waits' boundary.
    assume(interrupt_at != since + 1.0 + waits[0] or len(waits) == 1)
    chained = _run_chained(True, waits, since, horizon, interrupt_at)
    sequential = _run_chained(False, waits, since, horizon, interrupt_at)
    assert _views(chained) == _views(sequential)
