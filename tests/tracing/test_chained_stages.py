"""``chained_stages`` spans read like two sequential waits.

A chained wait wakes its process once, at the end of the second stage,
so both stages' spans are written when the chain starts. Whatever the
clock reads when the trace is queried (the run's horizon) and wherever
an interrupt cuts the chain, the views and exports must equal those of
the two sequential waits; only span ids may differ.
"""

import pytest

from repro.simul import Environment
from repro.tracing.export import chrome_trace, span_rows
from repro.tracing.spans import Tracer, chained_stages

#: The chain starts at t=1 and hands off at 1.25; the second stage ends
#: at 1.75, and the caller closes the record at once.
START, FIRST, SECOND = 1.0, 0.25, 0.5


def _traced(chained, horizon, interrupt_at=None):
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, 0.0)

    def stages():
        yield env.timeout(START)
        if chained:
            span = yield from chained_stages(
                env, tracer, ctx, "first", FIRST, "second", SECOND
            )
        else:
            head = tracer.begin(ctx, "first")
            yield env.service_timeout(FIRST)
            tracer.end(head)
            span = tracer.begin(ctx, "second")
            yield env.service_timeout(SECOND)
        tracer.end(span)
        tracer.close_root(ctx)

    proc = env.process(stages())
    if interrupt_at is not None:

        def interrupter():
            yield env.timeout(interrupt_at)
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


@pytest.mark.parametrize("horizon", [0.5, 1.0, 1.1, 1.25, 1.3, 1.75, 3.0])
def test_views_at_any_horizon_match_sequential_waits(horizon):
    assert _views(_traced(True, horizon)) == _views(_traced(False, horizon))


@pytest.mark.parametrize("interrupt_at", [1.1, 1.3, 1.6])
def test_views_after_an_interrupt_match_sequential_waits(interrupt_at):
    chained = _traced(True, 3.0, interrupt_at)
    assert _views(chained) == _views(_traced(False, 3.0, interrupt_at))


def test_interrupt_inside_the_first_stage_leaves_it_open():
    tracer = _traced(True, 3.0, interrupt_at=1.1)
    assert [(s.name, s.end) for s in tracer.spans(0)] == [
        ("record", None),
        ("first", None),
    ]


def test_chained_stage_not_yet_begun_is_not_a_span():
    tracer = _traced(True, 1.1)
    spans = tracer.spans(0)
    assert [(s.name, s.end) for s in spans] == [("record", None), ("first", None)]
    hidden = spans[1].span_id + 1
    with pytest.raises(KeyError):
        tracer.span(hidden)
