"""Unit tests for the span tracer (repro.tracing.spans)."""

import pytest

from repro.core.batch import CrayfishDataBatch
from repro.errors import ConfigError
from repro.simul import Environment
from repro.tracing.spans import (
    NO_TRACE,
    NullTracer,
    TraceContext,
    TraceOptions,
    Tracer,
    make_tracer,
)


def advance(env, delay):
    def ticker():
        yield env.timeout(delay)

    env.process(ticker())
    env.run()


def make_batch(tracer, batch_id=0, created_at=0.0):
    return CrayfishDataBatch(
        batch_id=batch_id,
        created_at=created_at,
        points=1,
        point_shape=(4,),
        trace=tracer.make_context(batch_id, created_at),
    )


def test_root_span_opens_at_creation_time():
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=1.5)
    assert ctx == TraceContext(trace_id=0)
    advance(env, 1.5)
    root = tracer.root(0)
    assert root.name == "record"
    assert root.start == 1.5
    assert not root.finished


def test_begin_end_records_current_time():
    env = Environment()
    tracer = Tracer(env)
    batch = make_batch(tracer)
    span_id = tracer.begin(batch, "stage", color="x")
    advance(env, 2.0)
    tracer.end(span_id, items=3)
    span = tracer.span(span_id)
    assert span.start == 0.0
    assert span.end == 2.0
    assert span.duration == 2.0
    assert span.attrs == {"color": "x", "items": 3}
    assert span.parent_id == tracer.root(0).span_id


def test_sampling_skips_unsampled_batches():
    env = Environment()
    tracer = Tracer(env, sample_every=3)
    contexts = [tracer.make_context(i, 0.0) for i in range(9)]
    sampled = [c for c in contexts if c is not None]
    assert len(sampled) == 3  # ids 0, 3, 6
    assert tracer.trace_ids() == (0, 3, 6)


def test_max_traces_cap_counts_drops():
    env = Environment()
    tracer = Tracer(env, max_traces=2)
    for i in range(5):
        tracer.make_context(i, 0.0)
    assert tracer.trace_ids() == (0, 1)
    assert tracer.dropped == 3


def test_unsampled_subjects_are_noops():
    env = Environment()
    tracer = Tracer(env, sample_every=2)
    batch = make_batch(tracer, batch_id=1)  # unsampled
    assert batch.trace is None
    assert tracer.begin(batch, "stage") is None
    tracer.end(None)  # None-safe
    assert tracer.record(batch, "stage", start=0.0) is None
    assert tracer.span_count == 0


def test_record_rejects_negative_duration():
    env = Environment()
    tracer = Tracer(env)
    batch = make_batch(tracer)
    with pytest.raises(ValueError, match="before start"):
        tracer.record(batch, "stage", start=5.0, end=1.0)


def test_close_root_is_idempotent():
    env = Environment()
    tracer = Tracer(env)
    batch = make_batch(tracer)
    tracer.close_root(batch, end_time=3.0)
    tracer.close_root(batch, end_time=9.0)  # at-least-once replay
    advance(env, 9.0)
    assert tracer.root(0).end == 3.0
    assert tracer.finished_trace_ids() == (0,)


def test_context_of_resolves_batch_context_and_none():
    env = Environment()
    tracer = Tracer(env)
    batch = make_batch(tracer)
    assert tracer.context_of(batch) == batch.trace
    assert tracer.context_of(batch.trace) == batch.trace
    assert tracer.context_of(None) is None
    # Contexts from another tracer are unknown here.
    assert tracer.context_of(TraceContext(trace_id=99)) is None


def test_explicit_parent_nesting():
    env = Environment()
    tracer = Tracer(env)
    batch = make_batch(tracer)
    outer = tracer.begin(batch, "outer")
    inner = tracer.begin(batch, "inner", parent=outer)
    assert tracer.span(inner).parent_id == tracer.span(outer).span_id


def test_views_are_cached_until_the_next_write():
    env = Environment()
    tracer = Tracer(env)
    batch = make_batch(tracer)
    span_id = tracer.begin(batch, "stage")
    root = tracer.root(0)
    assert root is tracer.spans(0)[0]
    assert tracer.span(span_id) is tracer.spans(0)[1]
    assert tracer.span(span_id).end is None
    advance(env, 1.0)
    tracer.end(span_id)
    # The write dropped the cached views; new ones show the close.
    assert tracer.span(span_id).end == 1.0
    assert tracer.root(0) is not root
    assert tracer.root(0).span_id == root.span_id
    with pytest.raises(KeyError):
        tracer.span(span_id + 1)


def test_trace_options_validation():
    with pytest.raises(ConfigError):
        TraceOptions(sample_every=0)
    with pytest.raises(ConfigError):
        TraceOptions(max_traces=0)


def test_null_tracer_is_fully_inert():
    tracer = NO_TRACE
    assert isinstance(tracer, NullTracer)
    assert not tracer.enabled
    assert tracer.make_context(0, 0.0) is None
    assert tracer.begin(object(), "x") is None
    assert tracer.record(object(), "x", start=0.0) is None
    assert tracer.trace_ids() == ()


def test_make_tracer_resolution():
    env = Environment()
    assert make_tracer(env, None) is NO_TRACE
    assert make_tracer(env, False) is NO_TRACE
    assert isinstance(make_tracer(env, True), Tracer)
    custom = make_tracer(env, TraceOptions(sample_every=5, max_traces=7))
    assert custom.sample_every == 5
    assert custom.max_traces == 7
    ready = Tracer(env)
    assert make_tracer(env, ready) is ready
    with pytest.raises(ConfigError):
        make_tracer(env, "yes")
