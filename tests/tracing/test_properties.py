"""Property-based tests (hypothesis) for span-tree well-formedness.

Two layers:

- Synthetic traces: arbitrary nested span layouts keep the attribution
  invariant (stage times tile the root duration exactly).
- End-to-end runs: for every sampled record of a real simulated
  experiment, the span tree is well-formed — children nested inside
  their parents, no negative durations — and the root span duration
  equals the measured end-to-end latency of that record.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.config import ExperimentConfig
from repro.core.runner import ExperimentRunner
from repro.simul import Environment
from repro.tracing.analysis import record_breakdown
from repro.tracing.spans import Tracer


# -- synthetic traces ------------------------------------------------------

segment_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.booleans(),  # nest under the previous span (when possible)?
    ),
    min_size=0,
    max_size=12,
)


@given(segment_lists, st.floats(min_value=1.0, max_value=200.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_breakdown_tiles_root_for_arbitrary_layouts(segments, root_length):
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=0.0)
    previous = None
    for offset, length, nest in segments:
        parent = previous if nest else None
        previous = tracer.record(
            ctx, "stage", start=offset, end=offset + length, parent=parent
        )
    tracer.close_root(ctx, end_time=root_length)
    env.run(until=200.0)  # past every start and end drawn above
    breakdown = record_breakdown(tracer, 0)
    assert math.isclose(
        sum(breakdown.values()), root_length, rel_tol=1e-9, abs_tol=1e-9
    )
    assert all(value >= 0.0 for value in breakdown.values())


# -- real pipeline runs ----------------------------------------------------

CONFIG_POOL = [
    ("flink", "onnx"),
    ("kafka_streams", "dl4j"),
    ("spark_ss", "onnx"),
    ("ray", "tf_serving"),  # substitutes Ray Serve, crosses the proxy
    ("flink", "torchserve"),
]


def run_traced(sps, serving, ir, duration=3.0, mp=2):
    config = ExperimentConfig(
        sps=sps, serving=serving, model="ffnn", bsz=4, ir=ir, mp=mp,
        duration=duration,
    )
    result = ExperimentRunner(config).run(trace=True)
    assert result.trace is not None
    return result


@given(
    st.sampled_from(CONFIG_POOL),
    st.sampled_from([40.0, 90.0]),
)
@settings(max_examples=10, deadline=None)
def test_span_trees_well_formed_in_real_runs(sut, ir):
    sps, serving = sut
    result = run_traced(sps, serving, ir)
    tracer = result.trace
    finished = tracer.finished_trace_ids()
    assert finished, "no record completed"
    for trace_id in finished:
        spans = tracer.spans(trace_id)
        by_id = {span.span_id: span for span in spans}
        root = tracer.root(trace_id)
        for span in spans:
            # No negative durations; finished spans end after they start.
            if span.finished:
                assert span.duration >= 0.0
            # Children are nested inside their parents' windows.
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                if span.finished and parent.finished:
                    assert span.end <= parent.end + 1e-9
        # Only one root per trace, and it is the recorded root.
        roots = [s for s in spans if s.parent_id is None]
        assert roots == [root]


@given(st.sampled_from(CONFIG_POOL))
@settings(max_examples=5, deadline=None)
def test_root_duration_equals_measured_latency(sut):
    sps, serving = sut
    result = run_traced(sps, serving, ir=60.0)
    tracer = result.trace
    # The metrics collector records (end_time, latency) per completion;
    # the root span closes at that same end_time, and latency is computed
    # from the identical floats — so equality here is exact, not approx.
    runner_latencies: dict[float, list[float]] = {}
    for end_time, latency in result.series:
        runner_latencies.setdefault(end_time, []).append(latency)
    finished = tracer.finished_trace_ids()
    assert finished
    for trace_id in finished:
        root = tracer.root(trace_id)
        matches = runner_latencies.get(root.end)
        assert matches, f"no completion recorded at root end {root.end}"
        assert root.duration in matches, (
            f"trace {trace_id}: root {root.duration} not among {matches}"
        )
    # And the tiling invariant holds on the real topology too.
    for trace_id in finished:
        breakdown = record_breakdown(tracer, trace_id)
        assert math.isclose(
            sum(breakdown.values()),
            tracer.root(trace_id).duration,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
