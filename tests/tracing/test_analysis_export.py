"""Tests for the attribution sweep, breakdown tables, and exporters."""

import pytest

from repro.simul import Environment
from repro.tracing.analysis import (
    UNTRACED,
    _attribution_segments,
    bottleneck,
    bottleneck_ranking,
    breakdown_table,
    critical_path,
    record_breakdown,
)
from repro.tracing.export import (
    chrome_trace,
    load_chrome_trace,
    save_chrome_trace,
    save_spans_csv,
    span_rows,
)
from repro.tracing.spans import Tracer


def hand_built_trace(env=None):
    """One record [0, 10] with stages:

    - a [0, 4], b [4, 7]: flat stages under the root
    - b_inner [5, 6]: nested inside b (deeper => owns its window)
    - [7, 10]: uncovered => (untraced)
    """
    env = env or Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=0.0)
    tracer.record(ctx, "a", start=0.0, end=4.0)
    b = tracer.record(ctx, "b", start=4.0, end=7.0)
    tracer.record(ctx, "b_inner", start=5.0, end=6.0, parent=b)
    tracer.close_root(ctx, end_time=10.0)
    env.run(until=10.0)  # views show the trace as of the clock
    return tracer


def test_breakdown_tiles_the_root_exactly():
    tracer = hand_built_trace()
    breakdown = record_breakdown(tracer, 0)
    assert breakdown == {
        "a": 4.0,
        "b": 2.0,  # [4,5] + [6,7]; [5,6] goes to the deeper b_inner
        "b_inner": 1.0,
        UNTRACED: 3.0,
    }
    assert sum(breakdown.values()) == pytest.approx(10.0)


def test_overlapping_same_depth_spans_tie_to_later_start():
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=0.0)
    tracer.record(ctx, "first", start=0.0, end=6.0)
    tracer.record(ctx, "second", start=2.0, end=4.0)
    tracer.close_root(ctx, end_time=6.0)
    env.run(until=6.0)
    breakdown = record_breakdown(tracer, 0)
    assert breakdown == {"first": 4.0, "second": 2.0}


def test_spans_clipped_to_root_window():
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=1.0)
    # Starts before the root and ends after it: only [1, 3] counts.
    tracer.record(ctx, "early", start=0.0, end=3.0)
    tracer.close_root(ctx, end_time=3.0)
    env.run(until=3.0)
    assert record_breakdown(tracer, 0) == {"early": 2.0}


def test_breakdown_requires_completed_record():
    env = Environment()
    tracer = Tracer(env)
    tracer.make_context(0, created_at=0.0)
    with pytest.raises(ValueError, match="not completed"):
        record_breakdown(tracer, 0)
    with pytest.raises(ValueError, match="not completed"):
        critical_path(tracer, 0)


def test_sweep_matches_the_root_by_id_not_identity():
    tracer = hand_built_trace()
    root = tracer.root(0)
    # Admitting another trace is a write: the views of trace 0 are
    # rebuilt, so the root in spans() is a different object.
    tracer.make_context(1, created_at=0.0)
    spans = tracer.spans(0)
    assert spans[0] is not root
    stages = {segment.stage for segment in _attribution_segments(root, spans)}
    assert "record" not in stages
    assert UNTRACED in stages


def test_critical_path_orders_and_merges():
    tracer = hand_built_trace()
    path = critical_path(tracer, 0)
    assert [seg.stage for seg in path] == ["a", "b", "b_inner", "b", UNTRACED]
    assert path[0].duration == 4.0
    # Contiguous tiling: each hop starts where the previous ended.
    for prev, cur in zip(path, path[1:]):
        assert prev.end == cur.start
    assert path[0].start == 0.0
    assert path[-1].end == 10.0


def test_breakdown_table_aggregates_and_sorts():
    env = Environment()
    tracer = Tracer(env)
    for trace_id, (a_len, b_len) in enumerate([(3.0, 1.0), (5.0, 1.0)]):
        ctx = tracer.make_context(trace_id, created_at=0.0)
        tracer.record(ctx, "a", start=0.0, end=a_len)
        tracer.record(ctx, "b", start=a_len, end=a_len + b_len)
        tracer.close_root(ctx, end_time=a_len + b_len)
    env.run(until=6.0)
    table = breakdown_table(tracer)
    assert [s.stage for s in table] == ["a", "b"]
    a = table[0]
    assert a.total == 8.0
    assert a.mean == 4.0
    assert a.share == pytest.approx(0.8)
    assert a.records == 2
    assert sum(s.share for s in table) == pytest.approx(1.0)
    assert bottleneck(tracer) == "a"
    assert [s.stage for s in bottleneck_ranking(tracer, top=1)] == ["a"]


def test_breakdown_table_cutoff_discards_warmup():
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=0.0)
    tracer.record(ctx, "warm", start=0.0, end=1.0)
    tracer.close_root(ctx, end_time=1.0)
    ctx = tracer.make_context(1, created_at=5.0)
    tracer.record(ctx, "steady", start=5.0, end=6.0)
    tracer.close_root(ctx, end_time=6.0)
    env.run(until=6.0)
    table = breakdown_table(tracer, cutoff=2.0)
    assert [s.stage for s in table] == ["steady"]
    assert bottleneck(tracer, cutoff=100.0) is None
    assert breakdown_table(tracer, cutoff=100.0) == []


def test_chrome_trace_structure():
    tracer = hand_built_trace()
    data = chrome_trace(tracer)
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" and e["tid"] == 0 for e in meta)
    # 4 finished spans: root + a + b + b_inner.
    assert len(complete) == 4
    root_event = next(e for e in complete if e["name"] == "record")
    assert root_event["ts"] == 0.0
    assert root_event["dur"] == pytest.approx(10.0 * 1e6)
    assert all(e["pid"] == 0 and e["tid"] == 0 for e in complete)


def test_chrome_trace_skips_open_spans():
    env = Environment()
    tracer = Tracer(env)
    ctx = tracer.make_context(0, created_at=0.0)
    tracer.begin(ctx, "never_finished")
    data = chrome_trace(tracer)
    assert [e for e in data["traceEvents"] if e["ph"] == "X"] == []


def test_export_round_trip(tmp_path):
    tracer = hand_built_trace()
    json_path = tmp_path / "trace.json"
    save_chrome_trace(tracer, str(json_path))
    data = load_chrome_trace(str(json_path))
    assert len(data["traceEvents"]) == len(chrome_trace(tracer)["traceEvents"])

    csv_path = tmp_path / "spans.csv"
    save_spans_csv(tracer, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trace_id,span_id,parent_id,name,start,end,duration"
    assert len(lines) == 1 + len(span_rows(tracer))
    assert len(span_rows(tracer)) == 4


def test_load_chrome_trace_rejects_other_json(tmp_path):
    path = tmp_path / "not_trace.json"
    path.write_text('{"foo": 1}')
    with pytest.raises(ValueError, match="trace_event"):
        load_chrome_trace(str(path))
