"""The tracer's memory per span stays within budget.

Spans are stored as columns (see :mod:`repro.tracing.spans`), so a
traced run retains a few machine words per span rather than one object
and one attrs dict each. This test measures what tracing adds to the
memory a finished run retains (``tracemalloc``), divided by the number
of spans it recorded.
"""

import gc
import tracemalloc

from repro.config import ExperimentConfig
from repro.core.runner import ExperimentRunner

#: Retained bytes per span the tracer may add. List columns need about
#: 65; one object plus attrs dict per span needed about 245.
BYTES_PER_SPAN = 120

CONFIG = ExperimentConfig(
    sps="flink", serving="tf_serving", model="ffnn", mp=4, ir=2000.0,
    duration=0.5, seed=1,
)


def retained_bytes(trace):
    """Bytes still allocated once a run finished, and the run's result."""
    gc.collect()
    tracemalloc.start()
    try:
        result = ExperimentRunner(CONFIG).run(trace=trace)
        gc.collect()
        size, __ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size, result


def test_tracer_retains_at_most_budget_bytes_per_span():
    untraced, __ = retained_bytes(None)
    traced, result = retained_bytes(True)
    spans = result.trace.span_count
    assert spans > 10_000
    per_span = (traced - untraced) / spans
    assert per_span <= BYTES_PER_SPAN, f"{per_span:.0f} bytes per span"
