"""Unit/integration tests for checkpointing and failure recovery."""

import pytest

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.runner import ExperimentRunner, run_experiment
from repro.errors import ConfigError
from repro.tracing.export import chrome_trace


def config(**kw):
    kw.setdefault("sps", "flink")
    kw.setdefault("serving", "onnx")
    kw.setdefault("model", "ffnn")
    kw.setdefault("ir", 200.0)
    kw.setdefault("duration", 6.0)
    kw.setdefault("checkpoint_interval", 1.0)
    return ExperimentConfig(**kw)


def test_experiment_config_ft_validation():
    # Checkpointing is valid on every engine; exactly-once stays
    # Flink-only, a rule ExperimentConfig alone enforces.
    config(sps="kafka_streams")
    with pytest.raises(ConfigError):
        config(sps="kafka_streams", delivery_guarantee="exactly_once")
    with pytest.raises(ConfigError):
        config(operator_parallelism=(32, 1, 32))
    with pytest.raises(ConfigError):
        config(checkpoint_interval=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(failure_times=(1.0,))  # no checkpointing
    with pytest.raises(ConfigError):
        config(delivery_guarantee="exactly_twice")


def test_checkpointing_overhead_is_small():
    plain = run_experiment(config(checkpoint_interval=None))
    checkpointed = run_experiment(config())
    assert checkpointed.throughput > 0.95 * plain.throughput
    assert checkpointed.duplicates == 0


def test_failure_free_run_has_no_duplicates():
    result = run_experiment(config())
    assert result.duplicates == 0
    assert result.completed > 0


def test_at_least_once_replays_after_failure():
    result = run_experiment(config(failure_times=(3.0,)))
    assert result.duplicates > 0
    # Replays are bounded by what arrived since the last checkpoint.
    assert result.duplicates <= 1.2 * 200.0 * 1.0
    # Every distinct batch is still delivered (no loss). ``completed``
    # counts distinct batches only; replays land in ``duplicates``.
    assert result.completed > 0.9 * 200.0 * (6.0 - 0.5)  # minus recovery downtime


def test_exactly_once_no_duplicates_after_failure():
    result = run_experiment(
        config(failure_times=(3.0,), delivery_guarantee="exactly_once")
    )
    assert result.duplicates == 0


def test_exactly_once_still_replays_inference():
    """§7.2: external side effects are not covered by the sink's
    transaction — the serving tool sees replayed requests either way."""
    result = run_experiment(
        config(failure_times=(3.0,), delivery_guarantee="exactly_once")
    )
    assert result.inference_requests > result.completed


def test_exactly_once_latency_quantized_by_checkpoints():
    """Transactional sinks hold output until the checkpoint commits."""
    exo = run_experiment(
        config(
            workload=WorkloadKind.CLOSED_LOOP,
            ir=20.0,
            delivery_guarantee="exactly_once",
        )
    )
    alo = run_experiment(config(workload=WorkloadKind.CLOSED_LOOP, ir=20.0))
    assert exo.latency.mean > 0.25 * 1.0  # ~half the checkpoint interval
    assert alo.latency.mean < 0.05


def test_exactly_once_commit_through_a_direct_sink():
    """The standalone sink lands each held batch inside its emit, so a
    commit of thousands of batches runs as one loop (no recursion per
    batch) and still delivers each batch once."""
    result = run_experiment(
        config(
            ir=3000.0, duration=3.0, use_broker=False,
            delivery_guarantee="exactly_once",
        )
    )
    assert result.duplicates == 0
    assert result.completed > 3000


def test_multiple_failures():
    result = run_experiment(config(failure_times=(2.0, 4.0)))
    assert result.duplicates > 0
    assert result.completed > 0


def test_recovery_downtime_reduces_throughput():
    plain = run_experiment(config())
    failed = run_experiment(config(failure_times=(3.0,), recovery_time=1.5))
    # A 1.5 s outage in a 6 s run costs visible throughput even though
    # replays partially backfill.
    assert failed.throughput < plain.throughput * 1.3


def test_external_serving_survives_failures():
    result = run_experiment(config(serving="tf_serving", failure_times=(3.0,)))
    assert result.completed > 0
    assert result.duplicates > 0


@pytest.mark.parametrize("guarantee", ["at_least_once", "exactly_once"])
def test_traced_crash_run_keeps_engine_spans(guarantee):
    """A checkpointed crash run executes the engine's own task loop, so
    its trace carries every Flink stage span."""
    result = ExperimentRunner(
        config(ir=50.0, duration=3.0, failure_times=(1.5,), delivery_guarantee=guarantee)
    ).run(trace=True)
    assert result.faults.engine_failures == 1
    names = {event["name"] for event in chrome_trace(result.trace)["traceEvents"]}
    for span in ("flink.task_queue", "flink.source", "flink.score", "flink.sink"):
        assert span in names, span
