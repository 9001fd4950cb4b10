"""Unit tests for stream-processor engine behaviours.

The qualitative claims each engine is responsible for (who wins where)
live in the benchmarks; these tests pin the *mechanisms*.
"""

import pytest

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.runner import run_experiment
from repro.errors import ConfigError
from repro.serving import create_serving_tool
from repro.simul import Environment
from repro.sps import create_data_processor
from repro.sps.flink.engine import FlinkProcessor
from repro.sps.gateways import DirectInput, DirectOutput


def build(sps="flink", tool_name="onnx", mp=1, **kwargs):
    env = Environment()
    tool = create_serving_tool(tool_name, env, "ffnn", mp=mp)
    engine = create_data_processor(
        sps, env, tool, DirectInput(env), DirectOutput(env), mp=mp, **kwargs
    )
    return env, engine


def test_registry_rejects_unknown_engine():
    env = Environment()
    tool = create_serving_tool("onnx", env, "ffnn")
    with pytest.raises(ConfigError):
        create_data_processor("storm", env, tool, DirectInput(env), DirectOutput(env))


def test_flink_chained_vs_unchained_tasks():
    __, chained = build()
    assert isinstance(chained, FlinkProcessor)
    assert chained.operator_parallelism is None
    __, unchained = build(operator_parallelism=(4, 2, 4))
    assert unchained.operator_parallelism == (4, 2, 4)


def test_flink_buffer_penalty_only_for_large_records():
    __, engine = build()
    assert engine._buffer_penalty(1000) == 0.0
    assert engine._buffer_penalty(32 * 1024) == 0.0
    assert engine._buffer_penalty(64 * 1024) > 0.0
    assert engine._buffer_penalty(1_000_000) > engine._buffer_penalty(100_000)


def test_embedded_slowdown_grows_with_mp():
    __, small = build(mp=1)
    __, big = build(mp=16)
    assert small.slowdown == 1.0
    assert big.slowdown > 1.2


def test_external_serving_has_no_sps_slowdown():
    __, engine = build(tool_name="tf_serving", mp=16)
    assert engine.slowdown == 1.0


def test_kafka_streams_contends_less_than_flink():
    """§5.3.3: the pull model scales embedded serving better."""
    __, flink = build(sps="flink", mp=16)
    __, ks = build(sps="kafka_streams", mp=16)
    assert ks.slowdown < flink.slowdown


def test_spark_fires_triggers():
    config = ExperimentConfig(
        sps="spark_ss", serving="onnx", model="ffnn", ir=200.0, duration=3.0
    )
    result = run_experiment(config)
    assert result.completed > 0


def test_spark_latency_includes_trigger_overhead():
    """Fig. 10: micro-batching puts a ~100 ms floor under Spark latency."""
    config = ExperimentConfig(
        sps="spark_ss",
        serving="onnx",
        model="ffnn",
        workload=WorkloadKind.CLOSED_LOOP,
        ir=2.0,
        duration=5.0,
    )
    result = run_experiment(config)
    assert result.latency.mean > 0.09


def test_flink_latency_no_trigger_floor():
    config = ExperimentConfig(
        sps="flink",
        serving="onnx",
        model="ffnn",
        workload=WorkloadKind.CLOSED_LOOP,
        ir=2.0,
        duration=5.0,
    )
    result = run_experiment(config)
    assert result.latency.mean < 0.02


def test_kafka_streams_latency_floor_from_poll_interval():
    """Fig. 10 small batches: KS pays a fixed poll-cycle cost."""
    flink = run_experiment(
        ExperimentConfig(
            sps="flink", serving="onnx", model="ffnn",
            workload=WorkloadKind.CLOSED_LOOP, ir=2.0, duration=5.0,
        )
    )
    ks = run_experiment(
        ExperimentConfig(
            sps="kafka_streams", serving="onnx", model="ffnn",
            workload=WorkloadKind.CLOSED_LOOP, ir=2.0, duration=5.0,
        )
    )
    assert ks.latency.mean > flink.latency.mean


def test_flink_loses_to_kafka_streams_at_large_batches():
    """Fig. 10 bsz=512: buffer fragmentation costs Flink its edge."""
    def latency(sps, bsz):
        return run_experiment(
            ExperimentConfig(
                sps=sps, serving="onnx", model="ffnn",
                workload=WorkloadKind.CLOSED_LOOP, ir=1.0, bsz=bsz, duration=6.0,
            )
        ).latency.mean

    assert latency("flink", 32) < latency("kafka_streams", 32)
    assert latency("flink", 512) > latency("kafka_streams", 512)


def test_ray_throughput_capped_by_node_scheduler():
    """Fig. 11: Ray plateaus near 1.2k events/s however many actors."""
    result = run_experiment(
        ExperimentConfig(sps="ray", serving="onnx", model="ffnn", ir=None, mp=16, duration=2.0)
    )
    assert 1000 < result.throughput < 1500


def test_completion_counting():
    config = ExperimentConfig(sps="flink", serving="onnx", model="ffnn", ir=50.0, duration=2.0)
    result = run_experiment(config)
    assert result.completed <= result.produced
    assert result.completed == pytest.approx(100, rel=0.1)
