"""End-to-end clustered experiments: scaling, observability, determinism."""

import pytest

from repro.analysis.order import verify_order
from repro.cluster.spec import ClusterSpec, FlashCrowd, PopulationSpec
from repro.config import ExperimentConfig
from repro.core.runner import ExperimentRunner, run_experiment
from repro.metrics import MetricsOptions
from repro.tracing.analysis import node_breakdown
from repro.tracing.spans import TraceOptions


def _config(**extra):
    base = dict(
        sps="flink",
        serving="onnx",
        model="ffnn",
        ir=100.0,
        duration=1.5,
        cluster=ClusterSpec(nodes=2),
    )
    base.update(extra)
    return ExperimentConfig(**base)


def test_embedded_clustered_run_completes():
    result = run_experiment(_config())
    assert result.completed > 0
    assert result.throughput == pytest.approx(100.0, rel=0.1)


def test_external_clustered_run_uses_the_fleet():
    result = run_experiment(
        _config(serving="tf_serving", ir=50.0, mp=2)
    )
    assert result.completed > 0
    assert result.inference_requests > 0


def test_saturating_throughput_scales_with_nodes():
    """More nodes -> more engine parallelism -> more events/s."""
    one = run_experiment(
        _config(ir=None, mp=2, cluster=ClusterSpec(nodes=1), duration=1.0)
    )
    three = run_experiment(
        _config(ir=None, mp=2, cluster=ClusterSpec(nodes=3), duration=1.0)
    )
    assert three.throughput > one.throughput * 1.5


def test_population_workload_drives_the_pipeline():
    config = _config(
        ir=None,
        population=PopulationSpec(
            users=10_000,
            events_per_user_per_day=864.0,  # 100 ev/s aggregate
            diurnal_period=10.0,
            flash_crowds=(FlashCrowd(at=0.5, duration=0.3, multiplier=3.0),),
        ),
    )
    result = run_experiment(config)
    assert result.completed > 0
    # the flash crowd pushes production above the flat mean
    assert result.produced > 100 * config.duration


def test_per_node_gauges_registered():
    result = ExperimentRunner(
        _config(serving="tf_serving", ir=50.0)
    ).run(metrics=MetricsOptions(scrape_interval=0.25))
    registry = result.telemetry.registry
    assert registry.get("cluster_nodes").value() == 2.0
    for node in ("node-0", "node-1"):
        labels = {"node": node}
        assert registry.get("cluster_node_brokers", labels).value() == 1.0
        assert registry.get("cluster_node_tasks", labels).value() >= 1.0
        assert registry.get("cluster_node_replicas", labels).value() == 1.0
        assert registry.get("serving_node_requests", labels).value() > 0.0
    assert registry.get("serving_fleet_replicas").value() == 2.0


def test_traces_attribute_spans_to_nodes():
    result = ExperimentRunner(
        _config(serving="tf_serving", ir=50.0)
    ).run(trace=TraceOptions())
    breakdown = node_breakdown(result.trace)
    named = {node for node in breakdown if node.startswith("node-")}
    assert named, f"no node-attributed spans in {sorted(breakdown)}"
    assert all(duration >= 0 for duration in breakdown.values())


def test_clustered_runs_are_byte_identical():
    config = _config(ir=80.0, duration=1.0)
    verdicts = verify_order(config, engines=("flink",), permutations=0)
    assert all(v.identical for v in verdicts), [v.mismatched for v in verdicts]


def test_clustered_external_determinism():
    config = _config(serving="tf_serving", ir=40.0, duration=1.0, mp=2)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.throughput == b.throughput
    assert a.latency == b.latency
    assert a.completed == b.completed
    assert a.inference_requests == b.inference_requests


def test_unclustered_config_is_untouched():
    """cluster=None keeps the original single-node pipeline semantics."""
    config = ExperimentConfig(
        sps="flink", serving="onnx", model="ffnn", ir=100.0, duration=1.0
    )
    assert config.cluster is None
    result = run_experiment(config)
    assert result.completed > 0
