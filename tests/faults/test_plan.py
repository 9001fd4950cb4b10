"""Validation of fault plans and resilience policies (pure config)."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    NetworkDegradation,
    PartitionOutage,
    ResiliencePolicy,
    ServerCrash,
    StragglerReplica,
)


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        ServerCrash(at=0.0)
    with pytest.raises(ConfigError):
        ServerCrash(at=1.0, downtime=-0.1)
    with pytest.raises(ConfigError):
        PartitionOutage(at=1.0, duration=0.0)
    with pytest.raises(ConfigError):
        PartitionOutage(at=1.0, duration=1.0, topic="orders")
    with pytest.raises(ConfigError):
        PartitionOutage(at=1.0, duration=1.0, partitions=())
    with pytest.raises(ConfigError):
        NetworkDegradation(at=1.0, duration=1.0)  # neither latency nor errors
    with pytest.raises(ConfigError):
        NetworkDegradation(at=1.0, duration=1.0, error_rate=1.5)
    with pytest.raises(ConfigError):
        StragglerReplica(at=1.0, duration=1.0, slowdown=0.5)


def test_plan_properties():
    assert FaultPlan().empty
    crash_plan = FaultPlan(server_crashes=(ServerCrash(at=1.0),))
    assert not crash_plan.empty
    assert crash_plan.touches_serving
    assert crash_plan.can_fail_requests

    outage = FaultPlan(partition_outages=(PartitionOutage(at=1.0, duration=0.5),))
    assert not outage.touches_serving
    assert not outage.can_fail_requests

    slow_net = FaultPlan(
        network_degradations=(
            NetworkDegradation(at=1.0, duration=0.5, extra_latency=0.01),
        )
    )
    assert slow_net.touches_serving
    assert not slow_net.can_fail_requests  # latency-only cannot fail calls

    flaky_net = FaultPlan(
        network_degradations=(
            NetworkDegradation(at=1.0, duration=0.5, error_rate=0.2),
        )
    )
    assert flaky_net.can_fail_requests


def test_plan_windows_sorted():
    plan = FaultPlan(
        server_crashes=(ServerCrash(at=5.0, downtime=0.5),),
        stragglers=(StragglerReplica(at=1.0, duration=2.0),),
    )
    assert plan.windows() == [(1.0, 3.0), (5.0, 5.5)]


def test_policy_validation():
    with pytest.raises(ConfigError):
        ResiliencePolicy(timeout=0.0)
    with pytest.raises(ConfigError):
        ResiliencePolicy(retries=-1)
    with pytest.raises(ConfigError):
        ResiliencePolicy(backoff_factor=0.5)
    with pytest.raises(ConfigError):
        ResiliencePolicy(jitter=1.0)
    with pytest.raises(ConfigError):
        ResiliencePolicy(breaker_threshold=0)
    with pytest.raises(ConfigError):
        ResiliencePolicy(on_exhausted="explode")
    with pytest.raises(ConfigError):
        ResiliencePolicy(on_exhausted="fallback")  # needs a fallback name
    with pytest.raises(ConfigError):
        ResiliencePolicy(fallback="onnx")  # fallback without the mode
    ResiliencePolicy(on_exhausted="fallback", fallback="onnx")


def test_config_integration():
    from repro.config import ExperimentConfig

    plan = FaultPlan(server_crashes=(ServerCrash(at=1.0),))
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="onnx", fault_plan=plan)  # embedded
    # Crashes and stragglers target the one worker pool, whatever its
    # size or batching policy.
    ExperimentConfig(serving="tf_serving", fault_plan=plan, autoscale=(1, 4))
    ExperimentConfig(
        serving="tf_serving", fault_plan=plan, adaptive_batching=(8, 0.005)
    )
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="onnx", resilience=ResiliencePolicy())
    with pytest.raises(ConfigError):
        ExperimentConfig(
            serving="tf_serving",
            resilience=ResiliencePolicy(on_exhausted="fallback", fallback="tf_serving"),
        )
    outages = FaultPlan(partition_outages=(PartitionOutage(at=1.0, duration=0.5),))
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="onnx", use_broker=False, fault_plan=outages)
    ExperimentConfig(serving="tf_serving", fault_plan=plan)
