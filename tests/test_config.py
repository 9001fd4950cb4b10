"""Unit tests for experiment configuration validation."""

import pytest

from repro.config import ExperimentConfig, WorkloadKind, is_embedded
from repro.errors import ConfigError


def test_defaults_are_valid():
    config = ExperimentConfig()
    assert config.sps == "flink"
    assert config.embedded
    assert config.label() == "flink/onnx/ffnn"


def test_gpu_label():
    assert ExperimentConfig(gpu=True).label() == "flink/onnx-gpu/ffnn"


def test_is_embedded():
    assert is_embedded("onnx")
    assert is_embedded("dl4j")
    assert not is_embedded("tf_serving")
    with pytest.raises(ConfigError):
        is_embedded("mxnet")


@pytest.mark.parametrize(
    "field,value",
    [
        ("sps", "storm"),
        ("serving", "mxnet"),
        ("model", "bert"),
        ("bsz", 0),
        ("mp", 0),
        ("ir", 0.0),
        ("ir", -3.0),
        ("duration", 0.0),
        ("warmup_fraction", 1.0),
        ("warmup_fraction", -0.1),
        ("bd", 0.0),
        ("tbb", -1.0),
        ("partitions", 0),
        ("seed", -1),
    ],
)
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{field: value})


NAN = float("nan")


@pytest.mark.parametrize(
    "fields",
    [
        {"checkpoint_interval": 0.0},
        {"checkpoint_interval": -1.0},
        {"checkpoint_interval": NAN},
        {"checkpoint_interval": 1.0, "recovery_time": -1.0},
        {"checkpoint_interval": 1.0, "recovery_time": NAN},
        {"checkpoint_interval": 1.0, "failure_times": (0.0,)},
        {"checkpoint_interval": 1.0, "failure_times": (-1.0,)},
        {"checkpoint_interval": 1.0, "failure_times": (2.0, NAN)},
        {"checkpoint_interval": 1.0, "delivery_guarantee": "maybe_once"},
    ],
    ids=[
        "interval-zero",
        "interval-negative",
        "interval-nan",
        "recovery-negative",
        "recovery-nan",
        "failure-zero",
        "failure-negative",
        "failure-nan",
        "guarantee-unknown",
    ],
)
def test_fault_tolerance_values_rejected(fields):
    """Bad checkpoint/recovery values fail at construction, NaN included,
    instead of as a kernel error halfway through the run."""
    with pytest.raises(ConfigError):
        ExperimentConfig(**fields)


def test_operator_parallelism_flink_only():
    ExperimentConfig(sps="flink", operator_parallelism=(32, 1, 32))
    with pytest.raises(ConfigError):
        ExperimentConfig(sps="kafka_streams", operator_parallelism=(32, 1, 32))
    with pytest.raises(ConfigError):
        ExperimentConfig(sps="flink", operator_parallelism=(32, 0, 32))


def test_bursty_requires_rate():
    with pytest.raises(ConfigError):
        ExperimentConfig(workload=WorkloadKind.PERIODIC_BURSTS, ir=None)


def test_closed_loop_requires_rate():
    """Without a rate the runner would saturate: an open loop under a
    closed-loop label."""
    with pytest.raises(ConfigError, match="closed-loop"):
        ExperimentConfig(workload=WorkloadKind.CLOSED_LOOP, ir=None)
    assert ExperimentConfig(workload=WorkloadKind.CLOSED_LOOP, ir=1.0).ir == 1.0


def test_replace_revalidates():
    config = ExperimentConfig()
    with pytest.raises(ConfigError):
        config.replace(mp=-1)
    assert config.replace(mp=8).mp == 8


def test_config_is_hashable_and_frozen():
    config = ExperimentConfig()
    assert hash(config)
    with pytest.raises(Exception):
        config.mp = 2  # type: ignore[misc]
