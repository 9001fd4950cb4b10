"""Unit tests for model containers and the zoo (Table 2 characteristics)."""

import pytest

from repro.errors import ConfigError, ShapeError
from repro.nn import Dense, ReLU, Sequential
from repro.nn.zoo import build_resnet50, model_info


def test_sequential_validates_shape_chain():
    with pytest.raises(ShapeError):
        Sequential([Dense((4,), 8), Dense((4,), 2)])


def test_sequential_empty_rejected():
    with pytest.raises(ShapeError):
        Sequential([])


def test_sequential_accounting():
    model = Sequential([Dense((4,), 8), ReLU((8,)), Dense((8,), 2)])
    assert model.param_count == (4 * 8 + 8) + (8 * 2 + 2)
    assert model.input_shape == (4,)
    assert model.output_shape == (2,)
    assert model.flops_per_point == 2 * 4 * 8 + 8 + 2 * 8 * 2


def test_ffnn_matches_paper_characteristics():
    """Table 2: 28x28 input, 10x1 output, ~28K parameters."""
    info = model_info("ffnn")
    assert info.input_shape == (28, 28)
    assert info.output_shape == (10,)
    assert 27_000 <= info.param_count <= 29_000


def test_resnet50_matches_paper_characteristics():
    """Table 2: 224x224x3 input, 1000x1 output, ~23M params (we count
    25.6M, the full torchvision/Keras number)."""
    info = model_info("resnet50")
    assert info.input_shape == (3, 224, 224)
    assert info.output_shape == (1000,)
    assert 23_000_000 <= info.param_count <= 26_000_000
    # He et al. report ~3.8 GMACs = ~7.7 GFLOPs.
    assert 7.0e9 <= info.flops_per_point <= 8.5e9


def test_resnet50_architecture_without_weights_is_cheap():
    model = build_resnet50()
    assert model.param_count > 20_000_000  # counting needs no allocation


def test_model_info_cached_and_validated():
    assert model_info("ffnn") is model_info("ffnn")
    with pytest.raises(ConfigError):
        model_info("alexnet")


def test_model_info_value_counts():
    info = model_info("ffnn")
    assert info.input_values == 784
    assert info.output_values == 10


def test_ffnn_flops_consistent_with_architecture():
    info = model_info("ffnn")
    dense_flops = 2 * (784 * 32 + 32 * 32 + 32 * 32 + 32 * 10)
    assert dense_flops <= info.flops_per_point <= dense_flops * 1.05
