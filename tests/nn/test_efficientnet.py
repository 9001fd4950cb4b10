"""Unit tests for Swish, SqueezeExcite, and EfficientNet-B0."""

import pytest

from repro.errors import ShapeError
from repro.nn.layers import Residual, Dense, Softmax, SqueezeExcite
from repro.nn.zoo import model_info
from repro.nn.zoo.efficientnet import build_efficientnet


def test_squeeze_excite_shapes_and_params():
    se = SqueezeExcite((32, 8, 8), reduction=4)
    assert se.output_shape == (32, 8, 8)
    assert se.squeezed == 8
    assert se.param_count == (32 * 8 + 8) + (8 * 32 + 32)


def test_squeeze_excite_validation():
    with pytest.raises(ShapeError):
        SqueezeExcite((4,), reduction=2)
    with pytest.raises(ShapeError):
        SqueezeExcite((4, 2, 2), reduction=0)


def test_residual_without_final_relu():
    block = Residual((4,), [Dense((4,), 4)], final_relu=False)
    assert block.final_relu is False
    assert Residual((4,), [Dense((4,), 4)]).final_relu is True
    assert block.output_shape == (4,)
    assert block.param_count == 4 * 4 + 4


def test_efficientnet_matches_published_characteristics():
    """Tan & Le: B0 has ~5.3M params and ~0.39 GMACs (~0.78 GFLOPs)."""
    info = model_info("efficientnet_b0")
    assert info.input_shape == (3, 224, 224)
    assert info.output_shape == (1000,)
    assert 5.0e6 <= info.param_count <= 5.7e6
    assert 0.7e9 <= info.flops_per_point <= 0.95e9


def test_flop_counts_are_pinned():
    # MBConv residuals add without a ReLU; ResNet's bottlenecks have one.
    assert model_info("efficientnet_b0").flops_per_point == 820_781_464
    assert model_info("resnet50").flops_per_point == 7_753_631_672


def test_residual_without_final_relu_charges_only_the_add():
    main = [Dense((4,), 4)]
    block = Residual((4,), main, final_relu=False)
    assert block.flops_per_point == main[0].flops_per_point + 4


def test_efficientnet_sits_between_mobilenet_in_params():
    assert (
        model_info("mobilenet").param_count
        < model_info("efficientnet_b0").param_count
        < model_info("resnet50").param_count
    )


def test_efficientnet_forward():
    """The layer chain maps one 224x224x3 image to 1000 class scores."""
    model = build_efficientnet()
    assert model.input_shape == (3, 224, 224)
    assert model.output_shape == (1000,)
    assert isinstance(model.layers[-1], Softmax)
    assert model.param_count == 5_351_572


def test_efficientnet_usable_in_experiments():
    from repro.config import ExperimentConfig
    from repro.core.runner import run_experiment

    result = run_experiment(
        ExperimentConfig(
            sps="flink", serving="onnx", model="efficientnet_b0", ir=None, duration=3.0
        )
    )
    assert result.completed > 5
    # Input serde dominates at 224x224x3, so the rate sits near
    # MobileNet's despite fewer FLOPs.
    assert 5 < result.throughput < 25
