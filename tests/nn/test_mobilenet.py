"""Unit tests for DepthwiseConv2d and the MobileNetV1 zoo model."""

import pytest

from repro.errors import ShapeError
from repro.nn import DepthwiseConv2d
from repro.nn.zoo import build_mobilenet, model_info


def test_depthwise_shapes_and_params():
    layer = DepthwiseConv2d((32, 112, 112), kernel_size=3, stride=1, padding=1)
    assert layer.output_shape == (32, 112, 112)
    assert layer.param_count == 32 * 9 + 32


def test_depthwise_stride_halves_resolution():
    layer = DepthwiseConv2d((8, 16, 16), kernel_size=3, stride=2, padding=1)
    assert layer.output_shape == (8, 8, 8)


def test_depthwise_cheaper_than_full_conv():
    from repro.nn import Conv2d

    depthwise = DepthwiseConv2d((64, 28, 28), kernel_size=3, padding=1)
    full = Conv2d((64, 28, 28), filters=64, kernel_size=3, padding=1)
    assert depthwise.flops_per_point < full.flops_per_point / 20


def test_depthwise_validation():
    with pytest.raises(ShapeError):
        DepthwiseConv2d((4,), kernel_size=3)
    with pytest.raises(ShapeError):
        DepthwiseConv2d((1, 2, 2), kernel_size=5)


def test_mobilenet_matches_published_characteristics():
    """Howard et al.: ~4.2M params, ~0.57 GMACs (~1.1 GFLOPs)."""
    info = model_info("mobilenet")
    assert info.input_shape == (3, 224, 224)
    assert info.output_shape == (1000,)
    assert 4.0e6 <= info.param_count <= 4.5e6
    assert 1.0e9 <= info.flops_per_point <= 1.3e9


def test_mobilenet_between_ffnn_and_resnet():
    ffnn = model_info("ffnn")
    mobilenet = model_info("mobilenet")
    resnet = model_info("resnet50")
    assert ffnn.flops_per_point < mobilenet.flops_per_point < resnet.flops_per_point
    assert ffnn.param_count < mobilenet.param_count < resnet.param_count


def test_mobilenet_is_not_a_large_model():
    """MobileNet must not trip the ResNet-class serving restrictions."""
    from repro import calibration as cal
    from repro.serving.costs import ServingCostModel

    costs = ServingCostModel(
        cal.SERVING_PROFILES["tf_serving"], model_info("mobilenet"), mp=8
    )
    assert not costs.is_large_model
    assert costs.engine_concurrency == 8


def test_mobilenet_forward_small_input():
    """The stem halves 224x224 to 112x112; the head yields 1000 scores."""
    model = build_mobilenet()
    assert model.layers[0].output_shape == (32, 112, 112)
    assert model.output_shape == (1000,)
    assert model.param_count == 4_264_808


def test_mobilenet_usable_in_experiments():
    from repro.config import ExperimentConfig
    from repro.core.runner import run_experiment

    result = run_experiment(
        ExperimentConfig(
            sps="flink", serving="onnx", model="mobilenet", ir=None, duration=3.0
        )
    )
    assert result.completed > 5
    # Sustainable rate sits between FFNN (~1.3k) and ResNet50 (~2.4).
    assert 5 < result.throughput < 500
