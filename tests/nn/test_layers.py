"""Unit tests for NN layers: shapes, params, and FLOPs."""

import pytest

from repro.errors import ShapeError
from repro.nn import (
    Add,
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Softmax,
)
from repro.nn.layers import Swish


def test_dense_shapes_and_params():
    layer = Dense((784,), 32)
    assert layer.output_shape == (32,)
    assert layer.param_count == 784 * 32 + 32
    assert layer.flops_per_point == 2 * 784 * 32


def test_dense_rejects_bad_input_shape():
    with pytest.raises(ShapeError):
        Dense((1, 4), 2)
    with pytest.raises(ShapeError):
        Sequential([Dense((3,), 4), Dense((3,), 2)])  # fed 4 values, expects 3


def test_conv2d_output_shape():
    conv = Conv2d((3, 224, 224), filters=64, kernel_size=7, stride=2, padding=3)
    assert conv.output_shape == (64, 112, 112)


def test_conv2d_param_count():
    conv = Conv2d((3, 224, 224), filters=64, kernel_size=7, stride=2, padding=3)
    assert conv.param_count == 64 * 3 * 7 * 7 + 64


def test_conv2d_kernel_too_big_rejected():
    with pytest.raises(ShapeError):
        Conv2d((1, 3, 3), filters=1, kernel_size=5)


def test_flatten():
    flat = Flatten((2, 3, 4))
    assert flat.output_shape == (24,)
    assert flat.param_count == 0
    assert flat.flops_per_point == 0.0


def test_maxpool_shape_and_values():
    pool = MaxPool2d((1, 4, 4), pool_size=2)
    assert pool.output_shape == (1, 2, 2)
    # One comparison per window element for each of the 4 outputs.
    assert pool.flops_per_point == 4 * 2 * 2


def test_maxpool_with_padding():
    pool = MaxPool2d((1, 3, 3), pool_size=3, stride=2, padding=1)
    assert pool.output_shape == (1, 2, 2)
    assert pool.stride == 2 and pool.padding == 1


def test_global_avg_pool():
    gap = GlobalAvgPool2d((2, 3, 3))
    assert gap.output_shape == (2,)
    assert gap.flops_per_point == 2 * 3 * 3
    with pytest.raises(ShapeError):
        GlobalAvgPool2d((4,))


def test_add_layer():
    add = Add((3,))
    assert add.output_shape == (3,)
    assert add.param_count == 0
    assert add.flops_per_point == 3


def test_residual_identity_shortcut():
    main = [Dense((4,), 4)]
    block = Residual((4,), main)
    assert block.output_shape == (4,)
    # The identity shortcut adds no parameters; add + relu cost 2 per value.
    assert block.param_count == main[0].param_count
    assert block.flops_per_point == main[0].flops_per_point + 2 * 4


def test_residual_projection_shortcut():
    main = [Dense((4,), 8)]
    shortcut = [Dense((4,), 8)]
    block = Residual((4,), main, shortcut)
    assert block.output_shape == (8,)
    assert block.param_count == 2 * (4 * 8 + 8)
    assert block.flops_per_point == 2 * (2 * 4 * 8) + 2 * 8


def test_batchnorm_params_and_flops():
    bn = BatchNorm2d((2, 3, 3))
    assert bn.output_shape == (2, 3, 3)
    assert set(bn.param_shapes()) == {"gamma", "beta", "running_mean", "running_var"}
    assert bn.param_count == 4 * 2
    assert bn.flops_per_point == 2 * 2 * 3 * 3


def test_activation_flops_per_value():
    assert ReLU((4,)).flops_per_point == 4
    assert Softmax((5,)).flops_per_point == 3 * 5
    assert Sigmoid((5,)).flops_per_point == 4 * 5
    assert Swish((5,)).flops_per_point == 5 * 5
    for layer in (ReLU((4,)), Softmax((5,)), Sigmoid((5,)), Swish((5,))):
        assert layer.output_shape == layer.input_shape
        assert layer.param_count == 0


def test_residual_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        Residual((4,), [Dense((4,), 8)])  # identity shortcut shape mismatch


def test_residual_param_accounting():
    block = Residual((4,), [Dense((4,), 4)], [Dense((4,), 4)])
    assert block.param_count == 2 * (4 * 4 + 4)
    assert set(block.param_shapes()) == {
        "main.0.weight",
        "main.0.bias",
        "shortcut.0.weight",
        "shortcut.0.bias",
    }


def test_invalid_shapes_rejected():
    with pytest.raises(ShapeError):
        Dense((0,), 3)
    with pytest.raises(ShapeError):
        Dense((2, 2), 3)
    with pytest.raises(ShapeError):
        Conv2d((4,), 1, 1)
    with pytest.raises(ShapeError):
        Softmax((2, 2))
