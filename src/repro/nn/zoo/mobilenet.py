"""MobileNetV1 (Howard et al., 2017).

One of the candidate image classifiers in the paper's Figure 2 design
space (alongside ResNet-50, Inception-v3, EfficientNet-B0). Built from
depthwise-separable convolutions: a 3x3 depthwise filter per channel
followed by a 1x1 pointwise projection, cutting compute ~8-9x versus
standard convolutions. Real architecture: ~4.2M parameters, ~1.1 GFLOPs
per 224x224x3 image — the "middle" model between the paper's FFNN and
ResNet-50.
"""

from __future__ import annotations

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    DepthwiseConv2d,
    GlobalAvgPool2d,
    Layer,
    ReLU,
    Softmax,
)
from repro.nn.model import Sequential

INPUT_SHAPE = (3, 224, 224)
CLASSES = 1000
#: (pointwise output channels, depthwise stride) per separable block.
BLOCKS = (
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (1024, 2),
    (1024, 1),
)


def _conv_bn_relu(shape, filters, kernel, stride=1, padding=0) -> list[Layer]:
    conv = Conv2d(shape, filters, kernel, stride=stride, padding=padding)
    return [conv, BatchNorm2d(conv.output_shape), ReLU(conv.output_shape)]


def _separable(shape, out_channels, stride) -> list[Layer]:
    """Depthwise 3x3 -> BN -> ReLU -> pointwise 1x1 -> BN -> ReLU."""
    depthwise = DepthwiseConv2d(shape, kernel_size=3, stride=stride, padding=1)
    layers: list[Layer] = [
        depthwise,
        BatchNorm2d(depthwise.output_shape),
        ReLU(depthwise.output_shape),
    ]
    layers += _conv_bn_relu(depthwise.output_shape, out_channels, kernel=1)
    return layers


def build_mobilenet() -> Sequential:
    """Construct MobileNetV1 (width multiplier 1.0, 224x224 input)."""
    layers: list[Layer] = _conv_bn_relu(
        INPUT_SHAPE, 32, kernel=3, stride=2, padding=1
    )
    shape = layers[-1].output_shape
    for out_channels, stride in BLOCKS:
        block = _separable(shape, out_channels, stride)
        layers += block
        shape = block[-1].output_shape
    gap = GlobalAvgPool2d(shape)
    layers += [gap, Dense(gap.output_shape, CLASSES), Softmax((CLASSES,))]
    return Sequential(layers, name="mobilenet")
