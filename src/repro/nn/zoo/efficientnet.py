"""EfficientNet-B0 (Tan & Le, 2019).

The last of Figure 2's named candidate classifiers. Built from MBConv
blocks: a 1x1 expansion, a depthwise convolution, squeeze-and-excitation
channel gating, and a 1x1 projection, with residual connections where
geometry allows. Real architecture: ~5.3M parameters, ~0.8 GFLOPs per
224x224x3 image (0.39 GMACs), sitting between MobileNetV1 and ResNet-50
on the accuracy/latency frontier the paper's §2.2.2 motivates.
"""

from __future__ import annotations

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    DepthwiseConv2d,
    GlobalAvgPool2d,
    Layer,
    Residual,
    Softmax,
    SqueezeExcite,
    Swish,
)
from repro.nn.model import Sequential

INPUT_SHAPE = (3, 224, 224)
CLASSES = 1000
#: (expansion, out channels, repeats, stride, depthwise kernel) per stage.
STAGES = (
    (1, 16, 1, 1, 3),
    (6, 24, 2, 2, 3),
    (6, 40, 2, 2, 5),
    (6, 80, 3, 2, 3),
    (6, 112, 3, 1, 5),
    (6, 192, 4, 2, 5),
    (6, 320, 1, 1, 3),
)


def _conv_bn_swish(shape, filters, kernel, stride=1, padding=0) -> list[Layer]:
    conv = Conv2d(shape, filters, kernel, stride=stride, padding=padding)
    return [conv, BatchNorm2d(conv.output_shape), Swish(conv.output_shape)]


def _mbconv(shape, expansion, out_channels, stride, kernel) -> Layer | list[Layer]:
    """One MBConv block; a Residual when input and output geometry match."""
    main: list[Layer] = []
    expanded = shape[0] * expansion
    if expansion != 1:
        main += _conv_bn_swish(shape, expanded, kernel=1)
    depthwise = DepthwiseConv2d(
        main[-1].output_shape if main else shape,
        kernel_size=kernel,
        stride=stride,
        padding=kernel // 2,
    )
    main += [
        depthwise,
        BatchNorm2d(depthwise.output_shape),
        Swish(depthwise.output_shape),
        SqueezeExcite(depthwise.output_shape, reduction=4 * expansion),
    ]
    project = Conv2d(depthwise.output_shape, out_channels, kernel_size=1)
    main += [project, BatchNorm2d(project.output_shape)]
    if stride == 1 and shape[0] == out_channels:
        return Residual(shape, main, final_relu=False)
    return main


def build_efficientnet() -> Sequential:
    """Construct EfficientNet-B0."""
    layers: list[Layer] = _conv_bn_swish(INPUT_SHAPE, 32, kernel=3, stride=2, padding=1)
    shape = layers[-1].output_shape
    for expansion, out_channels, repeats, stride, kernel in STAGES:
        for repeat in range(repeats):
            block = _mbconv(
                shape,
                expansion,
                out_channels,
                stride if repeat == 0 else 1,
                kernel,
            )
            if isinstance(block, Residual):
                layers.append(block)
                shape = block.output_shape
            else:
                layers += block
                shape = block[-1].output_shape
    layers += _conv_bn_swish(shape, 1280, kernel=1)
    gap = GlobalAvgPool2d(layers[-1].output_shape)
    layers += [gap, Dense(gap.output_shape, CLASSES), Softmax((CLASSES,))]
    return Sequential(layers, name="efficientnet_b0")
