"""ResNet-50 (He et al., 2016), the paper's large model (§4.1).

The standard ImageNet architecture: a 7x7/2 stem, max-pool, four stages of
bottleneck residual blocks ([3, 4, 6, 3] repeats), global average pooling,
and a 1000-way classifier. Built with real shapes so parameter counts
(~25.6M; the paper rounds to 23M) and FLOPs (~3.9 GFLOP per 224x224x3
image) are genuine.
"""

from __future__ import annotations

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    GlobalAvgPool2d,
    Layer,
    MaxPool2d,
    ReLU,
    Residual,
    Softmax,
)
from repro.nn.model import Sequential

INPUT_SHAPE = (3, 224, 224)
CLASSES = 1000
#: Bottleneck block repeats per stage.
STAGE_BLOCKS = (3, 4, 6, 3)
#: Bottleneck "narrow" widths per stage; output width is 4x.
STAGE_WIDTHS = (64, 128, 256, 512)
EXPANSION = 4


def _conv_bn(shape, filters, kernel, stride=1, padding=0, relu=True) -> list[Layer]:
    """conv -> batchnorm (-> relu), the ResNet building unit."""
    conv = Conv2d(shape, filters, kernel, stride=stride, padding=padding)
    layers: list[Layer] = [conv, BatchNorm2d(conv.output_shape)]
    if relu:
        layers.append(ReLU(conv.output_shape))
    return layers


def _bottleneck(shape, width, stride) -> Residual:
    """1x1 reduce -> 3x3 -> 1x1 expand, with a projection shortcut when
    the geometry changes."""
    out_channels = width * EXPANSION
    main: list[Layer] = []
    main += _conv_bn(shape, width, kernel=1, stride=stride)
    main += _conv_bn(main[-1].output_shape, width, kernel=3, padding=1)
    main += _conv_bn(main[-1].output_shape, out_channels, kernel=1, relu=False)
    needs_projection = stride != 1 or shape[0] != out_channels
    shortcut = (
        _conv_bn(shape, out_channels, kernel=1, stride=stride, relu=False)
        if needs_projection
        else None
    )
    return Residual(shape, main, shortcut)


def build_resnet50() -> Sequential:
    """Construct ResNet-50."""
    layers: list[Layer] = []
    layers += _conv_bn(INPUT_SHAPE, 64, kernel=7, stride=2, padding=3)
    pool = MaxPool2d(layers[-1].output_shape, pool_size=3, stride=2, padding=1)
    layers.append(pool)
    shape = pool.output_shape
    for stage, (blocks, width) in enumerate(zip(STAGE_BLOCKS, STAGE_WIDTHS)):
        for block in range(blocks):
            stride = 2 if (stage > 0 and block == 0) else 1
            residual = _bottleneck(shape, width, stride)
            layers.append(residual)
            shape = residual.output_shape
    gap = GlobalAvgPool2d(shape)
    layers += [
        gap,
        Dense(gap.output_shape, CLASSES),
        Softmax((CLASSES,)),
    ]
    return Sequential(layers, name="resnet50")
