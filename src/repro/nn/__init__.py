"""A shape-only model zoo: architectures, shape algebra, params and FLOPs.

This package provides the "pre-trained models" of the study as their
architectures: genuine FFNN and ResNet-50 layer stacks whose input and
output shapes, parameter counts and FLOPs are real (Table 2). The
simulator reads nothing else of a model: inference time is FLOPs times
a calibrated efficiency and load time follows from ``param_count``. So
no layer holds weights or computes a forward pass.
"""

from repro.nn.layers import (
    Add,
    BatchNorm2d,
    Conv2d,
    Dense,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool2d,
    Gru,
    Layer,
    MaxPool2d,
    ReLU,
    Residual,
    Sigmoid,
    Softmax,
)
from repro.nn.model import Model, Sequential

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm2d",
    "ReLU",
    "Softmax",
    "Sigmoid",
    "Gru",
    "Flatten",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Add",
    "Residual",
    "Model",
    "Sequential",
]
