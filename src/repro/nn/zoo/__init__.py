"""The pre-trained model zoo (paper §4.1, Table 2)."""

from repro.nn.zoo.autoencoder import build_autoencoder
from repro.nn.zoo.efficientnet import build_efficientnet
from repro.nn.zoo.ffnn import build_ffnn
from repro.nn.zoo.rnn import build_gru
from repro.nn.zoo.mobilenet import build_mobilenet
from repro.nn.zoo.resnet import build_resnet50
from repro.nn.zoo.registry import (
    ModelInfo,
    available_models,
    model_info,
    register_model,
    unregister_model,
)

__all__ = [
    "build_autoencoder",
    "build_efficientnet",
    "build_ffnn",
    "build_gru",
    "build_mobilenet",
    "build_resnet50",
    "ModelInfo",
    "available_models",
    "model_info",
    "register_model",
    "unregister_model",
]
