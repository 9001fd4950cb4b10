"""Model registry: the static characteristics of every zoo model.

Serving cost models need FLOPs, parameter counts, and tensor sizes; those
are pure shape algebra, so :class:`ModelInfo` computes them from the
architecture alone and caches the result per model name.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from repro.errors import ConfigError
from repro.nn.model import Model
from repro.nn.zoo.autoencoder import build_autoencoder
from repro.nn.zoo.efficientnet import build_efficientnet
from repro.nn.zoo.ffnn import build_ffnn
from repro.nn.zoo.mobilenet import build_mobilenet
from repro.nn.zoo.resnet import build_resnet50
from repro.nn.zoo.rnn import build_gru

_BUILDERS: dict[str, typing.Callable[[], Model]] = {
    "autoencoder": build_autoencoder,
    "efficientnet_b0": build_efficientnet,
    "ffnn": build_ffnn,
    "gru": build_gru,
    "mobilenet": build_mobilenet,
    "resnet50": build_resnet50,
}


def available_models() -> list[str]:
    """Names of all registered models (built-in + user-registered)."""
    return sorted(_BUILDERS)


def register_model(name: str, builder: typing.Callable[[], Model]) -> None:
    """Register a user model (§3.2: Crayfish is model-extensible).

    ``builder`` takes no arguments and returns a :class:`Model`. Built-in
    names cannot be overridden.
    """
    if name in _BUILDERS:
        raise ConfigError(f"model {name!r} is already registered")
    _BUILDERS[name] = builder
    model_info.cache_clear()


_BUILTIN_MODELS = frozenset(
    ("autoencoder", "efficientnet_b0", "ffnn", "gru", "mobilenet", "resnet50")
)


def unregister_model(name: str) -> None:
    """Remove a user-registered model; built-ins cannot be removed."""
    if name in _BUILTIN_MODELS:
        raise ConfigError(f"cannot unregister built-in model {name!r}")
    if name not in _BUILDERS:
        raise ConfigError(f"model {name!r} is not registered")
    del _BUILDERS[name]
    model_info.cache_clear()


@dataclasses.dataclass(frozen=True)
class ModelInfo:
    """Static facts about one zoo model."""

    name: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    param_count: int
    flops_per_point: float
    #: Scalar values in one input point and in one prediction: read on
    #: every scoring call, so computed once, from the shapes.
    input_values: int = dataclasses.field(init=False)
    output_values: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_values", int(math.prod(self.input_shape)))
        object.__setattr__(self, "output_values", int(math.prod(self.output_shape)))


@functools.lru_cache(maxsize=None)
def model_info(name: str) -> ModelInfo:
    """Characteristics of the named model, from its architecture."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigError(f"unknown model {name!r}; have {sorted(_BUILDERS)}")
    model = builder()
    return ModelInfo(
        name=name,
        input_shape=model.input_shape,
        output_shape=model.output_shape,
        param_count=model.param_count,
        flops_per_point=model.flops_per_point,
    )

