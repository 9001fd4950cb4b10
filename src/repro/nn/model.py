"""Model containers: a validated chain of layers and its totals."""

from __future__ import annotations

import typing

from repro.errors import ShapeError
from repro.nn import layers as L


class Model:
    """Base model interface: the four numbers the serving layer reads."""

    name: str = "model"

    @property
    def input_shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def output_shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def param_count(self) -> int:
        raise NotImplementedError

    @property
    def flops_per_point(self) -> float:
        raise NotImplementedError


class Sequential(Model):
    """A chain of layers with validated shape hand-offs."""

    def __init__(self, layers: typing.Sequence[L.Layer], name: str = "model") -> None:
        if not layers:
            raise ShapeError("Sequential needs at least one layer")
        self.layers = list(layers)
        self.name = name
        for upstream, downstream in zip(self.layers, self.layers[1:]):
            if tuple(upstream.output_shape) != tuple(downstream.input_shape):
                raise ShapeError(
                    f"{type(upstream).__name__} -> {type(downstream).__name__}: "
                    f"{upstream.output_shape} != {downstream.input_shape}"
                )

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.layers[0].input_shape)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return tuple(self.layers[-1].output_shape)

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def flops_per_point(self) -> float:
        return sum(layer.flops_per_point for layer in self.layers)
