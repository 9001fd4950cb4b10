"""Layers: shape algebra and parameter/FLOP accounting.

A layer is its shapes and its costs; it holds no weights and computes
nothing. Shapes are per-point (no batch dimension). Convolutions use
NCHW layout. FLOPs follow the usual convention of 2 ops (multiply +
add) per MAC.
"""

from __future__ import annotations

import math

from repro.errors import ShapeError

Shape = tuple[int, ...]


def _check_positive_shape(shape: Shape, who: str) -> None:
    if not shape or any(int(d) < 1 for d in shape):
        raise ShapeError(f"{who}: invalid shape {shape}")


class Layer:
    """Base layer: its shapes, parameter tensors and FLOPs."""

    def __init__(self, input_shape: Shape) -> None:
        _check_positive_shape(tuple(input_shape), type(self).__name__)
        self.input_shape: Shape = tuple(int(d) for d in input_shape)

    @property
    def output_shape(self) -> Shape:
        raise NotImplementedError

    def param_shapes(self) -> dict[str, Shape]:
        """Name -> shape of every trainable parameter tensor."""
        return {}

    @property
    def param_count(self) -> int:
        return sum(math.prod(s) for s in self.param_shapes().values())

    @property
    def flops_per_point(self) -> float:
        """Floating-point operations to process one data point."""
        return 0.0


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, input_shape: Shape, units: int) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 1:
            raise ShapeError(f"Dense expects a flat input, got {self.input_shape}")
        if units < 1:
            raise ShapeError(f"Dense units must be >= 1, got {units}")
        self.units = int(units)

    @property
    def output_shape(self) -> Shape:
        return (self.units,)

    def param_shapes(self) -> dict[str, Shape]:
        return {"weight": (self.input_shape[0], self.units), "bias": (self.units,)}

    @property
    def flops_per_point(self) -> float:
        return 2.0 * self.input_shape[0] * self.units


class Conv2d(Layer):
    """2-D convolution over NCHW input, implemented with im2col."""

    def __init__(
        self,
        input_shape: Shape,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 3:
            raise ShapeError(f"Conv2d expects (C, H, W), got {self.input_shape}")
        if filters < 1 or kernel_size < 1 or stride < 1 or padding < 0:
            raise ShapeError("Conv2d: invalid hyper-parameters")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        c, h, w = self.input_shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ShapeError(
                f"Conv2d: kernel {kernel_size} does not fit input {self.input_shape}"
            )
        self._out_shape = (self.filters, out_h, out_w)

    @property
    def output_shape(self) -> Shape:
        return self._out_shape

    def param_shapes(self) -> dict[str, Shape]:
        c = self.input_shape[0]
        return {
            "weight": (self.filters, c, self.kernel_size, self.kernel_size),
            "bias": (self.filters,),
        }

    @property
    def flops_per_point(self) -> float:
        c = self.input_shape[0]
        __, out_h, out_w = self._out_shape
        macs = out_h * out_w * self.filters * c * self.kernel_size**2
        return 2.0 * macs


class DepthwiseConv2d(Layer):
    """Depthwise 2-D convolution: one kernel per input channel (the
    building block of MobileNet-style separable convolutions)."""

    def __init__(
        self,
        input_shape: Shape,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 3:
            raise ShapeError(f"DepthwiseConv2d expects (C, H, W), got {self.input_shape}")
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ShapeError("DepthwiseConv2d: invalid hyper-parameters")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        c, h, w = self.input_shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ShapeError(
                f"DepthwiseConv2d: kernel {kernel_size} does not fit "
                f"{self.input_shape}"
            )
        self._out_shape = (c, out_h, out_w)

    @property
    def output_shape(self) -> Shape:
        return self._out_shape

    def param_shapes(self) -> dict[str, Shape]:
        c = self.input_shape[0]
        return {
            "weight": (c, self.kernel_size, self.kernel_size),
            "bias": (c,),
        }

    @property
    def flops_per_point(self) -> float:
        c, out_h, out_w = self._out_shape
        return 2.0 * c * out_h * out_w * self.kernel_size**2


class BatchNorm2d(Layer):
    """Inference-mode batch normalization over the channel axis."""

    def __init__(self, input_shape: Shape, epsilon: float = 1e-5) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 3:
            raise ShapeError(f"BatchNorm2d expects (C, H, W), got {self.input_shape}")
        self.epsilon = float(epsilon)

    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    def param_shapes(self) -> dict[str, Shape]:
        c = self.input_shape[0]
        return {
            "gamma": (c,),
            "beta": (c,),
            "running_mean": (c,),
            "running_var": (c,),
        }

    @property
    def flops_per_point(self) -> float:
        return 2.0 * float(math.prod(self.input_shape))


class ReLU(Layer):
    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    @property
    def flops_per_point(self) -> float:
        return float(math.prod(self.input_shape))


class Softmax(Layer):
    """Numerically stable softmax over the last axis."""

    def __init__(self, input_shape: Shape) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 1:
            raise ShapeError(f"Softmax expects a flat input, got {self.input_shape}")

    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    @property
    def flops_per_point(self) -> float:
        return 3.0 * self.input_shape[0]


class Flatten(Layer):
    @property
    def output_shape(self) -> Shape:
        return (math.prod(self.input_shape),)


class MaxPool2d(Layer):
    def __init__(self, input_shape: Shape, pool_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 3:
            raise ShapeError(f"MaxPool2d expects (C, H, W), got {self.input_shape}")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        self.padding = int(padding)
        c, h, w = self.input_shape
        out_h = (h + 2 * self.padding - self.pool_size) // self.stride + 1
        out_w = (w + 2 * self.padding - self.pool_size) // self.stride + 1
        if out_h < 1 or out_w < 1:
            raise ShapeError("MaxPool2d: pool does not fit input")
        self._out_shape = (c, out_h, out_w)

    @property
    def output_shape(self) -> Shape:
        return self._out_shape

    @property
    def flops_per_point(self) -> float:
        return float(math.prod(self._out_shape)) * self.pool_size**2


class GlobalAvgPool2d(Layer):
    def __init__(self, input_shape: Shape) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 3:
            raise ShapeError(
                f"GlobalAvgPool2d expects (C, H, W), got {self.input_shape}"
            )

    @property
    def output_shape(self) -> Shape:
        return (self.input_shape[0],)

    @property
    def flops_per_point(self) -> float:
        return float(math.prod(self.input_shape))


class Gru(Layer):
    """A GRU over a ``(timesteps, features)`` input, returning the final
    hidden state (the sequence-model class of §4.1's RNN workloads)."""

    def __init__(self, input_shape: Shape, hidden: int) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 2:
            raise ShapeError(f"Gru expects (timesteps, features), got {self.input_shape}")
        if hidden < 1:
            raise ShapeError(f"Gru hidden size must be >= 1, got {hidden}")
        self.hidden = int(hidden)

    @property
    def timesteps(self) -> int:
        return self.input_shape[0]

    @property
    def features(self) -> int:
        return self.input_shape[1]

    @property
    def output_shape(self) -> Shape:
        return (self.hidden,)

    def param_shapes(self) -> dict[str, Shape]:
        # Update, reset, and candidate gates share the layout:
        # input kernel, recurrent kernel, bias.
        shapes: dict[str, Shape] = {}
        for gate in ("update", "reset", "candidate"):
            shapes[f"{gate}_kernel"] = (self.features, self.hidden)
            shapes[f"{gate}_recurrent"] = (self.hidden, self.hidden)
            shapes[f"{gate}_bias"] = (self.hidden,)
        return shapes

    @property
    def flops_per_point(self) -> float:
        per_gate = 2.0 * (self.features + self.hidden) * self.hidden
        elementwise = 6.0 * self.hidden
        return self.timesteps * (3.0 * per_gate + elementwise)


class Sigmoid(Layer):
    """Elementwise logistic activation (autoencoder output layers)."""

    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    @property
    def flops_per_point(self) -> float:
        return 4.0 * float(math.prod(self.input_shape))


class Swish(Layer):
    """``x * sigmoid(x)`` (SiLU), EfficientNet's activation."""

    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    @property
    def flops_per_point(self) -> float:
        return 5.0 * float(math.prod(self.input_shape))


class SqueezeExcite(Layer):
    """Squeeze-and-excitation: global pooling -> bottleneck MLP ->
    per-channel sigmoid gates (EfficientNet's channel attention)."""

    def __init__(self, input_shape: Shape, reduction: int = 4) -> None:
        super().__init__(input_shape)
        if len(self.input_shape) != 3:
            raise ShapeError(f"SqueezeExcite expects (C, H, W), got {self.input_shape}")
        if reduction < 1:
            raise ShapeError(f"reduction must be >= 1, got {reduction}")
        self.reduction = int(reduction)
        self.squeezed = max(self.input_shape[0] // self.reduction, 1)

    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    def param_shapes(self) -> dict[str, Shape]:
        c = self.input_shape[0]
        return {
            "reduce_weight": (c, self.squeezed),
            "reduce_bias": (self.squeezed,),
            "expand_weight": (self.squeezed, c),
            "expand_bias": (c,),
        }

    @property
    def flops_per_point(self) -> float:
        c = self.input_shape[0]
        pool = float(math.prod(self.input_shape))
        mlp = 2.0 * (c * self.squeezed) * 2
        scale = float(math.prod(self.input_shape))
        return pool + mlp + scale


class Add(Layer):
    """Elementwise addition of two same-shaped activations."""

    @property
    def output_shape(self) -> Shape:
        return self.input_shape

    @property
    def flops_per_point(self) -> float:
        return float(math.prod(self.input_shape))


class Residual(Layer):
    """A residual block: ``relu(main(x) + shortcut(x))``.

    ``main`` and ``shortcut`` are lists of layers; an empty shortcut is
    the identity.
    """

    def __init__(
        self,
        input_shape: Shape,
        main: list[Layer],
        shortcut: list[Layer] | None = None,
        final_relu: bool = True,
    ) -> None:
        super().__init__(input_shape)
        if not main:
            raise ShapeError("Residual: main path cannot be empty")
        self.main = list(main)
        self.shortcut = list(shortcut) if shortcut else []
        # ResNet applies ReLU after the addition; MBConv (EfficientNet)
        # adds without an activation.
        self.final_relu = bool(final_relu)
        main_out = self.main[-1].output_shape
        short_out = self.shortcut[-1].output_shape if self.shortcut else self.input_shape
        if main_out != short_out:
            raise ShapeError(
                f"Residual: main out {main_out} != shortcut out {short_out}"
            )
        if tuple(self.main[0].input_shape) != self.input_shape:
            raise ShapeError("Residual: main path input mismatch")
        if self.shortcut and tuple(self.shortcut[0].input_shape) != self.input_shape:
            raise ShapeError("Residual: shortcut path input mismatch")

    @property
    def output_shape(self) -> Shape:
        return self.main[-1].output_shape

    def _sublayers(self) -> list[Layer]:
        return self.main + self.shortcut

    def param_shapes(self) -> dict[str, Shape]:
        shapes: dict[str, Shape] = {}
        for prefix, layers in (("main", self.main), ("shortcut", self.shortcut)):
            for i, layer in enumerate(layers):
                for name, shape in layer.param_shapes().items():
                    shapes[f"{prefix}.{i}.{name}"] = shape
        return shapes

    @property
    def flops_per_point(self) -> float:
        body = sum(l.flops_per_point for l in self._sublayers())
        # One add per output value, and one more for the ReLU if any.
        per_value = 2.0 if self.final_relu else 1.0
        return body + per_value * float(math.prod(self.output_shape))
