"""The paper's FFNN: a Fashion-MNIST classifier (§4.1).

A fully connected network with three hidden layers of 32 ReLU neurons,
28x28 inputs, and 10 output classes — about 28K parameters (Table 2).
"""

from __future__ import annotations

from repro.nn.layers import Dense, Flatten, ReLU, Softmax
from repro.nn.model import Sequential

INPUT_SHAPE = (28, 28)
HIDDEN_UNITS = 32
HIDDEN_LAYERS = 3
CLASSES = 10


def build_ffnn() -> Sequential:
    """Construct the FFNN."""
    layers = [Flatten(INPUT_SHAPE)]
    width = INPUT_SHAPE[0] * INPUT_SHAPE[1]
    for __ in range(HIDDEN_LAYERS):
        layers.append(Dense((width,), HIDDEN_UNITS))
        layers.append(ReLU((HIDDEN_UNITS,)))
        width = HIDDEN_UNITS
    layers.append(Dense((width,), CLASSES))
    layers.append(Softmax((CLASSES,)))
    return Sequential(layers, name="ffnn")
