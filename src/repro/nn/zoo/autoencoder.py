"""A dense autoencoder (§4.1's compact-representation workload class).

"Autoencoders can also be benchmarked with Crayfish to test the
performance of producing compact representations." A symmetric
784 -> 256 -> 32 -> 256 -> 784 reconstruction network: the streaming use
case is anomaly detection by reconstruction error over event windows.
"""

from __future__ import annotations

from repro.nn.layers import Dense, Flatten, ReLU, Sigmoid
from repro.nn.model import Sequential

INPUT_SHAPE = (28, 28)
HIDDEN = 256
BOTTLENECK = 32


def build_autoencoder() -> Sequential:
    """Construct the autoencoder (output = reconstructed input)."""
    width = INPUT_SHAPE[0] * INPUT_SHAPE[1]
    layers = [
        Flatten(INPUT_SHAPE),
        Dense((width,), HIDDEN),
        ReLU((HIDDEN,)),
        Dense((HIDDEN,), BOTTLENECK),
        ReLU((BOTTLENECK,)),
        Dense((BOTTLENECK,), HIDDEN),
        ReLU((HIDDEN,)),
        Dense((HIDDEN,), width),
        Sigmoid((width,)),
    ]
    return Sequential(layers, name="autoencoder")
