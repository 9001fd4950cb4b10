"""A GRU sequence classifier (§4.1's RNN workload class).

The paper's generator "can be configured to yield sequence-like random
data" for RNN benchmarking. This model makes that concrete: a GRU over
32 timesteps of 64 features (a sensor window, a token embedding stream),
followed by a dense classifier — a realistic streaming-inference shape
for IoT and log-analytics pipelines.
"""

from __future__ import annotations

from repro.nn.layers import Dense, Gru, ReLU, Softmax
from repro.nn.model import Sequential

TIMESTEPS = 32
FEATURES = 64
HIDDEN = 128
CLASSES = 8


def build_gru() -> Sequential:
    """Construct the GRU classifier (input shape ``(32, 64)``)."""
    gru = Gru((TIMESTEPS, FEATURES), hidden=HIDDEN)
    layers = [
        gru,
        Dense(gru.output_shape, HIDDEN),
        ReLU((HIDDEN,)),
        Dense((HIDDEN,), CLASSES),
        Softmax((CLASSES,)),
    ]
    return Sequential(layers, name="gru")
