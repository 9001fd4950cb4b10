"""Graph neural networks: the paper's §9 extension target.

The conclusion names GNN serving as future work because, unlike the
feed-forward models of the study, scoring one node needs its *k-hop
neighborhood* read from historical state. This module models a GCN
(Kipf & Welling-style graph convolutions) through its static accounting:
parameters, and FLOPs as a function of neighborhood size, which the
serving cost models consume. The state-read side lives in
:mod:`repro.serving.state`.
"""

from __future__ import annotations

from repro.errors import ShapeError
from repro.nn.model import Model


class GraphConvLayer:
    """One graph convolution: ``relu(A_norm @ H @ W + b)``."""

    def __init__(self, in_features: int, out_features: int) -> None:
        if in_features < 1 or out_features < 1:
            raise ShapeError("GraphConvLayer: features must be >= 1")
        self.in_features = int(in_features)
        self.out_features = int(out_features)

    @property
    def param_count(self) -> int:
        return self.in_features * self.out_features + self.out_features


class GcnModel(Model):
    """A GCN node classifier.

    ``avg_degree`` and the layer count (= k hops) determine both the
    serving-time FLOPs and — through :mod:`repro.serving.state` — how many
    neighborhood keys a scoring request must read.
    """

    def __init__(
        self,
        feature_dim: int,
        hidden_dim: int,
        classes: int,
        hops: int = 2,
        avg_degree: float = 8.0,
        name: str = "gcn",
    ) -> None:
        if hops < 1:
            raise ShapeError(f"hops must be >= 1, got {hops}")
        if avg_degree < 1:
            raise ShapeError(f"avg_degree must be >= 1, got {avg_degree}")
        self.name = name
        self.feature_dim = int(feature_dim)
        self.hidden_dim = int(hidden_dim)
        self.classes = int(classes)
        self.hops = int(hops)
        self.avg_degree = float(avg_degree)
        dims = [self.feature_dim] + [self.hidden_dim] * (self.hops - 1) + [self.classes]
        self.layers = [
            GraphConvLayer(d_in, d_out) for d_in, d_out in zip(dims, dims[1:])
        ]

    @property
    def input_shape(self) -> tuple[int, ...]:
        return (self.feature_dim,)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return (self.classes,)

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def neighborhood_size(self) -> int:
        """Expected nodes in the k-hop neighborhood of one target node."""
        return int(sum(self.avg_degree**i for i in range(self.hops + 1)))

    @property
    def flops_per_point(self) -> float:
        """FLOPs to score one node, including neighborhood aggregation.

        Each layer transforms every node in the neighborhood
        (``2 * n * d_in * d_out``) and aggregates over ~avg_degree
        neighbors per node (``2 * n * avg_degree * d_out``).
        """
        n = self.neighborhood_size
        total = 0.0
        for layer in self.layers:
            total += 2.0 * n * layer.in_features * layer.out_features
            total += 2.0 * n * self.avg_degree * layer.out_features
        return total


def build_gcn(
    feature_dim: int = 64,
    hidden_dim: int = 64,
    classes: int = 2,
    hops: int = 2,
    avg_degree: float = 8.0,
) -> GcnModel:
    """Builder usable with ``register_model``: every argument has a default."""
    return GcnModel(
        feature_dim=feature_dim,
        hidden_dim=hidden_dim,
        classes=classes,
        hops=hops,
        avg_degree=avg_degree,
        name=f"gcn{hops}hop",
    )
