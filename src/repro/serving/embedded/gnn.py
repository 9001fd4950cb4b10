"""GNN serving: inference that reads k-hop state per request (§9).

Wraps an embedded engine so every scoring call first fetches the target
nodes' k-hop neighborhoods from a :class:`~repro.serving.state.StateStore`
before running the graph convolutions. This is the capability the paper's
conclusion lists as future work for streaming-inference systems.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.nn.gnn import GcnModel
from repro.serving.costs import ServingCostModel
from repro.serving.embedded.library import EmbeddedLibrary
from repro.serving.state import StateStore
from repro.simul import Environment


class GnnEmbeddedTool(EmbeddedLibrary):
    """Embedded GNN scoring with per-request neighborhood reads."""

    def __init__(
        self,
        env: Environment,
        costs: ServingCostModel,
        gcn: GcnModel,
        store: StateStore,
    ) -> None:
        super().__init__(env, costs)
        self.gcn = gcn
        self.store = store

    def score(
        self, bsz: int, vectorized: bool = False, ctx: typing.Any = None
    ) -> typing.Generator:
        self._require_loaded()
        start = self.env.now
        # k-hop neighborhood reads happen before the engine slot is taken:
        # state I/O and inference of different requests overlap.
        yield from self.store.read_many(bsz * self.gcn.neighborhood_size)
        trace = getattr(ctx, "trace", None)
        if trace is not None:
            self.tracer.stages(trace, start, ("serving.state_read",), (self.env.now,))
        result = yield from super().score(bsz, vectorized=vectorized, ctx=ctx)
        # The call's service time counts the state read.
        return dataclasses.replace(result, service_time=self.env.now - start)
