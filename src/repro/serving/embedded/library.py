"""Embedded serving: inference inside the stream processor's process.

The scoring task thread blocks for the engine's service time. One engine
instance is shared by all ``mp`` scoring tasks in the process, so:

- engines with an internal parallelism cap (DL4J) serialize excess
  callers on a shared slot pool, and
- every call pays the contention factor for resource sharing with the
  host SPS (the paper's Fig. 6 scaling penalty for embedded tools).
"""

from __future__ import annotations

import typing

from repro.serving.base import ScoringResult, ServingTool
from repro.serving.costs import ServingCostModel, noise_key
from repro.simul import Environment, Interrupt, Resource


class EmbeddedLibrary(ServingTool):
    """A library loaded via FFI into the SPS process."""

    kind = "embedded"

    def __init__(self, env: Environment, costs: ServingCostModel) -> None:
        super().__init__(env, costs)
        # Slots bound by the engine's useful internal parallelism.
        self._engine = Resource(env, capacity=costs.engine_concurrency)

    def _register_metrics(self, registry: typing.Any) -> None:
        registry.gauge(
            "serving_engine_utilization",
            help="fraction of the embedded engine's slots in use",
            fn=lambda: self._engine.count / self._engine.capacity,
        )
        registry.gauge(
            "serving_engine_queue",
            help="scoring calls waiting for an engine slot",
            fn=lambda: len(self._engine.queue),
        )

    def score(
        self, bsz: int, vectorized: bool = False, ctx: typing.Any = None
    ) -> typing.Generator:
        self._require_loaded()
        start = self.env.now
        key = noise_key(ctx)
        trace = getattr(ctx, "trace", None)
        inferred = None

        def inference_time(granted: float) -> float:
            # Drawn at the grant: the slow-modulation bucket reads it.
            nonlocal inferred
            hold = self.costs.apply_time(bsz, vectorized=vectorized, now=granted, key=key)
            if trace is not None:
                inferred = self.tracer.stages(
                    trace,
                    start,
                    ("serving.engine_wait", "serving.inference"),
                    (granted, granted + hold),
                    {1: {"gpu": self.costs.gpu}},
                ) + 1
            return hold

        try:
            yield self._engine.serve(inference_time)
        except Interrupt:
            if inferred is not None:
                self.tracer.cut(inferred, inferred)
            raise
        self.requests_served += 1
        return ScoringResult(
            points=bsz,
            output_values=bsz * self.costs.model.output_values,
            service_time=self.env.now - start,
        )

    def swap_model(self, new_costs: "ServingCostModel") -> typing.Generator:
        """Coroutine: replace the in-memory model with a new version.

        Embedded serving has no second copy to warm up behind the scenes:
        the engine must quiesce (every slot drained) and the scoring
        operators stall for the whole load — the §7.2 contrast with an
        external server's zero-downtime rollout
        (:meth:`~repro.serving.external.server.ExternalServingService.swap_model`).
        """
        self._require_loaded()
        slots = [self._engine.request() for __ in range(self._engine.capacity)]
        yield self.env.all_of(slots)
        try:
            yield self.env.service_timeout(new_costs.load_time())
            self.costs = new_costs
        finally:
            for slot in slots:
                self._engine.release(slot)
        self.model_swaps += 1
