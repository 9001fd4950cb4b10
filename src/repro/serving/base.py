"""The Crayfish serving interface (§3.2): ``load`` and ``apply``.

Every serving tool — embedded or external — implements
:class:`ServingTool`: a ``load()`` coroutine run once before the streaming
job starts and a ``score(bsz)`` coroutine invoked per CrayfishDataBatch.
``swap_model(new_costs)`` rolls out a new model version mid-stream.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import ServingError
from repro.metrics.registry import NO_METRICS
from repro.serving.costs import ServingCostModel
from repro.simul import Environment
from repro.tracing.spans import NO_TRACE


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class ScoringResult:
    """What a scoring call produced."""

    #: Data points scored.
    points: int
    #: Scalar values in the predictions (bsz * output_values).
    output_values: int
    #: Simulated seconds the call took end to end.
    service_time: float


class ServingTool:
    """Base class for serving tools bound to one experiment."""

    #: "embedded" or "external"; informs SPS adapters and reports.
    kind: str = ""

    def __init__(self, env: Environment, costs: ServingCostModel) -> None:
        self.env = env
        self.costs = costs
        #: Installed by the runner when tracing is on; spans inside the
        #: serving tool attach to the scored record's trace.
        self.tracer = NO_TRACE
        #: Installed via :meth:`install_metrics` when telemetry is on.
        self.metrics = NO_METRICS
        self._loaded = False
        self.requests_served = 0
        self.model_swaps = 0

    def install_metrics(self, registry: typing.Any) -> None:
        """Attach a metrics registry and register this tool's instruments.

        Must run before optional serving machinery (adaptive batching,
        autoscaling) is installed, so those layers find the registry on
        ``self.metrics``.
        """
        self.metrics = registry
        registry.counter(
            "serving_requests",
            help="scoring calls the serving tool served",
            fn=lambda: self.requests_served,
        )
        self._register_metrics(registry)

    def _register_metrics(self, registry: typing.Any) -> None:
        """Subclass hook: register tool-specific instruments."""

    @property
    def name(self) -> str:
        return self.costs.profile.name

    @property
    def loaded(self) -> bool:
        return self._loaded

    def load(self) -> typing.Generator:
        """Coroutine: bring the model into memory (charged as warm-up)."""
        yield self.env.service_timeout(self.costs.load_time())
        self._loaded = True

    def score(
        self, bsz: int, vectorized: bool = False, ctx: typing.Any = None
    ) -> typing.Generator:
        """Coroutine: score one batch; returns :class:`ScoringResult`.

        ``vectorized`` marks whole-chunk calls whose inputs arrive as one
        contiguous tensor (micro-batch engines), which discounts
        per-point marshalling. ``ctx`` is the traced record (a batch or
        :class:`~repro.tracing.spans.TraceContext`) serving-internal
        spans should attach to; None scores untraced.
        """
        raise NotImplementedError

    def swap_model(self, new_costs: ServingCostModel) -> typing.Generator:
        """Coroutine: roll out a new model version (§7.2) while scoring
        continues. Embedded libraries quiesce their engine for the load;
        external services warm-load beside the serving workers."""
        raise NotImplementedError

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise ServingError(
                f"{self.name}: score() before load() — the model is not "
                "in memory"
            )
