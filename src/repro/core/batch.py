"""The CrayfishDataBatch: the benchmark's unit of computation (§3.1).

A batch carries ``points`` data points of a fixed shape plus the creation
timestamp used for end-to-end latency. Stream processors treat one batch
as a single event (producer-level batching, §3.5).
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError
from repro.netsim import json_payload
from repro.tracing.spans import TraceContext


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class CrayfishDataBatch:
    """One scoring request travelling through the pipeline."""

    #: Monotonically increasing id assigned by the input producer.
    batch_id: int
    #: Producer-local creation time — the *start* timestamp (§3.3 step 1).
    created_at: float
    #: Number of data points in the batch (``bsz``).
    points: int
    #: Shape of one data point (``isz``).
    point_shape: tuple[int, ...]
    #: Trace context when this record is head-sampled for tracing;
    #: None (the default) means untraced — the zero-overhead path.
    trace: TraceContext | None = None
    #: Total scalar values carried: read twice per record (serialize and
    #: decode), so computed once, from the shape.
    input_values: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if self.points < 1:
            raise ConfigError(f"batch needs >= 1 point, got {self.points}")
        if not self.point_shape or any(d < 1 for d in self.point_shape):
            raise ConfigError(f"invalid point shape {self.point_shape}")
        self.input_values = self.points * int(math.prod(self.point_shape))

    def input_json_bytes(self) -> float:
        """Wire size of the batch as Crayfish's JSON encoding."""
        return json_payload(self.input_values).nbytes
