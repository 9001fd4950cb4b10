"""Record types exchanged with the broker."""

from __future__ import annotations

import dataclasses
import typing


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class RecordMetadata:
    """Returned to a producer once a record is durably appended."""

    topic: str
    partition: int
    offset: int
    log_append_time: float


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class ConsumerRecord:
    """One record as seen by a consumer."""

    topic: str
    partition: int
    offset: int
    #: Producer-assigned event time (Crayfish start timestamp).
    timestamp: float
    #: Broker-local time at append (Kafka's LogAppendTime).
    log_append_time: float
    #: Application payload (carried by reference; sizes travel separately).
    value: typing.Any
    #: Serialized size in bytes, used for transfer costs.
    nbytes: float
