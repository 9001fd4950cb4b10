"""Payload sizing and serialization cost model.

Crayfish serializes CrayfishDataBatch objects as JSON end to end (§3.1);
gRPC requests to external servers carry binary tensors. Both the wire
*size* and the CPU *cost* of encoding/decoding scale with the number of
scalar values in the batch.
"""

from __future__ import annotations

import dataclasses
import functools

from repro import calibration as cal


@dataclasses.dataclass(frozen=True)
class Payload:
    """A sized unit of data travelling through the pipeline.

    Frozen on purpose: :func:`json_payload` and :func:`binary_payload`
    hand the same cached instance to every caller.
    """

    #: Number of scalar values carried (e.g. bsz * prod(isz)).
    values: int
    #: Wire size in bytes.
    nbytes: float
    #: CPU seconds to encode the payload on the sender.
    encode_cost: float
    #: CPU seconds to decode the payload on the receiver.
    decode_cost: float

    def __post_init__(self) -> None:
        if self.values < 0 or self.nbytes < 0:
            raise ValueError("payload values/nbytes must be non-negative")


# Pure functions of ``values``, and a process sees only a few distinct
# sizes, so callers share one frozen Payload per size. ``typed=True``
# keeps 3 and 3.0 apart: ``values`` keeps the type the caller passed.
@functools.lru_cache(maxsize=None, typed=True)
def json_payload(values: int) -> Payload:
    """The JSON encoding of ``values`` float32 scalars plus envelope."""
    nbytes = values * cal.JSON_BYTES_PER_VALUE + cal.JSON_ENVELOPE_BYTES
    return Payload(
        values=values,
        nbytes=nbytes,
        encode_cost=nbytes * cal.JSON_ENCODE_PER_BYTE,
        decode_cost=nbytes * cal.JSON_DECODE_PER_BYTE,
    )


@functools.lru_cache(maxsize=None, typed=True)
def binary_payload(values: int) -> Payload:
    """The protobuf/tensor encoding used on gRPC channels."""
    nbytes = values * cal.BINARY_BYTES_PER_VALUE + 64.0
    return Payload(
        values=values,
        nbytes=nbytes,
        encode_cost=nbytes * cal.BINARY_CODEC_PER_BYTE,
        decode_cost=nbytes * cal.BINARY_CODEC_PER_BYTE,
    )
