"""RPC channel models (gRPC and HTTP) between SPS and external servers.

A channel charges the *client* for request encoding and response decoding,
the *network* for two transfers, and leaves server-side handling to the
server model. The paper uses gRPC for TF-Serving and TorchServe and HTTP
(JSON) for Ray Serve (§3.4.3-§3.4.4).
"""

from __future__ import annotations

import dataclasses

from repro.netsim.link import Link
from repro.netsim.payload import Payload, binary_payload, json_payload


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class RpcCosts:
    """Cost breakdown of one round trip, excluding server-side service."""

    client_cpu: float
    request_transfer: float
    response_transfer: float

    @property
    def total(self) -> float:
        return self.client_cpu + self.request_transfer + self.response_transfer


class RpcChannel:
    """Base RPC channel; subclasses choose the payload encoding.

    A channel can be *impaired* by the fault injector: extra one-way
    latency and/or a request error rate for the duration of a network
    degradation window. Unimpaired channels (the default) add zero cost
    and never draw randomness, keeping fault-free runs byte-identical.
    """

    #: Extra fixed client-side cost per call (stub dispatch, headers).
    call_overhead = 0.0

    def __init__(self, link: Link | None = None) -> None:
        self.link = link if link is not None else Link()
        self._extra_latency = 0.0
        self._error_rate = 0.0
        self._error_rng = None

    def _encode(self, values: int) -> Payload:
        raise NotImplementedError

    def impair(
        self,
        extra_latency: float = 0.0,
        error_rate: float = 0.0,
        rng=None,
    ) -> None:
        """Degrade the channel: ``extra_latency`` is added to each one-way
        transfer; ``error_rate`` makes :meth:`roll_error` drop requests
        with that probability, drawing from ``rng`` (a seeded stream)."""
        self._extra_latency = extra_latency
        self._error_rate = error_rate
        self._error_rng = rng

    def clear_impairment(self) -> None:
        """Restore the healthy channel."""
        self._extra_latency = 0.0
        self._error_rate = 0.0
        self._error_rng = None

    @property
    def impaired(self) -> bool:
        return self._extra_latency > 0.0 or self._error_rate > 0.0

    def roll_error(self) -> bool:
        """Did the network drop this request? Only draws randomness while
        an error-rate impairment is active."""
        if self._error_rate <= 0.0 or self._error_rng is None:
            return False
        return float(self._error_rng.uniform()) < self._error_rate

    def round_trip_costs(self, request_values: int, response_values: int) -> RpcCosts:
        """Transport costs of a call carrying the given tensor sizes."""
        request = self._encode(request_values)
        response = self._encode(response_values)
        client_cpu = (
            self.call_overhead + request.encode_cost + response.decode_cost
        )
        return RpcCosts(
            client_cpu=client_cpu,
            request_transfer=self.link.transfer_time(request.nbytes)
            + self._extra_latency,
            response_transfer=self.link.transfer_time(response.nbytes)
            + self._extra_latency,
        )

    def server_decode_cost(self, request_values: int) -> float:
        """Server-side CPU to decode the incoming request."""
        return self._encode(request_values).decode_cost

    def server_encode_cost(self, response_values: int) -> float:
        """Server-side CPU to encode the outgoing response."""
        return self._encode(response_values).encode_cost


class GrpcChannel(RpcChannel):
    """gRPC with binary tensor payloads (TF-Serving, TorchServe)."""

    call_overhead = 0.00005  # 0.05 ms stub/header cost

    def _encode(self, values: int) -> Payload:
        return binary_payload(values)


class HttpChannel(RpcChannel):
    """HTTP/1.1 with JSON payloads (Ray Serve)."""

    call_overhead = 0.00020  # 0.2 ms connection/header cost

    def _encode(self, values: int) -> Payload:
        return json_payload(values)
