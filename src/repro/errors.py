"""Exception hierarchy shared across the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures without
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """A discrete-event simulation was driven into an invalid state."""


class ConfigError(ReproError):
    """An experiment or component configuration is invalid."""


class BrokerError(ReproError):
    """Base class for message-broker failures."""


class UnknownTopicError(BrokerError):
    """A producer or consumer referenced a topic that does not exist."""


class MessageTooLargeError(BrokerError):
    """A record exceeded the broker's ``max.request.size``."""


class ShapeError(ReproError):
    """Tensor shapes do not line up in the NN library."""


class ServingError(ReproError):
    """A model-serving component failed (load or apply)."""


class TransientError(ReproError):
    """A retryable failure on the serving path: a crashed/unreachable
    server, an injected network fault, or a client-side timeout.

    Raised only when fault injection is active; the resilience layer
    catches it to drive retries, circuit breaking, and degradation."""
