"""Deterministic discrete-event simulation kernel.

A small, SimPy-flavoured kernel: an :class:`~repro.simul.core.Environment`
owns a time-ordered event scheduler (one binary heap — see
:mod:`repro.simul.scheduler`); *processes* are Python generators that
yield events (timeouts, resource requests, store gets...) and are
resumed when those events fire. Ties in time are broken by a
monotonically increasing sequence number, which makes every simulation
fully deterministic.

Fire-and-forget service waits can reuse pooled Timeout objects
(:meth:`~repro.simul.core.Environment.service_timeout`).

The kernel is the substrate for every simulated system in this repository:
the message broker, the stream processors, and the serving services.
"""

from repro.simul.core import Environment
from repro.simul.events import AllOf, AnyOf, Event, Timeout
from repro.simul.process import Interrupt, Process
from repro.simul.resources import Resource, Store
from repro.simul.scheduler import HeapScheduler
from repro.simul.monitor import TimeSeries
from repro.simul.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupt",
    "Resource",
    "Store",
    "HeapScheduler",
    "TimeSeries",
    "RandomStreams",
]
