"""Pure-configuration types for multi-node scale-out simulations.

These dataclasses are the only part of :mod:`repro.cluster` that
:mod:`repro.config` imports (mirroring how :mod:`repro.faults` exposes
its plan types): they carry no simulation state, validate eagerly with
friendly :class:`~repro.errors.ConfigError` messages, and round-trip
losslessly through ``ExperimentConfig.canonical_dict`` /
``config_from_dict`` so cached matrix runs with cluster configurations
replay byte-identically.
"""

from __future__ import annotations

import dataclasses

from repro import knobs
from repro.errors import ConfigError
from repro.knobs import knob

#: Supported per-user rate distributions for population workloads.
DISTRIBUTIONS = ("zipf", "lognormal")


@knobs.declared
@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Shape of one simulated multi-node deployment.

    Every node hosts one broker, ``tasks_per_node`` SPS task slots, and
    (for external serving) ``replicas_per_node`` serving replicas behind
    a load balancer, so adding nodes scales brokers, compute, and
    serving together — the scale-out methodology of PDSP-Bench and
    Theodolite, where each configuration is a *deployment size*.
    """

    #: Simulated machines in the cluster.
    nodes: int = knob(
        2, ge=1, le=1024,
        help="simulated machines in the cluster (0: no cluster layer)",
    )
    #: CPU slots per machine; placement refuses to oversubscribe them.
    cpus_per_node: int = knob(
        16, ge=1, help="CPU slots per machine (placement refuses to oversubscribe)"
    )
    #: Racks the nodes spread over (round-robin). Nodes in one rack talk
    #: over the rack link; nodes in different racks pay the LAN link.
    racks: int = knob(
        1, ge=1,
        help="racks the nodes spread over (cross-rack hops pay LAN latency)",
    )
    #: SPS task slots placed per node. None derives it from the
    #: experiment's ``mp`` (total engine parallelism = mp × nodes).
    tasks_per_node: int | None = knob(
        None, ge=1, help="SPS task slots per node (default: = mp)"
    )
    #: External-serving replicas placed per node (behind the simulated
    #: load balancer). Ignored for embedded serving.
    replicas_per_node: int = knob(
        1, ge=1,
        help="external serving replicas per node (behind the load balancer)",
    )
    #: One-way base latency of an intra-rack hop (seconds). None uses
    #: the calibrated default (half the paper's LAN base latency).
    rack_latency: float | None = knob(None, ge=0)
    #: One-way base latency of a cross-rack (LAN) hop (seconds). None
    #: uses the paper's calibrated LAN latency.
    lan_latency: float | None = knob(None, ge=0)
    #: Link bandwidth in bytes/second shared by rack and LAN hops. None
    #: uses the paper's calibrated 1 Gbps-class LAN bandwidth.
    bandwidth: float | None = knob(None, gt=0)

    def __post_init__(self) -> None:
        knobs.check(self)
        if self.racks > self.nodes:
            raise ConfigError(
                f"more racks ({self.racks}) than nodes ({self.nodes})"
            )

    def __str__(self) -> str:
        """Compact form for matrix tables: ``3n`` / ``4n/2r``."""
        racks = f"/{self.racks}r" if self.racks > 1 else ""
        return f"{self.nodes}n{racks}"


@knobs.declared
@dataclasses.dataclass(frozen=True)
class FlashCrowd:
    """One flash-crowd burst: offered load multiplies by ``multiplier``
    for ``duration`` seconds starting at ``at``."""

    at: float = knob(ge=0)
    duration: float = knob(gt=0)
    multiplier: float = knob(gt=0)

    __post_init__ = knobs.check

    def active(self, time: float) -> bool:
        return self.at <= time < self.at + self.duration


@knobs.declared
@dataclasses.dataclass(frozen=True)
class PopulationSpec:
    """A population-scale workload: millions of users, each with its own
    heavy-tailed event rate, modulated by a diurnal cycle and optional
    flash crowds. Everything derives deterministically from the run seed.
    """

    #: Simulated users. The generator is O(users) once per run (a NumPy
    #: draw), so millions are cheap.
    users: int = knob(
        1_000_000, ge=1, le=100_000_000,
        help="simulated population size; 0 keeps the plain --ir workload",
    )
    #: Per-user rate distribution: "zipf" (rank-weighted power law) or
    #: "lognormal" (seeded multiplicative draws).
    distribution: str = knob(
        "zipf", choices=DISTRIBUTIONS, help="per-user rate distribution"
    )
    #: Power-law exponent for the zipf distribution (> 1 concentrates
    #: traffic in the head).
    zipf_exponent: float = knob(
        1.1, gt=1, help="power-law exponent for the zipf distribution"
    )
    #: Log-scale dispersion for the lognormal distribution.
    sigma: float = knob(
        1.0, ge=0, help="log-scale dispersion for the lognormal distribution"
    )
    #: Mean events per user per simulated day; the aggregate offered
    #: rate is ``users * events_per_user_per_day / 86400 * rate_scale``.
    events_per_user_per_day: float = knob(
        50.0, gt=0, help="mean events per user per simulated day"
    )
    #: Relative amplitude of the diurnal cycle in [0, 1): 0 is flat,
    #: 0.5 swings offered load ±50% around the mean.
    diurnal_amplitude: float = knob(
        0.3, ge=0, lt=1, help="diurnal swing in [0, 1): 0 is flat"
    )
    #: Diurnal period in simulated seconds (86400 = one day; benchmarks
    #: compress it so a short run still sees peaks and troughs).
    diurnal_period: float = knob(
        86_400.0, gt=0,
        help="diurnal period in simulated seconds (compress for short runs)",
    )
    #: Flash-crowd bursts layered on top, in start-time order.
    flash_crowds: tuple[FlashCrowd, ...] = ()
    #: Multiplier on the aggregate offered rate. The capacity search
    #: scales a population workload through this knob.
    rate_scale: float = knob(
        1.0, gt=0, help="multiplier on the aggregate offered rate"
    )

    def __post_init__(self) -> None:
        knobs.check(self)
        starts = [crowd.at for crowd in self.flash_crowds]
        if starts != sorted(starts):
            raise ConfigError("flash_crowds must be sorted by start time")

    @property
    def mean_rate(self) -> float:
        """Aggregate mean offered rate in events per simulated second."""
        return (
            self.users * self.events_per_user_per_day / 86_400.0
        ) * self.rate_scale

    def __str__(self) -> str:
        """Compact form for matrix tables: ``1000000u-zipf``."""
        return f"{self.users}u-{self.distribution}"


def cluster_spec_from_dict(record: dict) -> ClusterSpec:
    """Rebuild a :class:`ClusterSpec` from its canonical dict."""
    return knobs.from_dict(ClusterSpec, record)


def population_spec_from_dict(record: dict) -> PopulationSpec:
    """Rebuild a :class:`PopulationSpec` from its canonical dict."""
    return knobs.from_dict(PopulationSpec, record)
