"""Experiment configuration (the paper's Table 1 parameters).

An :class:`ExperimentConfig` fully describes one Crayfish benchmark run:
the workload (input shape ``isz``, batch size ``bsz``, input rate ``ir``,
burst parameters ``bd``/``tbb``), the system under test (stream processor,
serving tool, model), and the inference parallelism ``mp``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing

from repro import knobs
from repro.cluster.spec import ClusterSpec, PopulationSpec
from repro.errors import ConfigError
from repro.faults import FaultPlan, ResiliencePolicy
from repro.faults.recovery import AT_LEAST_ONCE, EXACTLY_ONCE, GUARANTEES
from repro.knobs import Domain, knob
from repro.nn.zoo.registry import available_models


class WorkloadKind(enum.Enum):
    """The paper's three pre-configured workload scenarios (§4.1)."""

    #: Fixed input rate; used to find sustainable throughput.
    OPEN_LOOP = "open_loop"
    #: Low input rate; end-to-end latency dominated by inference time.
    CLOSED_LOOP = "closed_loop"
    #: Periodic bursts above sustainable throughput (110%/70% of ST).
    PERIODIC_BURSTS = "periodic_bursts"


#: Registered stream-processor names (the `data processor` adapters).
SPS_NAMES = ("flink", "kafka_streams", "spark_ss", "ray")

#: Serving-tool names: each is a ``calibration.SERVING_PROFILES`` entry
#: served by an embedded library or by an external service.
EMBEDDED_TOOLS = ("onnx", "dl4j", "savedmodel")
EXTERNAL_TOOLS = ("tf_serving", "torchserve", "ray_serve")
SERVING_TOOLS = EMBEDDED_TOOLS + EXTERNAL_TOOLS

#: Wire APIs of the gRPC servers, and the tools that offer a choice.
PROTOCOLS = ("grpc", "rest")
PROTOCOL_TOOLS = ("tf_serving", "torchserve")


def is_embedded(tool: str) -> bool:
    """True when ``tool`` is an embedded interoperability library."""
    if tool not in SERVING_TOOLS:
        raise ConfigError(f"unknown serving tool {tool!r}")
    return tool in EMBEDDED_TOOLS


@knobs.declared
@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark configuration.

    Time units are seconds of *simulated* time; rates are events per
    simulated second. One event carries ``bsz`` data points (a
    CrayfishDataBatch). Each field declares its domain once
    (:mod:`repro.knobs`); ``__post_init__`` checks those and then the
    rules that tie fields together.
    """

    sps: str = knob("flink", choices=SPS_NAMES, help="stream processor")
    serving: str = knob("onnx", choices=SERVING_TOOLS, help="serving tool")
    #: Any zoo model: the built-ins plus user registrations (§3.2: models
    #: are user-configurable).
    model: str = knob("ffnn", choices=available_models, help="zoo model")
    workload: WorkloadKind = knob(
        WorkloadKind.OPEN_LOOP,
        help="§4.1 scenario: closed_loop and periodic_bursts need --ir "
        "(periodic_bursts: 110%% of it in bursts, 70%% between)",
    )

    #: Shape of one generated data point (``isz``); None = model default.
    isz: tuple[int, ...] | None = knob(None, items=Domain(ge=1))
    #: Data points per event (``bsz``).
    bsz: int = knob(1, ge=1, help="points per event")
    #: Constant input rate in events/s (``ir``). ``None`` means "as fast
    #: as the pipeline accepts" (used to measure sustainable throughput).
    ir: float | None = knob(
        None, gt=0, help="input rate (events/s); omit to saturate an open loop"
    )
    #: Burst duration in seconds (``bd``); bursty workloads only.
    bd: float = knob(
        30.0, gt=0,
        help="periodic_bursts: burst duration (s, default %(default)s)",
    )
    #: Time between bursts in seconds (``tbb``); bursty workloads only.
    tbb: float = knob(
        120.0, gt=0,
        help="periodic_bursts: time between bursts (s, default %(default)s); "
        "bursts starting at least tbb/2 before --duration ends are analysed",
    )
    #: Number of workers used for inference (``mp``).
    mp: int = knob(1, ge=1, help="inference workers")

    #: Simulated duration of the measured run.
    duration: float = knob(10.0, gt=0, help="simulated seconds")
    #: Fraction of leading measurements discarded as warm-up (paper: 25%).
    warmup_fraction: float = knob(0.25, ge=0, lt=1)
    #: Root RNG seed; the paper runs each experiment twice — use two seeds.
    seed: int = knob(0, ge=0, help="root RNG seed")
    #: Enable the simulated GPU on the inference device.
    gpu: bool = knob(False, help="enable the GPU model")
    #: Flink only: operator-level parallelism ``[src, score, sink]``
    #: overriding default parallelism (paper's flink[32-N-32], Fig. 12).
    #: ``None`` uses default parallelism = ``mp`` with operator chaining.
    operator_parallelism: tuple[int, int, int] | None = knob(
        None, items=Domain(ge=1)
    )
    #: Bypass the Kafka broker and generate/collect in-process
    #: (the paper's standalone `no-kafka` pipeline, Fig. 13).
    use_broker: bool = True
    #: Kafka topic partition count (paper: 32 per topic).
    partitions: int = knob(
        32, ge=1,
        help="broker partitions per topic (default: 32; with --nodes, "
        "enough for every task slot)",
    )
    #: Flink only: in-flight window for asynchronous external calls. The
    #: paper disabled async I/O for fairness (§4.3); 0 reproduces that.
    #: Setting it > 0 enables the ablation of Flink's Async I/O operator.
    async_io: int = knob(
        0, ge=0,
        help="Flink async I/O in-flight window for external calls (0=blocking)",
    )
    #: Flink only: count window in front of the scoring operator — §7.1's
    #: "Micro-batching Support for External Servers" recommendation,
    #: implemented. 0 scores event-at-a-time (the paper's configuration).
    scoring_window: int = knob(0, ge=0)
    #: External serving only: worker processes on the serving host. None
    #: follows the paper (= mp). Setting it explicitly enables the
    #: non-uniform resource-allocation study of §9 (future work).
    server_workers: int | None = knob(
        None, ge=1, help="external server workers (default: = mp)"
    )
    #: External serving only: autoscale the server's worker pool between
    #: ``(min_workers, max_workers)`` on queue depth (§1/§7.2 name
    #: autoscaling as a core external-serving capability). None keeps the
    #: paper's fixed worker counts.
    autoscale: tuple[int, int] | None = knob(None, items=Domain(ge=1))
    #: External serving only: server-side adaptive batching as
    #: ``(max_size, max_delay_seconds)`` — the Clipper-style coalescing
    #: the related work contrasts with. None disables it (the paper's
    #: servers answer request-at-a-time).
    adaptive_batching: tuple[int, float] | None = knob(
        None, items=(Domain(ge=2), Domain(gt=0))
    )
    #: Enable checkpointing with this interval (seconds), on any engine
    #: (:class:`repro.faults.recovery.EngineRecovery`). ``None`` disables
    #: fault tolerance (the paper's configuration).
    checkpoint_interval: float | None = knob(None, gt=0)
    #: Sink guarantee under failures: "at_least_once" or "exactly_once"
    #: (§7.2's processing-guarantee discussion, made measurable);
    #: exactly-once is Flink-only.
    delivery_guarantee: str = knob(AT_LEAST_ONCE, choices=GUARANTEES)
    #: Simulated times at which the whole job crashes (failure injection).
    failure_times: tuple[float, ...] = knob((), items=Domain(gt=0))
    #: Downtime per failure: restart + state restore + model reload.
    recovery_time: float = knob(0.5, ge=0)
    #: TF-Serving/TorchServe wire API: None/"grpc" is the paper's choice;
    #: "rest" queries the JSON REST endpoint instead (§3.4.3).
    protocol: str | None = knob(None, choices=PROTOCOLS)
    #: Chaos plan: seeded fault injection into broker/network/serving
    #: (:mod:`repro.faults`). None — the default — injects nothing and
    #: leaves the run byte-identical to a build without the subsystem.
    fault_plan: FaultPlan | None = None
    #: Client-side resilience around external scoring calls: timeouts,
    #: backoff retries, circuit breaking, shed/fallback degradation.
    #: None leaves scoring calls unwrapped (the paper's configuration).
    resilience: ResiliencePolicy | None = None
    #: Multi-node scale-out (:mod:`repro.cluster`): place brokers, SPS
    #: task slots, and external-serving replicas on simulated machines so
    #: cross-node hops pay network cost. None — the default — keeps the
    #: paper's single shared-LAN deployment, byte-identically.
    cluster: ClusterSpec | None = None
    #: Population-scale workload (:mod:`repro.cluster.workload`): derive
    #: the offered rate from millions of heavy-tailed simulated users
    #: instead of a fixed ``ir``. None keeps the Table 1 generators.
    population: PopulationSpec | None = None

    def __post_init__(self) -> None:
        knobs.check(self)
        embedded = self.serving in EMBEDDED_TOOLS
        if self.operator_parallelism is not None and self.sps != "flink":
            raise ConfigError("operator_parallelism is Flink-only")
        if self.workload is WorkloadKind.PERIODIC_BURSTS and self.ir is None:
            raise ConfigError("periodic-burst workloads need a base input rate ir")
        if self.workload is WorkloadKind.CLOSED_LOOP and self.ir is None:
            raise ConfigError("closed-loop workloads need an input rate ir")
        if self.async_io:
            if self.sps != "flink":
                raise ConfigError("async_io is Flink-only")
            if embedded:
                raise ConfigError("async_io only applies to external serving")
        if self.scoring_window:
            if self.sps != "flink":
                raise ConfigError("scoring_window is Flink-only")
            if self.async_io:
                raise ConfigError("scoring_window and async_io do not combine")
        if self.server_workers is not None and embedded:
            raise ConfigError("server_workers only applies to external serving")
        if self.autoscale is not None:
            if embedded:
                raise ConfigError("autoscale only applies to external serving")
            low, high = self.autoscale
            if high < low:
                raise ConfigError(
                    f"autoscale needs 1 <= min <= max, got {self.autoscale}"
                )
            if self.server_workers is not None:
                raise ConfigError("autoscale and server_workers are exclusive")
        if self.adaptive_batching is not None and embedded:
            raise ConfigError("adaptive_batching only applies to external serving")
        if self.protocol is not None and self.serving not in PROTOCOL_TOOLS:
            raise ConfigError(
                "protocol selection applies to tf_serving/torchserve only"
            )
        if self.fault_tolerant:
            if self.delivery_guarantee == EXACTLY_ONCE and self.sps != "flink":
                raise ConfigError(
                    "exactly-once sinks are implemented for Flink only; "
                    "other engines recover at-least-once"
                )
            if self.operator_parallelism is not None or self.async_io:
                raise ConfigError(
                    "fault tolerance does not combine with operator_parallelism "
                    "or async_io"
                )
        if self.failure_times and self.checkpoint_interval is None:
            raise ConfigError("failure injection requires checkpoint_interval")
        if self.fault_plan is not None and not self.fault_plan.empty:
            plan = self.fault_plan
            if plan.partition_outages and not self.use_broker:
                raise ConfigError("partition outages need the broker (use_broker)")
            if plan.touches_serving and embedded:
                raise ConfigError(
                    "server/network/straggler faults target external serving"
                )
        if self.resilience is not None:
            if embedded:
                raise ConfigError("resilience wraps external serving calls only")
            if (
                self.resilience.fallback is not None
                and self.resilience.fallback not in EMBEDDED_TOOLS
            ):
                raise ConfigError(
                    f"resilience fallback must be an embedded tool "
                    f"{EMBEDDED_TOOLS}, got {self.resilience.fallback!r}"
                )
        if self.cluster is not None:
            if not self.use_broker:
                raise ConfigError(
                    "cluster mode routes events through the broker; it does "
                    "not combine with use_broker=False (the standalone "
                    "pipeline has no network to place)"
                )
            incompatible = {
                "fault_plan": self.fault_plan is not None
                and not self.fault_plan.empty,
                "resilience": self.resilience is not None,
                "autoscale": self.autoscale is not None,
                "adaptive_batching": self.adaptive_batching is not None,
                "checkpoint_interval": self.checkpoint_interval is not None,
                "failure_times": bool(self.failure_times),
                "operator_parallelism": self.operator_parallelism is not None,
                "async_io": bool(self.async_io),
                "scoring_window": bool(self.scoring_window),
            }
            clashing = sorted(name for name, on in incompatible.items() if on)
            if clashing:
                raise ConfigError(
                    f"cluster mode does not combine with {', '.join(clashing)} "
                    "yet: those features assume the single-host deployment"
                )
            per_node = (
                self.cluster.tasks_per_node
                if self.cluster.tasks_per_node is not None
                else self.mp
            )
            total_tasks = per_node * self.cluster.nodes
            if self.partitions < total_tasks:
                raise ConfigError(
                    f"a {self.cluster.nodes}-node cluster deploys "
                    f"{total_tasks} source tasks but the input topic has "
                    f"only {self.partitions} partitions; raise partitions "
                    "(every source task needs at least one)"
                )
        if self.population is not None:
            if self.workload is not WorkloadKind.OPEN_LOOP:
                raise ConfigError(
                    "population workloads drive the open loop; drop the "
                    f"{self.workload.value!r} workload kind (the population "
                    "itself provides the diurnal/burst shape)"
                )
            if self.ir is not None:
                raise ConfigError(
                    "population and ir both set the offered rate; use "
                    "population.rate_scale to scale a population workload"
                )

    @property
    def embedded(self) -> bool:
        """True when the serving tool runs inside the stream processor."""
        return is_embedded(self.serving)

    @property
    def fault_tolerant(self) -> bool:
        """True when checkpointing (and hence crash recovery) is on."""
        return self.checkpoint_interval is not None

    def replace(self, **changes: typing.Any) -> "ExperimentConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def label(self) -> str:
        """Short human-readable identifier, e.g. ``flink/onnx/ffnn``
        (``flink/onnx/ffnn@3n`` on a 3-node cluster)."""
        suffix = "-gpu" if self.gpu else ""
        nodes = f"@{self.cluster.nodes}n" if self.cluster is not None else ""
        return f"{self.sps}/{self.serving}{suffix}/{self.model}{nodes}"

    def canonical_dict(self) -> dict:
        """A JSON-ready dict where canonically-equal configs are equal.

        Enums collapse to their values and every sequence becomes a
        plain list, so a config built with ``isz=[4]`` and one built
        with ``isz=(4,)`` canonicalize identically. This is the basis of
        the results store's slot identity and result cache
        (:func:`repro.store.slot_id_of`).
        """
        return _canonical_value(dataclasses.asdict(self))

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )


def _canonical_value(value: typing.Any) -> typing.Any:
    """Normalize a config value tree for hashing/serialization."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: _canonical_value(v) for key, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


def config_from_dict(record: dict) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its serialized dict.

    Inverse of :meth:`ExperimentConfig.canonical_dict` (and of the
    ``config`` block written by :mod:`repro.core.results_io`); see
    :func:`repro.knobs.from_dict`. Validation re-runs on construction.
    """
    return knobs.from_dict(ExperimentConfig, record)
