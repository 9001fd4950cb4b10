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

from repro.cluster.spec import (
    ClusterSpec,
    PopulationSpec,
    cluster_spec_from_dict,
    population_spec_from_dict,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan, ResiliencePolicy
from repro.faults.plan import (
    NetworkDegradation,
    PartitionOutage,
    ServerCrash,
    StragglerReplica,
)
from repro.faults.recovery import AT_LEAST_ONCE, EXACTLY_ONCE, GUARANTEES


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

#: Registered serving-tool names. ``(e)`` embedded, ``(x)`` external.
EMBEDDED_TOOLS = ("onnx", "dl4j", "savedmodel")
EXTERNAL_TOOLS = ("tf_serving", "torchserve", "ray_serve")
SERVING_TOOLS = EMBEDDED_TOOLS + EXTERNAL_TOOLS

#: Model names available in the zoo.
MODEL_NAMES = (
    "autoencoder",
    "efficientnet_b0",
    "ffnn",
    "gru",
    "mobilenet",
    "resnet50",
)


def is_embedded(tool: str) -> bool:
    """True when ``tool`` is an embedded interoperability library."""
    if tool not in SERVING_TOOLS:
        raise ConfigError(f"unknown serving tool {tool!r}")
    return tool in EMBEDDED_TOOLS


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark configuration.

    Time units are seconds of *simulated* time; rates are events per
    simulated second. One event carries ``bsz`` data points (a
    CrayfishDataBatch).
    """

    sps: str = "flink"
    serving: str = "onnx"
    model: str = "ffnn"
    workload: WorkloadKind = WorkloadKind.OPEN_LOOP

    #: Shape of one generated data point (``isz``); None = model default.
    isz: tuple[int, ...] | None = None
    #: Data points per event (``bsz``).
    bsz: int = 1
    #: Constant input rate in events/s (``ir``). ``None`` means "as fast
    #: as the pipeline accepts" (used to measure sustainable throughput).
    ir: float | None = None
    #: Burst duration in seconds (``bd``); bursty workloads only.
    bd: float = 30.0
    #: Time between bursts in seconds (``tbb``); bursty workloads only.
    tbb: float = 120.0
    #: Number of workers used for inference (``mp``).
    mp: int = 1

    #: Simulated duration of the measured run.
    duration: float = 10.0
    #: Fraction of leading measurements discarded as warm-up (paper: 25%).
    warmup_fraction: float = 0.25
    #: Root RNG seed; the paper runs each experiment twice — use two seeds.
    seed: int = 0
    #: Enable the simulated GPU on the inference device.
    gpu: bool = False
    #: Flink only: operator-level parallelism ``[src, score, sink]``
    #: overriding default parallelism (paper's flink[32-N-32], Fig. 12).
    #: ``None`` uses default parallelism = ``mp`` with operator chaining.
    operator_parallelism: tuple[int, int, int] | None = None
    #: Bypass the Kafka broker and generate/collect in-process
    #: (the paper's standalone `no-kafka` pipeline, Fig. 13).
    use_broker: bool = True
    #: Kafka topic partition count (paper: 32 per topic).
    partitions: int = 32
    #: Flink only: in-flight window for asynchronous external calls. The
    #: paper disabled async I/O for fairness (§4.3); 0 reproduces that.
    #: Setting it > 0 enables the ablation of Flink's Async I/O operator.
    async_io: int = 0
    #: Flink only: count window in front of the scoring operator — §7.1's
    #: "Micro-batching Support for External Servers" recommendation,
    #: implemented. 0 scores event-at-a-time (the paper's configuration).
    scoring_window: int = 0
    #: External serving only: worker processes on the serving host. None
    #: follows the paper (= mp). Setting it explicitly enables the
    #: non-uniform resource-allocation study of §9 (future work).
    server_workers: int | None = None
    #: External serving only: autoscale the server's worker pool between
    #: ``(min_workers, max_workers)`` on queue depth (§1/§7.2 name
    #: autoscaling as a core external-serving capability). None keeps the
    #: paper's fixed worker counts.
    autoscale: tuple[int, int] | None = None
    #: External serving only: server-side adaptive batching as
    #: ``(max_size, max_delay_seconds)`` — the Clipper-style coalescing
    #: the related work contrasts with. None disables it (the paper's
    #: servers answer request-at-a-time).
    adaptive_batching: tuple[int, float] | None = None
    #: Enable checkpointing with this interval (seconds), on any engine
    #: (:class:`repro.faults.recovery.EngineRecovery`). ``None`` disables
    #: fault tolerance (the paper's configuration).
    checkpoint_interval: float | None = None
    #: Sink guarantee under failures: "at_least_once" or "exactly_once"
    #: (§7.2's processing-guarantee discussion, made measurable);
    #: exactly-once is Flink-only.
    delivery_guarantee: str = AT_LEAST_ONCE
    #: Simulated times at which the whole job crashes (failure injection).
    failure_times: tuple[float, ...] = ()
    #: Downtime per failure: restart + state restore + model reload.
    recovery_time: float = 0.5
    #: TF-Serving/TorchServe wire API: None/"grpc" is the paper's choice;
    #: "rest" queries the JSON REST endpoint instead (§3.4.3).
    protocol: str | None = None
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
        if self.sps not in SPS_NAMES:
            raise ConfigError(
                f"unknown stream processor {self.sps!r}; expected one of {SPS_NAMES}"
            )
        if self.serving not in SERVING_TOOLS:
            raise ConfigError(
                f"unknown serving tool {self.serving!r}; expected one of {SERVING_TOOLS}"
            )
        # Accept any zoo model: the built-ins plus user registrations
        # (§3.2: models are user-configurable). Imported lazily to keep
        # config a leaf module.
        from repro.nn.zoo.registry import available_models

        if self.model not in available_models():
            raise ConfigError(
                f"unknown model {self.model!r}; expected one of "
                f"{available_models()}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.bsz < 1:
            raise ConfigError(f"bsz must be >= 1, got {self.bsz}")
        if self.mp < 1:
            raise ConfigError(f"mp must be >= 1, got {self.mp}")
        if self.ir is not None and self.ir <= 0:
            raise ConfigError(f"ir must be positive, got {self.ir}")
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.bd <= 0 or self.tbb <= 0:
            raise ConfigError("bd and tbb must be positive")
        if self.partitions < 1:
            raise ConfigError(f"partitions must be >= 1, got {self.partitions}")
        if self.operator_parallelism is not None:
            if self.sps != "flink":
                raise ConfigError("operator_parallelism is Flink-only")
            if len(self.operator_parallelism) != 3 or any(
                p < 1 for p in self.operator_parallelism
            ):
                raise ConfigError(
                    "operator_parallelism must be three positive integers"
                )
        if self.workload is WorkloadKind.PERIODIC_BURSTS and self.ir is None:
            raise ConfigError("periodic-burst workloads need a base input rate ir")
        if self.workload is WorkloadKind.CLOSED_LOOP and self.ir is None:
            raise ConfigError("closed-loop workloads need an input rate ir")
        if self.async_io:
            if self.async_io < 0:
                raise ConfigError(f"async_io must be >= 0, got {self.async_io}")
            if self.sps != "flink":
                raise ConfigError("async_io is Flink-only")
            if is_embedded(self.serving):
                raise ConfigError("async_io only applies to external serving")
        if self.scoring_window:
            if self.scoring_window < 0:
                raise ConfigError(
                    f"scoring_window must be >= 0, got {self.scoring_window}"
                )
            if self.sps != "flink":
                raise ConfigError("scoring_window is Flink-only")
            if self.async_io:
                raise ConfigError("scoring_window and async_io do not combine")
        if self.server_workers is not None:
            if self.server_workers < 1:
                raise ConfigError(
                    f"server_workers must be >= 1, got {self.server_workers}"
                )
            if is_embedded(self.serving):
                raise ConfigError("server_workers only applies to external serving")
        if self.autoscale is not None:
            if is_embedded(self.serving):
                raise ConfigError("autoscale only applies to external serving")
            low, high = self.autoscale
            if low < 1 or high < low:
                raise ConfigError(
                    f"autoscale needs 1 <= min <= max, got {self.autoscale}"
                )
            if self.server_workers is not None:
                raise ConfigError("autoscale and server_workers are exclusive")
        if self.adaptive_batching is not None:
            if is_embedded(self.serving):
                raise ConfigError("adaptive_batching only applies to external serving")
            size, delay = self.adaptive_batching
            if size < 2 or delay <= 0:
                raise ConfigError(
                    "adaptive_batching needs max_size >= 2 and max_delay > 0"
                )
        if self.protocol is not None:
            if self.protocol not in ("grpc", "rest"):
                raise ConfigError(f"unknown protocol {self.protocol!r}")
            if self.serving not in ("tf_serving", "torchserve"):
                raise ConfigError(
                    "protocol selection applies to tf_serving/torchserve only"
                )
        if self.delivery_guarantee not in GUARANTEES:
            raise ConfigError(
                f"unknown delivery guarantee {self.delivery_guarantee!r}"
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
        # Written as ``not x > 0`` so that NaN fails here, not mid-run.
        if self.checkpoint_interval is not None and not self.checkpoint_interval > 0:
            raise ConfigError(
                f"checkpoint_interval must be positive, got {self.checkpoint_interval}"
            )
        if self.failure_times and self.checkpoint_interval is None:
            raise ConfigError("failure injection requires checkpoint_interval")
        if not all(t > 0 for t in self.failure_times):
            raise ConfigError(
                f"failure times must be positive, got {self.failure_times}"
            )
        if not self.recovery_time >= 0:
            raise ConfigError(
                f"recovery_time must be non-negative, got {self.recovery_time}"
            )
        if self.fault_plan is not None and not self.fault_plan.empty:
            plan = self.fault_plan
            if plan.partition_outages and not self.use_broker:
                raise ConfigError("partition outages need the broker (use_broker)")
            if plan.touches_serving and is_embedded(self.serving):
                raise ConfigError(
                    "server/network/straggler faults target external serving"
                )
        if self.resilience is not None:
            if is_embedded(self.serving):
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


#: Config fields whose values are tuples (JSON round-trips them as lists).
_TUPLE_FIELDS = (
    "isz",
    "operator_parallelism",
    "autoscale",
    "adaptive_batching",
    "failure_times",
)


def _fault_plan_from_dict(record: dict) -> FaultPlan:
    return FaultPlan(
        server_crashes=tuple(
            ServerCrash(**crash) for crash in record.get("server_crashes", ())
        ),
        partition_outages=tuple(
            PartitionOutage(**outage)
            for outage in record.get("partition_outages", ())
        ),
        network_degradations=tuple(
            NetworkDegradation(**degradation)
            for degradation in record.get("network_degradations", ())
        ),
        stragglers=tuple(
            StragglerReplica(**straggler)
            for straggler in record.get("stragglers", ())
        ),
    )


def config_from_dict(record: dict) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its serialized dict.

    Inverse of :meth:`ExperimentConfig.canonical_dict` (and of the
    ``config`` block written by :mod:`repro.core.results_io`): restores
    the workload enum, tuple-valued fields, and nested fault-plan /
    resilience dataclasses. Validation re-runs on construction.
    """
    data = dict(record)
    unknown = sorted(
        set(data) - {field.name for field in dataclasses.fields(ExperimentConfig)}
    )
    if unknown:
        raise ConfigError(f"unknown config field(s) in record: {unknown}")
    data["workload"] = WorkloadKind(data["workload"])
    for name in _TUPLE_FIELDS:
        if data.get(name) is not None:
            data[name] = tuple(data[name])
    if data.get("fault_plan") is not None:
        data["fault_plan"] = _fault_plan_from_dict(data["fault_plan"])
    if data.get("resilience") is not None:
        data["resilience"] = ResiliencePolicy(**data["resilience"])
    if data.get("cluster") is not None:
        data["cluster"] = cluster_spec_from_dict(data["cluster"])
    if data.get("population") is not None:
        data["population"] = population_spec_from_dict(data["population"])
    return ExperimentConfig(**data)
