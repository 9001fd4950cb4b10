"""The experiment runner: wires components and executes one benchmark.

Assembles, per :class:`~repro.config.ExperimentConfig`: the broker cluster
with its input/output topics (or the direct gateways of the standalone
mode), the input producer, the data processor (SPS + serving tool), and
the metrics collector — then runs the simulation and summarizes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import calibration as cal
from repro.broker import BrokerCluster
from repro.config import ExperimentConfig, WorkloadKind
from repro.core.generator import BatchFactory, ConstantRate, PeriodicBursts, RateSchedule
from repro.core.metrics import LatencyStats, MetricsCollector
from repro.core.producer import InputProducerBase, PacedProducer, SaturatingProducer
from repro.errors import ConfigError
from repro.metrics import MetricsOptions, Scraper, Telemetry, make_registry
from repro.nn.zoo import model_info
from repro.serving import create_serving_tool
from repro.simul import Environment, RandomStreams
from repro.sps import create_data_processor
from repro.sps.gateways import BrokerInput, BrokerOutput, DirectInput, DirectOutput
from repro.tracing.spans import NullTracer, Tracer, make_tracer

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.faults.summary import FaultSummary

INPUT_TOPIC = "crayfish-input"
OUTPUT_TOPIC = "crayfish-output"

#: Backlog kept ahead of the SUT by the saturating producer. Spark drains
#: up to SPARK_MAX_BATCH_EVENTS per trigger, so it needs deeper backlog.
_SATURATION_BACKLOG = {"spark_ss": int(cal.SPARK_MAX_BATCH_EVENTS * 1.6)}
_DEFAULT_BACKLOG = 512


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produced."""

    config: ExperimentConfig
    #: Completed events per second over the measured (post-warmup) window.
    throughput: float
    #: Latency statistics over the measured window.
    latency: LatencyStats
    #: Batches completed in total (including warm-up).
    completed: int
    #: Batches written to the input topic in total.
    produced: int
    #: Simulated time when measurement started (end of warm-up).
    measure_start: float
    #: Simulated time when the run stopped.
    measure_end: float
    #: (end_time, latency) samples over the whole run, for burst analysis.
    series: tuple[tuple[float, float], ...]
    #: Batches delivered downstream more than once (failure replays under
    #: at-least-once; always 0 otherwise).
    duplicates: int = 0
    #: Scoring calls the serving tool actually served — exceeds distinct
    #: completions when failures replay inference requests.
    inference_requests: int = 0
    #: (time, unconsumed backlog) samples when a backlog probe was
    #: requested; empty otherwise.
    backlog_series: tuple[tuple[float, float], ...] = ()
    #: The per-record tracer, when the run was started with tracing on
    #: (``run(trace=...)``); None otherwise. Feed it to
    #: :mod:`repro.tracing.analysis` / :mod:`repro.tracing.export`.
    trace: "Tracer | None" = None
    #: Scraped whole-system telemetry, when the run was started with
    #: metrics on (``run(metrics=...)``); None otherwise. Feed it to
    #: :mod:`repro.metrics.export` / :mod:`repro.metrics.dashboard`.
    telemetry: "Telemetry | None" = None
    #: Fault-injection and resilience tallies, when the run had a fault
    #: plan, a resilience policy, or checkpoint recovery; None otherwise.
    faults: "FaultSummary | None" = None

    @property
    def label(self) -> str:
        return self.config.label()


class ExperimentRunner:
    """Builds and executes one experiment configuration."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config

    # -- assembly ----------------------------------------------------------

    def _schedule(self, seed: int) -> RateSchedule | None:
        config = self.config
        if config.population is not None:
            from repro.cluster.workload import PopulationWorkload

            return PopulationWorkload(config.population, seed=seed).schedule()
        if config.workload is WorkloadKind.PERIODIC_BURSTS:
            # §4.1: 110% of sustainable throughput in bursts, 70% between.
            return PeriodicBursts(
                low_rate=0.7 * config.ir,
                high_rate=1.1 * config.ir,
                burst_duration=config.bd,
                time_between_bursts=config.tbb,
            )
        if config.ir is None:
            return None  # saturating open loop
        return ConstantRate(config.ir)

    def _point_shape(self) -> tuple[int, ...]:
        if self.config.isz is not None:
            return self.config.isz
        return model_info(self.config.model).input_shape

    def _scoring_parallelism(self) -> int:
        if self.config.operator_parallelism is not None:
            return self.config.operator_parallelism[1]
        return self._engine_parallelism()

    def _engine_parallelism(self) -> int:
        """Task slots the engine deploys: ``mp`` on one host, the summed
        per-node slots across a cluster."""
        if self.config.cluster is None:
            return self.config.mp
        from repro.cluster.runtime import total_parallelism

        return total_parallelism(self.config)

    def _serving_name(self) -> str:
        """Ray cannot reach TF-Serving/TorchServe natively: the paper
        substitutes Ray Serve for any external tool on Ray (Fig. 10/11
        footnote: "not using TensorFlow Serving, but simulating it using
        Ray Serve")."""
        from repro.config import is_embedded

        if self.config.sps == "ray" and not is_embedded(self.config.serving):
            return "ray_serve"
        return self.config.serving

    def run(
        self,
        seed: int | None = None,
        backlog_probe_interval: float | None = None,
        trace: typing.Any = None,
        metrics: typing.Any = None,
    ) -> ExperimentResult:
        """Execute the experiment; ``seed`` overrides the config seed.

        ``backlog_probe_interval`` additionally samples the input topic's
        unconsumed backlog at that period (broker mode only).

        ``trace`` turns on per-record tracing: ``True`` for defaults, a
        :class:`~repro.tracing.spans.TraceOptions` for sampling knobs.

        ``metrics`` turns on whole-system telemetry: ``True`` for
        defaults, a :class:`~repro.metrics.MetricsOptions` for the scrape
        interval. Both are observational — they never change the event
        sequence, so instrumented results are identical to plain ones.
        """
        config = self.config
        env = Environment()
        tracer = make_tracer(env, trace)
        registry = make_registry(env, metrics)
        run_seed = config.seed if seed is None else seed
        rng = RandomStreams(run_seed)
        # Failure injection can legitimately replay batches to the sink.
        collector = MetricsCollector(env, strict=not config.fault_tolerant)

        # Scale-out: topology + placement, derived once per run.
        scale_out = None
        if config.cluster is not None:
            from repro.cluster.runtime import ClusterRuntime

            scale_out = ClusterRuntime(
                env, config, serving_name=self._serving_name(), metrics=registry
            )

        # Transport: Kafka (default) or direct in-process (Fig. 13).
        if config.use_broker:
            cluster = BrokerCluster(
                env,
                tracer=tracer,
                metrics=registry,
                placement=scale_out.placement if scale_out is not None else None,
            )
            cluster.create_topic(INPUT_TOPIC, config.partitions)
            cluster.create_topic(OUTPUT_TOPIC, config.partitions)
            input_gateway: typing.Any = BrokerInput(
                env,
                cluster,
                INPUT_TOPIC,
                node_of_member=(
                    scale_out.node_of_task if scale_out is not None else None
                ),
            )
            output_gateway: typing.Any = BrokerOutput(env, cluster, OUTPUT_TOPIC)
            producer_kwargs = {"cluster": cluster, "topic": INPUT_TOPIC}
            if scale_out is not None:
                # The workload generator runs outside the cluster, like
                # the paper's dedicated input-producer VM.
                producer_kwargs["node"] = scale_out.driver_node
        else:
            input_gateway = DirectInput(env)
            output_gateway = DirectOutput(env)
            producer_kwargs = {"direct": input_gateway}

        protocol = (
            # Ray substitutes Ray Serve (HTTP-only) for external tools,
            # so a grpc/rest preference does not apply there.
            config.protocol
            if self._serving_name() == config.serving
            else None
        )
        tool = None
        if scale_out is not None:
            tool = scale_out.build_serving(
                config.model,
                gpu=config.gpu,
                rng=rng,
                server_workers=config.server_workers,
                protocol=protocol,
            )
        if tool is None:
            tool = create_serving_tool(
                self._serving_name(),
                env,
                config.model,
                mp=self._scoring_parallelism(),
                gpu=config.gpu,
                rng=rng,
                server_workers=config.server_workers,
                protocol=protocol,
            )
        tool.tracer = tracer
        # Metrics install before batching/autoscaling: those policies
        # register their instruments on ``tool.metrics``.
        tool.install_metrics(registry)
        if config.adaptive_batching is not None:
            from repro.serving.external.batching import BatchingPolicy

            size, delay = config.adaptive_batching
            tool.configure_pool(
                batching=BatchingPolicy(max_size=size, max_delay=delay)
            )
        if config.autoscale is not None:
            from repro.serving.external.autoscaler import (
                AutoscalePolicy,
                Autoscaler,
            )

            low, high = config.autoscale
            Autoscaler(
                env,
                tool,
                AutoscalePolicy(min_workers=low, max_workers=high),
                horizon=config.duration,
            )
        # The fault injector targets the real server; the engine scores
        # through the (optionally) resilience-wrapped tool.
        service = tool
        plan = config.fault_plan
        resilience = None
        if config.resilience is not None or (
            plan is not None and plan.can_fail_requests
        ):
            from repro.faults.plan import ResiliencePolicy
            from repro.faults.resilience import ResilientScorer

            # A fault plan that can fail requests needs *some* policy or a
            # failed score would crash the scoring task: default to
            # shedding the batch (drop it, count it, move on).
            policy = (
                config.resilience
                if config.resilience is not None
                else ResiliencePolicy(on_exhausted="shed")
            )
            fallback = None
            if policy.fallback is not None:
                fallback = create_serving_tool(
                    policy.fallback,
                    env,
                    config.model,
                    mp=self._scoring_parallelism(),
                    gpu=config.gpu,
                    rng=rng,
                )
                fallback.tracer = tracer
            tool = resilience = ResilientScorer(
                env, tool, policy, rng=rng, fallback=fallback
            )
        on_complete = collector.on_complete
        if registry.enabled:
            latency_hist = registry.histogram(
                "pipeline_latency_seconds",
                help="end-to-end event-time latency of completed batches",
            )
            inner_on_complete = collector.on_complete

            def on_complete(batch, end_time):  # noqa: F811
                latency_hist.observe(end_time - batch.created_at)
                inner_on_complete(batch, end_time)

        engine = create_data_processor(
            config.sps,
            env,
            tool,
            input_gateway,
            output_gateway,
            mp=self._engine_parallelism(),
            on_complete=on_complete,
            output_values_per_point=model_info(config.model).output_values,
            operator_parallelism=config.operator_parallelism,
            async_io=config.async_io,
            scoring_window=config.scoring_window,
            tracer=tracer,
            metrics=registry,
        )
        recovery = None
        if config.fault_tolerant:
            from repro.faults.recovery import EngineRecovery

            recovery = EngineRecovery(env, engine, config)
            recovery.start()
        injector = None
        if plan is not None and not plan.empty:
            from repro.faults.injectors import FaultInjector

            injector = FaultInjector(
                env,
                plan,
                cluster=cluster if config.use_broker else None,
                server=service if plan.touches_serving else None,
                topics={"input": INPUT_TOPIC, "output": OUTPUT_TOPIC},
                rng=rng,
                metrics=registry,
            )
            injector.start()

        factory = BatchFactory(config.bsz, self._point_shape(), tracer=tracer)
        producer = self._build_producer(
            env, factory, collector, run_seed, tracer=tracer, **producer_kwargs
        )

        probe = None
        if backlog_probe_interval is not None and config.use_broker:
            from repro.core.probe import BacklogProbe

            probe = BacklogProbe(
                env,
                cluster,
                INPUT_TOPIC,
                completed=lambda: collector.count,
                interval=backlog_probe_interval,
                horizon=config.duration,
            )
            probe.start()

        scraper = None
        if registry.enabled:
            registry.counter(
                "pipeline_batches_produced",
                help="batches written to the input side in total",
                fn=lambda: producer.batches_produced,
            )
            registry.counter(
                "pipeline_batches_completed",
                help="batches that reached the output side in total",
                fn=lambda: collector.count,
            )
            options = metrics if isinstance(metrics, MetricsOptions) else MetricsOptions()
            scraper = Scraper(
                env,
                registry,
                interval=options.scrape_interval,
                horizon=config.duration,
            )
            scraper.start()

        engine.start()
        producer.start()
        env.run(until=config.duration)

        cutoff = config.duration * config.warmup_fraction
        return ExperimentResult(
            config=config,
            # Throughput and latency summarize the SAME closed window
            # [cutoff, duration]: one population of completions.
            throughput=collector.throughput(cutoff, config.duration),
            latency=collector.latency_stats(cutoff, config.duration),
            completed=collector.count,
            produced=producer.batches_produced,
            measure_start=cutoff,
            measure_end=config.duration,
            series=tuple(collector.latency_series()),
            duplicates=collector.duplicates,
            inference_requests=tool.requests_served,
            backlog_series=tuple(probe.series()) if probe is not None else (),
            trace=tracer if not isinstance(tracer, NullTracer) else None,
            telemetry=Telemetry(registry, scraper) if scraper is not None else None,
            faults=self._fault_summary(injector, resilience, recovery),
        )

    @staticmethod
    def _fault_summary(
        injector: typing.Any,
        resilience: typing.Any,
        recovery: typing.Any,
    ) -> "FaultSummary | None":
        """Tally what the chaos machinery did; None on a plain run."""
        if injector is None and resilience is None and recovery is None:
            return None
        from repro.faults.summary import FaultSummary

        counts = injector.counts if injector is not None else {}
        breaker = resilience.breaker if resilience is not None else None
        failures = restarts = checkpoints = 0
        if recovery is not None:
            failures = recovery.failures_injected
            restarts = recovery.restarts
            checkpoints = recovery.checkpoints_completed
        return FaultSummary(
            server_crashes=counts.get("server_crash", 0),
            partition_outages=counts.get("partition_outage", 0),
            network_degradations=counts.get("network_degradation", 0),
            stragglers=counts.get("straggler", 0),
            engine_failures=failures,
            engine_restarts=restarts,
            checkpoints=checkpoints,
            retries=resilience.retries if resilience is not None else 0,
            timeouts=resilience.timeouts if resilience is not None else 0,
            shed=resilience.shed if resilience is not None else 0,
            fallbacks=resilience.fallbacks if resilience is not None else 0,
            breaker_opens=breaker.opens if breaker is not None else 0,
            breaker_fast_fails=breaker.fast_fails if breaker is not None else 0,
        )

    def _build_producer(
        self,
        env: Environment,
        factory: BatchFactory,
        metrics: MetricsCollector,
        seed: int,
        **producer_kwargs: typing.Any,
    ) -> InputProducerBase:
        schedule = self._schedule(seed)
        if schedule is None:
            backlog = _SATURATION_BACKLOG.get(
                self.config.sps, _DEFAULT_BACKLOG
            )
            return SaturatingProducer(
                env,
                factory,
                completed=lambda: metrics.count,
                backlog_target=backlog,
                **producer_kwargs,
            )
        return PacedProducer(env, factory, schedule=schedule, **producer_kwargs)


def run_experiment(
    config: ExperimentConfig, seed: int | None = None
) -> ExperimentResult:
    """Convenience wrapper: build a runner and execute once."""
    return ExperimentRunner(config).run(seed=seed)


def run_replicated(
    config: ExperimentConfig,
    seeds: typing.Sequence[int] = (0, 1),
    jobs: int = 1,
    store: typing.Any = None,
) -> list[ExperimentResult]:
    """The paper's protocol: run each experiment twice and report
    averages and standard deviations (§4.2).

    ``jobs`` > 1 replicates across worker processes, and ``store`` (a
    :class:`repro.store.ResultStore`) replays seeds that already ran and
    records the rest — both through :mod:`repro.matrix.engine` as a
    one-point matrix, which guarantees results identical to the plain
    in-process loop.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    if jobs != 1 or store is not None:
        from repro.matrix.engine import run_matrix

        report = run_matrix(config, {}, seeds=seeds, jobs=jobs, store=store)
        return list(report.points[0].results)
    runner = ExperimentRunner(config)
    return [runner.run(seed=seed) for seed in seeds]
