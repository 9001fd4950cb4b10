"""Registry and factory for data-processor adapters."""

from __future__ import annotations

import typing

from repro.errors import ConfigError
from repro.serving.base import ServingTool
from repro.simul import Environment
from repro.sps.api import CompletionCallback, DataProcessor
from repro.sps.flink import FlinkProcessor
from repro.sps.gateways import InputGateway, OutputGateway
from repro.sps.kafka_streams import KafkaStreamsProcessor
from repro.sps.ray_actors import RayProcessor
from repro.metrics.registry import NO_METRICS
from repro.sps.spark import SparkProcessor
from repro.tracing.spans import NO_TRACE

ENGINES: dict[str, type[DataProcessor]] = {
    "flink": FlinkProcessor,
    "kafka_streams": KafkaStreamsProcessor,
    "spark_ss": SparkProcessor,
    "ray": RayProcessor,
}


def create_data_processor(
    name: str,
    env: Environment,
    tool: ServingTool,
    input_gateway: InputGateway,
    output_gateway: OutputGateway,
    mp: int = 1,
    on_complete: CompletionCallback | None = None,
    output_values_per_point: int = 1,
    operator_parallelism: tuple[int, int, int] | None = None,
    async_io: int = 0,
    scoring_window: int = 0,
    tracer: typing.Any = NO_TRACE,
    metrics: typing.Any = NO_METRICS,
) -> DataProcessor:
    """Build the named engine wired to a serving tool and gateways."""
    try:
        engine_cls = ENGINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown stream processor {name!r}; have {sorted(ENGINES)}"
        ) from None
    # Flink-only options are forwarded only when set, so another engine's
    # constructor rejects them (``ExperimentConfig`` states the rule).
    kwargs: dict[str, typing.Any] = {}
    if operator_parallelism is not None:
        kwargs["operator_parallelism"] = operator_parallelism
    if async_io:
        kwargs["async_io"] = async_io
    if scoring_window:
        kwargs["scoring_window"] = scoring_window
    return engine_cls(
        env,
        tool,
        input_gateway,
        output_gateway,
        mp=mp,
        on_complete=on_complete,
        output_values_per_point=output_values_per_point,
        tracer=tracer,
        metrics=metrics,
        **kwargs,
    )
