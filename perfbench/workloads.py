"""The benchmark's workloads, how one repetition runs, and how it is checked.

A workload is a fixed set of simulator experiments run to completion
through the public entry points (``ExperimentRunner.run`` and
``repro.matrix.engine.run_matrix``), split into *parts* that are timed one
by one. One *repetition* runs every part once and yields a summary of
the results plus the host cost of producing them.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import math
import time
import traceback
import typing

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.runner import ExperimentResult, ExperimentRunner
from repro.matrix.engine import grid_points, run_matrix
from repro.matrix.presets import preset

#: Matrix presets the sweep workload runs, in order.
SWEEP_PRESETS = ("throughput", "scaleout")

#: Table 5 ordering of saturating throughput, fastest first.
TABLE5_ORDER = ("spark_ss", "kafka_streams", "flink", "ray")

Part = typing.Callable[[int], list[ExperimentResult]]


def ks_onnx_saturate_config() -> ExperimentConfig:
    """Kafka Streams x embedded ONNX, saturating producer, no instrumentation."""
    return ExperimentConfig(
        sps="kafka_streams",
        serving="onnx",
        model="ffnn",
        mp=8,
        ir=None,
        duration=1.0,
    )


def flink_tfs_bursts_config() -> ExperimentConfig:
    """Flink x TF-Serving under Fig. 8 bursts around the sustainable rate.

    Flink x TF-Serving x ffnn at mp=8 sustains about 4.1k events/s, so
    bursts (110% of ``ir``) overload it briefly and the gaps (70%) let it
    drain. One repetition covers two whole burst cycles.
    """
    return ExperimentConfig(
        sps="flink",
        serving="tf_serving",
        model="ffnn",
        mp=8,
        workload=WorkloadKind.PERIODIC_BURSTS,
        ir=4000.0,
        bd=0.2,
        tbb=0.3,
        duration=1.0,
    )


def _run_ks_onnx_saturate(seed: int) -> list[ExperimentResult]:
    return [ExperimentRunner(ks_onnx_saturate_config()).run(seed=seed)]


def _run_flink_tfs_bursts(seed: int) -> list[ExperimentResult]:
    runner = ExperimentRunner(flink_tfs_bursts_config())
    return [runner.run(seed=seed, trace=True, metrics=True)]


def _run_grid_point(
    name: str, point: tuple[tuple[str, typing.Any], ...], seed: int
) -> list[ExperimentResult]:
    """One grid point of a matrix preset, through ``run_matrix``."""
    spec = preset(name)
    grid = {key: (value,) for key, value in point}
    return run_matrix(spec.base, grid, seeds=(seed,)).results


def _sweep_parts() -> tuple[Part, ...]:
    """Every grid point of the sweep presets, each timed on its own, so a
    burst of host noise spoils one short part rather than the sweep."""
    return tuple(
        functools.partial(_run_grid_point, name, tuple(point.items()))
        for name in SWEEP_PRESETS
        for point in grid_points(preset(name).grid)
    )


def paper_shape_problems(results: typing.Sequence[ExperimentResult]) -> list[str]:
    """Table 5 shape: spark_ss > kafka_streams > flink > ray for both
    backends, and embedded ONNX beats external TF-Serving on Flink."""
    rates = {
        (r.config.sps, r.config.serving): r.throughput
        for r in results
        if r.config.cluster is None
    }
    problems = []
    for serving in ("onnx", "tf_serving"):
        ordered = [rates.get((sps, serving), math.nan) for sps in TABLE5_ORDER]
        if not all(a > b for a, b in zip(ordered, ordered[1:])):
            problems.append(
                f"Table 5 order broken for {serving}: "
                + ", ".join(f"{s}={v:.1f}" for s, v in zip(TABLE5_ORDER, ordered))
            )
    onnx = rates.get(("flink", "onnx"), math.nan)
    tfs = rates.get(("flink", "tf_serving"), math.nan)
    if not onnx > tfs:
        problems.append(f"flink-onnx {onnx:.1f} not above flink-tf_serving {tfs:.1f}")
    return problems


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The experiments, in order; each part runs once per repetition for a
    #: seed and is timed on its own.
    parts: tuple[Part, ...]
    #: Extra whole-workload checks beyond the per-run ones.
    shape_check: typing.Callable[
        [typing.Sequence[ExperimentResult]], list[str]
    ] | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ks-onnx-saturate",
            "per-event hot path: kernel, per-record broker pull, saturating "
            "producer, keyed noise; instrumentation off",
            (_run_ks_onnx_saturate,),
        ),
        Workload(
            "flink-tfs-bursts-observed",
            "external gRPC serving, server pool, paced bursty producer, "
            "tracing and metrics on",
            (_run_flink_tfs_bursts,),
        ),
        Workload(
            "paper-sweep",
            "Table 5 and scale-out presets through run_matrix: many short "
            "runs, grid set-up, Spark/Ray engines, cluster layer",
            _sweep_parts(),
            shape_check=paper_shape_problems,
        ),
    )
}


def run_problems(result: ExperimentResult) -> list[str]:
    """Invariants every fault-free run must satisfy."""
    label = result.config.label()
    problems = []
    if result.completed > result.produced:
        problems.append(f"{label}: completed {result.completed} > produced {result.produced}")
    if result.duplicates != 0:
        problems.append(f"{label}: {result.duplicates} duplicates without faults")
    for field, value in result.latency.to_dict().items():
        if field != "count" and not (math.isfinite(value) and value >= 0):
            problems.append(f"{label}: latency {field} = {value}")
    if not result.throughput > 0:
        problems.append(f"{label}: throughput {result.throughput}")
    return problems


def sim_digest(results: typing.Sequence[ExperimentResult]) -> str:
    """Hash of the simulated outputs: a speed-only change keeps it fixed."""
    payload = [
        [
            r.config.label(),
            r.throughput,
            r.latency.to_dict(),
            r.completed,
            r.produced,
        ]
        for r in results
    ]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclasses.dataclass
class Rep:
    """One repetition of a workload: host cost and a summary of its outputs.

    Results are summarized, not kept, so memory does not grow with the
    number of repetitions.
    """

    #: Wall seconds of each part, in order (fewer when a part raised).
    part_walls: list[float]
    problems: list[str]
    #: :func:`sim_digest` of the results; None when the rep raised.
    digest: str | None = None
    sim_s: float = 0.0
    records: int = 0
    #: Scoring calls the serving tools served (``inference_requests``).
    requests: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.part_walls)


def run_rep(workload: Workload, seed: int) -> Rep:
    """Run every part of the workload once, timed, and check the outputs."""
    # Start from a collected heap so that neither the timing nor the peak
    # memory depends on when the previous rep's garbage happens to go.
    gc.collect()
    results: list[ExperimentResult] = []
    walls: list[float] = []
    try:
        for part in workload.parts:
            start = time.perf_counter()
            results += part(seed)
            walls.append(time.perf_counter() - start)
    except Exception as exc:  # a raising run is a failed run, not a crash
        traceback.print_exc()
        return Rep(walls, [f"raised {exc!r}"])
    problems = [p for r in results for p in run_problems(r)]
    if workload.shape_check is not None:
        problems += workload.shape_check(results)
    return Rep(
        walls,
        problems,
        digest=sim_digest(results),
        sim_s=sum(r.config.duration for r in results),
        records=sum(r.completed for r in results),
        requests=sum(r.inference_requests for r in results),
    )


def mark_digest_mismatches(reps: typing.Sequence[Rep]) -> None:
    """A rep whose simulated outputs differ from the first rep's fails."""
    reference = reps[0].digest
    for rep in reps[1:]:
        if rep.digest is not None and rep.digest != reference:
            rep.problems.append(f"sim digest {rep.digest} != first rep {reference}")
