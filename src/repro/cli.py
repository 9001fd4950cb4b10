"""Command-line interface: run single experiments or scenario presets.

``crayfish run`` is the one single-experiment command: one
:class:`~repro.config.ExperimentConfig` built from flags, plus the
instruments asked for (``--trace``, ``--metrics``, ``--fault``,
``--nodes``). Examples::

    crayfish run --sps flink --serving onnx --model ffnn
    crayfish run --sps kafka_streams --serving tf_serving --mp 8
    crayfish run --ir 50 --trace trace.json --metrics metrics.txt
    crayfish run --serving tf_serving --ir 100 --fault server-crash --at 2
    crayfish run --nodes 2 --placement
    crayfish verify-order --permutations 0
    crayfish latency --sps flink --serving onnx --bsz 128
    crayfish bursts --sps flink --serving onnx
    crayfish list
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import typing

from repro import calibration  # noqa: F401 - ensures constants import cleanly
from repro.config import (
    ExperimentConfig,
    MODEL_NAMES,
    SERVING_TOOLS,
    SPS_NAMES,
    WorkloadKind,
)
from repro.core.report import format_ms, format_rate, format_table
from repro.core.runner import ExperimentRunner, run_experiment
from repro.core.scenarios import (
    measure_closed_loop_latency,
    measure_sustainable_throughput,
    run_burst_scenario,
)
from repro.errors import ConfigError


def _add_sut_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sps", default="flink", choices=SPS_NAMES)
    parser.add_argument("--serving", default="onnx", choices=SERVING_TOOLS)
    parser.add_argument("--model", default="ffnn", choices=MODEL_NAMES)
    parser.add_argument("--bsz", type=int, default=1, help="points per event")
    parser.add_argument("--mp", type=int, default=1, help="inference workers")
    parser.add_argument("--gpu", action="store_true", help="enable the GPU model")
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--duration", type=float, default=5.0, help="simulated seconds")
    parser.add_argument(
        "--async-io", type=int, default=0, dest="async_io",
        help="Flink async I/O in-flight window for external calls (0=blocking)",
    )
    parser.add_argument(
        "--server-workers", type=int, default=None, dest="server_workers",
        help="external server workers (default: = mp)",
    )
    parser.add_argument(
        "--json", default=None, dest="json_path",
        help="also write the result(s) as JSON to this path",
    )


def _config_from(args: argparse.Namespace, **extra: typing.Any) -> ExperimentConfig:
    return ExperimentConfig(
        sps=args.sps,
        serving=args.serving,
        model=args.model,
        bsz=args.bsz,
        mp=args.mp,
        gpu=args.gpu,
        seed=args.seed,
        duration=args.duration,
        async_io=args.async_io,
        server_workers=args.server_workers,
        **extra,
    )


def _separated(
    cast: typing.Callable[[str], typing.Any],
    spec: str,
    sep: str = ",",
    arity: int | None = None,
) -> typing.Callable[[str], tuple]:
    """An argparse ``type=`` for ``sep``-separated values like ``1,2,4``.

    Malformed input (a part ``cast`` rejects, or the wrong number of
    parts when ``arity`` is set) fails at parse time: argparse names the
    flag, echoes the value and exits 2.
    """

    def parse(text: str) -> tuple:
        parts = text.split(sep)
        try:
            if arity is None or len(parts) == arity:
                return tuple(cast(part) for part in parts)
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"wants {spec}, got {text!r}")

    return parse


def _threshold(text: str) -> tuple[str, float]:
    """An argparse ``type=`` for ``METRIC=FRACTION`` (``--threshold``)."""
    metric, sep, value = text.partition("=")
    try:
        if sep:
            return metric, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"wants METRIC=FRACTION, got {text!r}")


def _non_negative_int(text: str) -> int:
    """An argparse ``type=`` for a count that may be zero."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"wants an integer >= 0, got {text!r}"
        )
    return value


def _export_artifact(
    path: str | None,
    writer: typing.Callable[[str], typing.Any],
    label: str,
    note: str = "",
) -> None:
    """Write one export artifact and report where it landed.

    Shared by the ``run`` instruments (``--trace``, ``--metrics``) and
    ``matrix``: ensures the output's parent directory exists, invokes
    ``writer(path)``, and prints a uniform "written to" line.
    ``path=None`` skips the export (an optional artifact the user did
    not ask for).
    """
    if path is None:
        return
    target = pathlib.Path(path)
    if str(target.parent) not in ("", "."):
        target.parent.mkdir(parents=True, exist_ok=True)
    writer(str(target))
    suffix = f" {note}" if note else ""
    print(f"{label} written to {target}{suffix}")


def _maybe_dump(args: argparse.Namespace, results) -> None:
    if getattr(args, "json_path", None):
        from repro.core.results_io import save_results

        save_results(results, args.json_path)
        print(f"results written to {args.json_path}")


def _cmd_run(args: argparse.Namespace) -> int:
    """One experiment plus every instrument its flags enable.

    ``--fault`` adds the fault-free twin run; ``--trace``/``--metrics``
    attach to the (faulted) measured run and never change its results.
    """
    from repro.metrics import MetricsOptions
    from repro.tracing.spans import TraceOptions

    config = _run_config(args)
    tracing = TraceOptions(sample_every=args.sample_every, max_traces=args.max_traces)
    telemetry = MetricsOptions(scrape_interval=args.scrape_interval)
    instruments = {
        "trace": tracing if args.trace else None,
        "metrics": telemetry if args.metrics else None,
    }
    outcome = None
    if args.fault:
        from repro.faults.report import run_chaos_scenario

        outcome = run_chaos_scenario(config, **instruments)
        results = [outcome.baseline, outcome.faulted]
    else:
        results = [ExperimentRunner(config).run(**instruments)]
    result = results[-1]
    rows = [
        ("throughput (events/s)", format_rate(result.throughput)),
        ("mean latency (ms)", format_ms(result.latency.mean)),
        ("p95 latency (ms)", format_ms(result.latency.p95)),
        ("completed batches", result.completed),
    ]
    title = config.label()
    if outcome is not None:
        rows.extend(_chaos_rows(outcome))
        title += f" chaos: {args.fault} @ {args.at}s"
    print(format_table(["metric", "value"], rows, title=title))
    code = 0
    if args.trace and not _report_trace(args, config, result.trace):
        code = 1
    if args.metrics:
        _report_metrics(args, config, result.telemetry)
    if args.placement:
        from repro.cluster import PlacementPlan
        from repro.config import is_embedded

        plan = PlacementPlan.from_spec(
            config.cluster,
            base_tasks=config.mp,
            external_serving=not is_embedded(config.serving),
        )
        print()
        print(plan.describe())
    _maybe_dump(args, results)
    # Recording happens dead last — after the simulation and every
    # export — so the determinism checks never see it.
    kind = "chaos" if args.fault else "cluster" if args.nodes > 0 else "run"
    _record_results(_open_store(args), results, kind=kind)
    return code


def _chaos_rows(outcome) -> list[tuple[str, typing.Any]]:
    """The ``--fault`` rows: goodput against the twin, recovery, faults."""
    faulted = outcome.faulted
    rows = [
        ("baseline goodput (events/s)", format_rate(outcome.baseline.throughput)),
        ("goodput ratio", f"{outcome.goodput_ratio:.3f}"),
        ("completed / produced", f"{faulted.completed} / {faulted.produced}"),
        ("duplicates (replays)", faulted.duplicates),
    ]
    recovery = outcome.recovery
    if recovery is not None:
        when = recovery.recovery_time
        shown = "not within run" if when is None else f"{when:.2f}s"
        rows.append(("latency recovery", shown))
        rows.append(("peak latency (ms)", format_ms(recovery.peak_latency)))
    summary = faulted.faults
    if summary is not None:
        rows.append(("faults injected", summary.faults_injected))
        rows.append(("retries / timeouts", f"{summary.retries} / {summary.timeouts}"))
        rows.append(("shed / fallbacks", f"{summary.shed} / {summary.fallbacks}"))
        if summary.engine_restarts:
            rows.append(
                ("engine restarts / checkpoints",
                 f"{summary.engine_restarts} / {summary.checkpoints}"),
            )
    return rows


def _report_trace(args: argparse.Namespace, config, tracer) -> bool:
    """The ``--trace`` section; False when no record completed."""
    from repro.core.report import format_breakdown
    from repro.tracing.analysis import bottleneck_ranking
    from repro.tracing.export import save_chrome_trace, save_spans_csv

    finished = tracer.finished_trace_ids()
    print()
    print(
        f"{config.label()}: traced {len(finished)} records "
        f"({tracer.span_count} spans, {tracer.dropped} dropped by cap)"
    )
    if not finished:
        print("no record completed within the run; nothing to analyze")
        return False
    print()
    print(format_breakdown(tracer))
    print()
    ranked = bottleneck_ranking(tracer, top=3)
    print("bottleneck ranking:")
    for rank, stat in enumerate(ranked, start=1):
        print(
            f"  {rank}. {stat.stage}: {stat.share * 100:.1f}% of latency "
            f"({format_ms(stat.mean)} ms/record)"
        )
    print()
    _export_artifact(
        args.trace,
        lambda p: save_chrome_trace(tracer, p),
        "Chrome trace",
        note="(open in chrome://tracing)",
    )
    _export_artifact(
        args.trace_csv, lambda p: save_spans_csv(tracer, p), "span CSV"
    )
    return True


def _report_metrics(args: argparse.Namespace, config, telemetry) -> None:
    """The ``--metrics`` section: dashboard plus exports."""
    from repro.metrics.dashboard import render_dashboard
    from repro.metrics.export import save_metrics_jsonl, save_openmetrics

    scraper = telemetry.scraper
    print()
    print(
        f"{config.label()}: scraped {len(telemetry.registry)} instruments "
        f"{scraper.scrapes} times (every {args.scrape_interval}s simulated)"
    )
    print()
    print(render_dashboard(scraper, title=config.label()))
    print()
    _export_artifact(
        args.metrics,
        lambda p: save_openmetrics(telemetry.registry, p),
        "OpenMetrics exposition",
    )
    _export_artifact(
        args.metrics_jsonl,
        lambda p: save_metrics_jsonl(scraper, p),
        "metrics timeline",
    )


def _add_matrix_exec_args(parser: argparse.ArgumentParser) -> None:
    """Worker pool and result cache shared by sweep/matrix/capacity-search."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to fan grid points x seeds across",
    )
    parser.add_argument(
        "--store", default=None, dest="store_path", metavar="DB",
        help="SQLite results database and result cache: runs it holds for "
        "this code replay, the rest run and are recorded "
        "(default: $CRAYFISH_STORE, else .crayfish-store.sqlite)",
    )


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """Opt-in results-database recording for ``run``."""
    parser.add_argument(
        "--store", default=None, dest="store_path", metavar="DB",
        help="record results into this SQLite results database "
        "(default: $CRAYFISH_STORE when set; recording stays off otherwise)",
    )


def _open_store(args: argparse.Namespace):
    """The store ``run`` records into (``--store`` / CRAYFISH_STORE), or None.

    Recording is opt-in here: with neither the flag nor the environment
    variable set this returns None, and nothing is recorded.
    """
    from repro.store import open_store

    return open_store(args.store_path or os.environ.get("CRAYFISH_STORE"))


def _store_path(path: str | None) -> str:
    """``path``, else $CRAYFISH_STORE, else the default database file."""
    from repro.store import DEFAULT_STORE_PATH

    return path or os.environ.get("CRAYFISH_STORE") or DEFAULT_STORE_PATH


def _cache_store(args: argparse.Namespace):
    """The results store a sweep, matrix or capacity search caches in."""
    from repro.store import ResultStore

    return ResultStore(_store_path(args.store_path))


def _print_tasks(tasks: int, executed: int, jobs: int, store) -> None:
    """How many tasks ran and how many the store served."""
    print(
        f"tasks: {tasks} total, {executed} executed, "
        f"{tasks - executed} from cache (jobs={jobs})"
    )
    print(
        f"recorded {executed} new run(s) into {store.path} "
        f"[code fingerprint {store.fingerprint}]"
    )


def _record_results(store, results, kind: str, label: str | None = None) -> None:
    """Record finished results and say where they went; closes the store."""
    if store is None:
        return
    with store:
        for result in results:
            store.record_result(result, kind=kind, label=label)
    noun = "run" if len(results) == 1 else "runs"
    print(f"recorded {len(results)} {noun} into {store.path}")


def _add_db_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", default=None,
        help="results database path "
        "(default: $CRAYFISH_STORE or .crayfish-store.sqlite)",
    )


def _require_db(args: argparse.Namespace) -> str | None:
    """The query commands need an existing database; None + error if absent."""
    path = _store_path(args.db)
    if not os.path.exists(path):
        print(
            f"error: no results database at {path} — record runs into one "
            "with run --store, sweep, matrix or cluster capacity-search",
            file=sys.stderr,
        )
        return None
    return path


def _add_filter_args(parser: argparse.ArgumentParser) -> None:
    """Row filters shared by ``history``/``trend``/``pareto``."""
    _add_db_arg(parser)
    parser.add_argument("--sps", default=None, choices=SPS_NAMES)
    parser.add_argument("--serving", default=None, choices=SERVING_TOOLS)
    parser.add_argument("--model", default=None, choices=MODEL_NAMES)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument(
        "--kind", default=None,
        help="run kind: run, cluster, chaos, sweep, matrix, capacity",
    )
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable JSON output instead of the table",
    )


def _history_filter(args: argparse.Namespace):
    from repro.store import HistoryFilter

    return HistoryFilter(
        sps=args.sps,
        serving=args.serving,
        model=args.model,
        nodes=args.nodes,
        kind=args.kind,
        limit=args.limit,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.matrix import run_matrix

    base = _config_from(args, ir=args.ir)
    rows = []

    def progress(overrides, results):
        rows.append(
            (
                overrides[args.field],
                format_rate(sum(r.throughput for r in results) / len(results)),
                format_ms(sum(r.latency.mean for r in results) / len(results)),
            )
        )

    with _cache_store(args) as store:
        report = run_matrix(
            base,
            {args.field: list(args.values)},
            seeds=(args.seed, args.seed + 1),
            jobs=args.jobs,
            hook=progress,
            store=store,
            store_kind="sweep",
        )
    print(
        format_table(
            [args.field, "events/s", "mean latency (ms)"],
            rows,
            title=f"{base.label()} sweep over {args.field}",
        )
    )
    _print_tasks(report.tasks, report.executed, args.jobs, store)
    _maybe_dump(args, report.results)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.core.results_io import save_records_jsonl, save_results_csv
    from repro.matrix import (
        format_matrix_table,
        grid_points,
        preset,
        preset_names,
        run_matrix,
    )

    if args.list_presets:
        for name in preset_names():
            spec = preset(name)
            print(
                f"{name}: {spec.description} "
                f"[{spec.task_count} tasks, seeds {spec.seeds}]"
            )
        return 0
    spec = preset(args.preset)
    base = spec.base
    if args.duration is not None:
        base = base.replace(duration=args.duration)
    seeds = spec.seeds if args.seeds is None else args.seeds
    total = len(grid_points(spec.grid))
    emitted = []

    def progress(overrides, results):
        emitted.append(overrides)
        label = (
            " ".join(f"{key}={overrides[key]}" for key in sorted(overrides))
            or base.label()
        )
        throughput = sum(r.throughput for r in results) / len(results)
        latency = sum(r.latency.mean for r in results) / len(results)
        print(
            f"  [{len(emitted)}/{total}] {label}: "
            f"{format_rate(throughput)} events/s, "
            f"{format_ms(latency)} ms mean latency"
        )

    with _cache_store(args) as store:
        report = run_matrix(
            base,
            spec.grid,
            seeds=seeds,
            jobs=args.jobs,
            hook=progress,
            store=store,
        )
    print()
    print(
        format_matrix_table(
            report, spec.grid, title=f"matrix preset {spec.name!r}"
        )
    )
    _print_tasks(report.tasks, report.executed, args.jobs, store)
    _export_artifact(
        args.jsonl,
        lambda p: save_records_jsonl(report.records, p),
        "result records JSONL",
    )
    _export_artifact(
        args.csv,
        lambda p: save_results_csv(report.results, p),
        "result CSV",
    )
    _maybe_dump(args, report.results)
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    config = _config_from(args, ir=args.ir, workload=WorkloadKind.CLOSED_LOOP)
    aggregate, __ = measure_closed_loop_latency(config, seeds=(args.seed, args.seed + 1))
    print(
        f"{config.label()}  bsz={config.bsz}: "
        f"{format_ms(aggregate.mean)} ms/batch (std {format_ms(aggregate.std)})"
    )
    return 0


def _cmd_bursts(args: argparse.Namespace) -> int:
    config = _config_from(args, bd=args.bd, tbb=args.tbb)
    st = measure_sustainable_throughput(config, seeds=(args.seed,)).mean
    outcome = run_burst_scenario(config, st, bursts=args.bursts, seed=args.seed)
    print(f"{config.label()}: sustainable throughput {format_rate(st)} events/s")
    for i, report in enumerate(outcome.reports):
        recovered = (
            f"{report.recovery_time:.2f}s"
            if report.recovery_time is not None
            else "not recovered"
        )
        print(
            f"  burst {i + 1} @ {report.burst_start:.0f}s: recovery {recovered}, "
            f"peak latency {format_ms(report.peak_latency)} ms"
        )
    return 0


FAULT_CHOICES = ("server-crash", "partition", "network", "straggler", "engine-crash")


def _add_fault_args(parser) -> None:
    """Fault-injection and client-resilience knobs for ``run --fault``."""
    parser.add_argument(
        "--fault", default=None, choices=FAULT_CHOICES,
        help="inject this fault class and compare against a fault-free twin",
    )
    parser.add_argument(
        "--at", type=float, default=2.0, help="fault start time (simulated s)"
    )
    parser.add_argument(
        "--fault-duration", type=float, default=0.5, dest="fault_duration",
        help="fault window / downtime / recovery time (s)",
    )
    parser.add_argument(
        "--error-rate", type=float, default=0.0, dest="error_rate",
        help="network fault: request drop probability",
    )
    parser.add_argument(
        "--extra-latency", type=float, default=0.005, dest="extra_latency",
        help="network fault: added one-way latency (s)",
    )
    parser.add_argument(
        "--slowdown", type=float, default=4.0,
        help="straggler fault: inference slowdown factor",
    )
    parser.add_argument(
        "--partitions-hit", type=int, default=32, dest="partitions_hit",
        help="partition fault: how many input partitions go down",
    )
    parser.add_argument(
        "--retries", type=int, default=5, help="client retry budget"
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="client per-attempt deadline (s); omit for none",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.05, dest="backoff_base",
        help="first retry backoff delay (s)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=0.5,
        dest="checkpoint_interval",
        help="engine-crash fault: checkpoint interval (s)",
    )
    parser.add_argument(
        "--no-resilience", action="store_true", dest="no_resilience",
        help="drop the client resilience layer (failed scores are shed)",
    )


def _fault_fields(args: argparse.Namespace) -> dict[str, typing.Any]:
    """The config fields ``--fault`` sets: a fault plan plus resilience,
    or engine failure times routed through checkpoint/replay."""
    from repro.faults import (
        FaultPlan,
        NetworkDegradation,
        PartitionOutage,
        ResiliencePolicy,
        ServerCrash,
        StragglerReplica,
    )

    if args.fault == "engine-crash":
        return {
            "checkpoint_interval": args.checkpoint_interval,
            "failure_times": (args.at,),
            "recovery_time": args.fault_duration,
        }
    window = {"at": args.at, "duration": args.fault_duration}
    if args.fault == "server-crash":
        crash = ServerCrash(at=args.at, downtime=args.fault_duration)
        plan = FaultPlan(server_crashes=(crash,))
    elif args.fault == "partition":
        hit = tuple(range(args.partitions_hit))
        plan = FaultPlan(partition_outages=(PartitionOutage(**window, partitions=hit),))
    elif args.fault == "network":
        degradation = NetworkDegradation(
            **window, extra_latency=args.extra_latency, error_rate=args.error_rate
        )
        plan = FaultPlan(network_degradations=(degradation,))
    else:  # straggler
        straggler = StragglerReplica(**window, slowdown=args.slowdown)
        plan = FaultPlan(stragglers=(straggler,))
    fields: dict[str, typing.Any] = {"fault_plan": plan}
    if not args.no_resilience:
        fields["resilience"] = ResiliencePolicy(
            timeout=args.timeout,
            retries=args.retries,
            backoff_base=args.backoff_base,
        )
    return fields


def _add_cluster_shape_args(parser, nodes: int) -> None:
    """Deployment-shape knobs shared by ``run``/``capacity-search``."""
    parser.add_argument(
        "--nodes", type=int, default=nodes,
        help="simulated machines in the cluster (0: no cluster layer)",
    )
    parser.add_argument(
        "--racks", type=int, default=1,
        help="racks the nodes spread over (cross-rack hops pay LAN latency)",
    )
    parser.add_argument(
        "--cpus-per-node", type=int, default=16, dest="cpus_per_node",
        help="CPU slots per machine (placement refuses to oversubscribe)",
    )
    parser.add_argument(
        "--tasks-per-node", type=int, default=None, dest="tasks_per_node",
        help="SPS task slots per node (default: = mp)",
    )
    parser.add_argument(
        "--replicas-per-node", type=int, default=1, dest="replicas_per_node",
        help="external serving replicas per node (behind the load balancer)",
    )
    parser.add_argument(
        "--partitions", type=int, default=None,
        help="broker partitions (default: enough for every task slot)",
    )


def _add_population_args(parser: argparse.ArgumentParser) -> None:
    """Population-workload knobs for ``run``."""
    parser.add_argument(
        "--users", type=int, default=0,
        help="simulated population size; 0 keeps the plain --ir workload",
    )
    parser.add_argument(
        "--distribution", default="zipf", choices=("zipf", "lognormal"),
        help="per-user rate distribution",
    )
    parser.add_argument(
        "--zipf-exponent", type=float, default=1.1, dest="zipf_exponent",
        help="power-law exponent for the zipf distribution",
    )
    parser.add_argument(
        "--sigma", type=float, default=1.0,
        help="log-scale dispersion for the lognormal distribution",
    )
    parser.add_argument(
        "--events-per-user-per-day", type=float, default=50.0,
        dest="events_per_user_per_day",
        help="mean events per user per simulated day",
    )
    parser.add_argument(
        "--diurnal-amplitude", type=float, default=0.3,
        dest="diurnal_amplitude",
        help="diurnal swing in [0, 1): 0 is flat",
    )
    parser.add_argument(
        "--diurnal-period", type=float, default=86_400.0,
        dest="diurnal_period",
        help="diurnal period in simulated seconds (compress for short runs)",
    )
    parser.add_argument(
        "--rate-scale", type=float, default=1.0, dest="rate_scale",
        help="multiplier on the aggregate offered rate",
    )
    parser.add_argument(
        "--flash-crowd", action="append", default=[], dest="flash_crowds",
        metavar="AT:DURATION:MULTIPLIER",
        type=_separated(float, "AT:DURATION:MULTIPLIER", sep=":", arity=3),
        help="layer a flash-crowd burst on top (repeatable)",
    )


def _population_from_args(args: argparse.Namespace):
    from repro.cluster.spec import FlashCrowd, PopulationSpec

    if args.users <= 0:
        return None
    crowds = [
        FlashCrowd(at=at, duration=duration, multiplier=multiplier)
        for at, duration, multiplier in args.flash_crowds
    ]
    return PopulationSpec(
        users=args.users,
        distribution=args.distribution,
        zipf_exponent=args.zipf_exponent,
        sigma=args.sigma,
        events_per_user_per_day=args.events_per_user_per_day,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period=args.diurnal_period,
        flash_crowds=tuple(sorted(crowds, key=lambda c: c.at)),
        rate_scale=args.rate_scale,
    )


#: Cluster-shape flags; commands without them (``verify-order``) get the
#: :class:`~repro.cluster.spec.ClusterSpec` defaults.
_SHAPE_FLAGS = ("racks", "cpus_per_node", "tasks_per_node", "replicas_per_node")


def _cluster_fields(args: argparse.Namespace) -> dict[str, typing.Any]:
    """The config fields ``--nodes N`` sets; none when N is 0.

    Partitions default to at least one per source task slot.
    """
    from repro.cluster.spec import ClusterSpec

    if args.nodes <= 0:
        return {}
    shape = {name: getattr(args, name, None) for name in _SHAPE_FLAGS}
    spec = ClusterSpec(
        nodes=args.nodes,
        **{name: value for name, value in shape.items() if value is not None},
    )
    partitions = getattr(args, "partitions", None)
    if partitions is None:
        per_node = spec.tasks_per_node if spec.tasks_per_node else args.mp
        partitions = max(32, per_node * spec.nodes)
    return {"cluster": spec, "use_broker": True, "partitions": partitions}


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """The one config ``run`` builds from its SUT, cluster, population
    and fault flags."""
    for flag, needed in (
        ("trace_csv", "trace"),
        ("metrics_jsonl", "metrics"),
        ("placement", "nodes"),
    ):
        if getattr(args, flag) and not getattr(args, needed):
            raise ConfigError(f"--{flag.replace('_', '-')} needs --{needed}")
    fields = _cluster_fields(args)
    population = _population_from_args(args)
    if population is not None:
        fields["population"] = population  # --ir is ignored
    else:
        fields["ir"] = args.ir
    if args.fault:
        fields.update(_fault_fields(args))
    return _config_from(args, **fields)


def _cmd_cluster_capacity(args: argparse.Namespace) -> int:
    from repro.cluster import SloPolicy, capacity_curve

    slo = SloPolicy(p95_latency=args.slo_p95, min_goodput=args.min_goodput)

    def probe_progress(point):
        verdict = "sustained" if point.sustained else "broken"
        print(
            f"  probe {format_rate(point.rate)} events/s: {verdict} "
            f"(goodput {format_rate(point.throughput)}, "
            f"p95 {format_ms(point.p95)} ms)"
        )

    def size_progress(nodes, result):
        print(
            f"{nodes} node(s): {format_rate(result.capacity)} events/s "
            f"sustainable after {len(result.probes)} probes"
        )

    config = _config_from(args, ir=None, **_cluster_fields(args))
    with _cache_store(args) as store:
        curve = capacity_curve(
            config,
            node_counts=args.node_counts,
            slo=slo,
            size_hook=size_progress,
            seeds=args.seeds,
            start_rate=args.start_rate,
            tolerance=args.tolerance,
            max_probes=args.max_probes,
            jobs=args.jobs,
            hook=probe_progress if args.verbose else None,
            store=store,
        )
    rows = [
        (nodes, format_rate(result.capacity), len(result.probes))
        for nodes, result in curve.points
    ]
    print()
    print(
        format_table(
            ["nodes", "sustainable events/s", "probes"],
            rows,
            title=(
                f"capacity search: {args.sps}/{args.serving}/{args.model} "
                f"SLO p95<={args.slo_p95 * 1000:.0f}ms"
            ),
        )
    )
    verdict = (
        "capacity scales monotonically with node count"
        if curve.monotonic
        else "WARNING: capacity is NOT monotonic over node counts"
    )
    print(verdict)
    results = [result for __, result in curve.points]
    _print_tasks(
        sum(len(result.probes) for result in results) * len(args.seeds),
        sum(result.executed for result in results),
        args.jobs,
        store,
    )
    return 0 if curve.monotonic else 1


def _lint_rule_selection(args: argparse.Namespace) -> list[str]:
    """Resolve --select/--ignore to rule names. Raises ValueError on an
    unknown rule in either list."""
    from repro.analysis.core import rule_names

    known = set(rule_names())
    base = set(args.select.split(",")) if args.select else set(known)
    ignored = set(args.ignore.split(",")) if args.ignore else set()
    unknown = sorted((base | ignored) - known)
    if unknown:
        raise ValueError(f"unknown lint rule(s): {', '.join(unknown)}")
    return sorted(base - ignored)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.core import lint_paths, make_rules
    from repro.analysis.report import (
        render_json,
        render_suppressions,
        render_text,
    )

    if args.rules:
        for rule in make_rules():
            print(f"{rule.name}: {rule.description}")
        return 0
    try:
        reports = lint_paths(args.paths, rules=make_rules(_lint_rule_selection(args)))
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.list_suppressions:
        print(render_suppressions(reports))
        return 0
    if args.check_suppressions:
        return _check_suppressions(args.suppressions_file, args.paths, reports)
    if args.format == "json":
        print(render_json(reports))
    else:
        print(render_text(reports, show_suppressed=args.show_suppressed))
    return 0 if all(r.clean for r in reports) else 1


def _check_suppressions(target: str, paths, reports) -> int:
    """Suppression-inventory freshness gate (``--check-suppressions``).

    A stale inventory is actionable, not just nonzero: print the unified
    diff between the committed file and the regenerated one, plus the
    exact command that refreshes it.
    """
    import difflib

    from repro.analysis.report import render_suppressions

    expected = render_suppressions(reports) + "\n"
    committed_path = pathlib.Path(target)
    committed = committed_path.read_text() if committed_path.exists() else ""
    if committed == expected:
        print(f"{target} is fresh ({len(reports)} file(s) linted)")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            committed.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile=f"{target} (committed)",
            tofile=f"{target} (regenerated)",
        )
    )
    lint_args = " ".join(str(p) for p in paths)
    print(f"{target} is stale; regenerate with:")
    print(f"  crayfish lint --list-suppressions {lint_args} > {target}")
    return 1


def _cmd_verify_order(args: argparse.Namespace) -> int:
    from repro.analysis.order import verify_order

    config = ExperimentConfig(
        sps=SPS_NAMES[0],
        serving=args.serving,
        model=args.model,
        bsz=args.bsz,
        mp=args.mp,
        seed=args.seed,
        duration=args.duration,
        ir=args.ir,
        **_cluster_fields(args),
    )
    engines = SPS_NAMES if args.sps == "all" else (args.sps,)
    verdicts = verify_order(config, engines=engines, permutations=args.permutations)
    rows = []
    for verdict in verdicts:
        if verdict.identical:
            digest = dict(verdict.baseline)["results.json"][:12]
            passed = "order-independent" if args.permutations else "byte-identical"
            rows.append((verdict.sps, passed, digest))
        else:
            failed = "ORDER-DEPENDENT" if verdict.reproducible else "NONDETERMINISTIC"
            rows.append((verdict.sps, failed, ", ".join(verdict.mismatched)))
    print(
        format_table(
            ["engine", "verdict", "results sha256 / diffs"],
            rows,
            title=(
                f"verify-order: {args.serving}/{args.model} ir={args.ir} "
                f"duration={args.duration}s seed={args.seed} "
                f"permutations={args.permutations}"
            ),
        )
    )
    nondeterministic = [v.sps for v in verdicts if not v.reproducible]
    hazards = [v.sps for v in verdicts if v.reproducible and not v.identical]
    if nondeterministic:
        print(f"NONDETERMINISM DETECTED in: {', '.join(nondeterministic)}")
        print(
            "the sanitizer saw no wall-clock or global-RNG call; look for "
            "set order, id() or hash() reaching results: crayfish lint "
            "--select unsorted-iteration,id-ordering,hash-randomization"
        )
    if hazards:
        print(
            "ORDERING HAZARD: exports depend on event-tie pop order in: "
            + ", ".join(hazards)
        )
        for verdict in verdicts:
            if verdict.tie_accesses is not None:
                _report_tie_conflicts(verdict)
    if nondeterministic or hazards:
        return 1
    print(
        f"all {len(verdicts)} engine(s) reproduce byte-identically on an "
        f"unperturbed repeat and stay byte-identical across "
        f"{args.permutations} perturbed schedule(s)"
    )
    return 0


def _report_tie_conflicts(verdict) -> None:
    """Print the tie tracker's diagnosis of one ORDER-DEPENDENT engine."""
    print(
        f"{verdict.sps}: tie tracker: {verdict.tie_accesses} shared-state "
        f"access(es) recorded, {len(verdict.conflicts)} conflict(s), "
        f"{len(verdict.suppressed)} suppressed"
    )
    for conflict in verdict.conflicts:
        print(f"  CONFIRMED {conflict.describe()}")
    for conflict in verdict.suppressed:
        print(f"  suppressed {conflict.describe()}")
    if verdict.conflicts:
        print(
            "unsuppressed tie-class conflicts: pop order inside one "
            "(time, priority) class decides results; fix the ordering or "
            "add '# crayfish: allow[tie-race]: reason' at an access site"
        )
    else:
        print(
            "the tracker saw no conflicting Resource/Store access: the "
            "dependency lies in state it does not observe (attributes, "
            "streams drawn in order); run crayfish lint"
        )


def _cmd_store_info(args: argparse.Namespace) -> int:
    from repro.store import SCHEMA_VERSION, ResultStore

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        counts = store.counts()
        rows = [
            ("schema version", f"{store.schema_version} (build {SCHEMA_VERSION})"),
            ("code fingerprint", store.fingerprint),
            ("git revision", store.git_rev or "-"),
        ]
        rows.extend((table, count) for table, count in counts.items())
    print(format_table(["field", "value"], rows, title=f"results store {path}"))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, format_history, history

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        rows = history(store, _history_filter(args))
    if args.as_json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_history(rows, title=f"run history ({path})"))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, format_trends, trend

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        series = trend(
            store, args.metric, _history_filter(args), min_points=args.min_points
        )
    if args.as_json:
        print(
            json.dumps(
                [
                    {
                        "slot_id": s.slot_id,
                        "label": s.label,
                        "seed": s.seed,
                        "metric": s.metric,
                        "points": [list(point) for point in s.points],
                    }
                    for s in series
                ],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_trends(series, title=f"{args.metric} trend ({path})"))
    return 0


def _regress_current(result, slowdown: float) -> dict[str, float | None]:
    """The measured metric values the regression gate compares.

    ``slowdown`` > 1 synthetically degrades them (throughput divided,
    latencies multiplied) — the ``--self-test-slowdown`` proof that the
    gate actually fires. NaN (no completions) maps to None, which skips
    the metric.
    """

    def clean(value):
        return None if value is None or math.isnan(value) else value

    current = {
        "throughput": clean(result.throughput),
        "latency_mean": clean(result.latency.mean),
        "latency_p95": clean(result.latency.p95),
        "latency_p99": clean(result.latency.p99),
    }
    if slowdown != 1.0:
        for metric, value in current.items():
            if value is None:
                continue
            current[metric] = (
                value / slowdown if metric == "throughput" else value * slowdown
            )
    return current


def _regress_thresholds(args: argparse.Namespace) -> dict[str, float]:
    from repro.store import DEFAULT_THRESHOLDS
    from repro.store.queries import validate_metric

    thresholds = dict(DEFAULT_THRESHOLDS)
    for metric, fraction in args.thresholds:
        thresholds[validate_metric(metric)] = fraction
    return thresholds


def _cmd_regress(args: argparse.Namespace) -> int:
    """Run the configured experiment and gate it on the stored baseline."""
    from repro.store import (
        ResultStore,
        compare_to_baseline,
        format_regression,
        slot_id_of,
    )

    thresholds = _regress_thresholds(args)
    config = _config_from(args, ir=args.ir)
    result = run_experiment(config, seed=args.seed)
    current = _regress_current(result, args.self_test_slowdown)
    slot = slot_id_of(config.canonical_dict(), args.seed)
    # Recording the degraded self-test values would poison the baseline.
    may_record = args.self_test_slowdown == 1.0 and not args.no_record
    with ResultStore(_store_path(args.db)) as store:
        verdict = compare_to_baseline(
            store, slot, config.label(), current, thresholds
        )
        print(format_regression(verdict))
        if not verdict.has_baseline:
            if may_record:
                store.record_result(result, seed=args.seed, kind="run")
            return 0
        if verdict.ok:
            if may_record:
                store.record_result(result, seed=args.seed, kind="run")
                print(f"pass: recorded as the new baseline in {store.path}")
            return 0
        if args.record_anyway and may_record:
            store.record_result(result, seed=args.seed, kind="run")
            print(
                "REGRESSION recorded anyway (--record-anyway): this run is "
                "now the baseline"
            )
            return 0
    regressed = ", ".join(d.metric for d in verdict.regressed)
    print(f"REGRESSION in {regressed} — run not recorded", file=sys.stderr)
    return 1


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, format_pareto, pareto_frontier

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        points = pareto_frontier(
            store, _history_filter(args), latency_metric=args.latency_metric
        )
    if args.as_json:
        print(
            json.dumps(
                [
                    {
                        "run_id": p.run_id,
                        "slot_id": p.slot_id,
                        "label": p.label,
                        "seed": p.seed,
                        "latency": p.latency,
                        "throughput": p.throughput,
                        "cost": p.cost,
                        "on_frontier": p.on_frontier,
                    }
                    for p in points
                ],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            format_pareto(
                points,
                title=f"latency/throughput/cost frontier ({path})",
            )
        )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print(format_table(["kind", "names"], [
        ("stream processors", ", ".join(SPS_NAMES)),
        ("serving tools", ", ".join(SERVING_TOOLS)),
        ("models", ", ".join(MODEL_NAMES)),
    ]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crayfish",
        description="Crayfish reproduction: benchmark ML inference in "
        "simulated stream processing systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser(
        "run",
        help="one experiment, optionally traced, scraped, faulted or "
        "clustered",
    )
    _add_sut_args(run_cmd)
    run_cmd.add_argument("--ir", type=float, default=None, help="input rate; omit to saturate")
    tracing = run_cmd.add_argument_group("tracing (on with --trace)")
    tracing.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace records and write the Chrome trace_event export here",
    )
    tracing.add_argument(
        "--trace-csv", default=None, dest="trace_csv", metavar="PATH",
        help="also write spans as CSV to this path",
    )
    tracing.add_argument(
        "--sample-every", type=int, default=1, dest="sample_every",
        help="trace every Nth record (head-based sampling)",
    )
    tracing.add_argument(
        "--max-traces", type=int, default=4096, dest="max_traces",
        help="hard cap on admitted traces (bounds memory)",
    )
    telemetry = run_cmd.add_argument_group("telemetry (on with --metrics)")
    telemetry.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="scrape whole-system telemetry and write the OpenMetrics text "
        "exposition here",
    )
    telemetry.add_argument(
        "--metrics-jsonl", default=None, dest="metrics_jsonl", metavar="PATH",
        help="also write the scraped timeline as JSONL to this path",
    )
    telemetry.add_argument(
        "--scrape-interval", type=float, default=0.05, dest="scrape_interval",
        help="simulated seconds between scrapes",
    )
    _add_fault_args(run_cmd.add_argument_group("faults (on with --fault)"))
    cluster = run_cmd.add_argument_group("cluster (on with --nodes)")
    _add_cluster_shape_args(cluster, nodes=0)
    _add_population_args(cluster)
    cluster.add_argument(
        "--placement", action="store_true",
        help="also print the node placement plan",
    )
    _add_store_args(run_cmd)
    run_cmd.set_defaults(func=_cmd_run)

    sweep_cmd = commands.add_parser("sweep", help="sweep one config field")
    _add_sut_args(sweep_cmd)
    sweep_cmd.add_argument("--ir", type=float, default=None)
    sweep_cmd.add_argument("--field", default="mp", help="config field to sweep")
    sweep_cmd.add_argument(
        "--values", default="1,2,4,8,16", type=_separated(int, "INT[,INT...]"),
        help="comma-separated integer values",
    )
    _add_matrix_exec_args(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    matrix_cmd = commands.add_parser(
        "matrix",
        help="run a full experiment matrix: parallel workers + results store "
        "as result cache",
    )
    matrix_cmd.add_argument(
        "--preset", default="smoke",
        choices=(
            "latency", "throughput", "scalability", "burst-recovery",
            "scaleout", "capacity-search", "smoke",
        ),
        help="paper grid to reproduce",
    )
    matrix_cmd.add_argument(
        "--list", action="store_true", dest="list_presets",
        help="describe the available presets and exit",
    )
    matrix_cmd.add_argument(
        "--seeds", default=None, type=_separated(_non_negative_int, "SEED[,SEED...]"),
        help="comma-separated seed list overriding the preset's seeds",
    )
    matrix_cmd.add_argument(
        "--duration", type=float, default=None,
        help="override the preset's simulated duration (seconds)",
    )
    matrix_cmd.add_argument(
        "--jsonl", default=None,
        help="write full result records as JSON Lines to this path",
    )
    matrix_cmd.add_argument(
        "--csv", default=None, help="write a flat result CSV to this path"
    )
    matrix_cmd.add_argument(
        "--json", default=None, dest="json_path",
        help="also write the result(s) as JSON to this path",
    )
    _add_matrix_exec_args(matrix_cmd)
    matrix_cmd.set_defaults(func=_cmd_matrix)

    lat_cmd = commands.add_parser("latency", help="closed-loop latency")
    _add_sut_args(lat_cmd)
    lat_cmd.add_argument("--ir", type=float, default=1.0)
    lat_cmd.set_defaults(func=_cmd_latency)

    burst_cmd = commands.add_parser("bursts", help="periodic-burst scenario")
    _add_sut_args(burst_cmd)
    burst_cmd.add_argument("--bd", type=float, default=3.0, help="burst duration (s)")
    burst_cmd.add_argument("--tbb", type=float, default=12.0, help="time between bursts (s)")
    burst_cmd.add_argument("--bursts", type=int, default=3)
    burst_cmd.set_defaults(func=_cmd_bursts)

    cluster_cmd = commands.add_parser(
        "cluster",
        help="multi-node sustainable-capacity search (single clustered "
        "runs: run --nodes N)",
    )
    cluster_sub = cluster_cmd.add_subparsers(
        dest="cluster_command", required=True
    )

    cluster_cap = cluster_sub.add_parser(
        "capacity-search",
        help="binary-search max sustainable events/s per deployment size "
        "against an SLO (Theodolite-style)",
    )
    _add_sut_args(cluster_cap)
    _add_cluster_shape_args(cluster_cap, nodes=2)
    cluster_cap.add_argument(
        "--node-counts", default="1,2,4", dest="node_counts",
        type=_separated(int, "N[,N...]"),
        help="comma-separated deployment sizes to search",
    )
    cluster_cap.add_argument(
        "--slo-p95", type=float, default=1.0, dest="slo_p95",
        help="SLO: p95 end-to-end latency bound (seconds)",
    )
    cluster_cap.add_argument(
        "--min-goodput", type=float, default=0.9, dest="min_goodput",
        help="SLO: completed/offered throughput floor in (0, 1]",
    )
    cluster_cap.add_argument(
        "--start-rate", type=float, default=50.0, dest="start_rate",
        help="first probed rate (events/s); doubles until the SLO breaks",
    )
    cluster_cap.add_argument(
        "--tolerance", type=float, default=0.1,
        help="stop when the bracket's relative width drops under this",
    )
    cluster_cap.add_argument(
        "--max-probes", type=int, default=24, dest="max_probes",
        help="probe budget per deployment size",
    )
    cluster_cap.add_argument(
        "--seeds", default="0,1", type=_separated(_non_negative_int, "SEED[,SEED...]"),
        help="comma-separated seeds averaged per probe",
    )
    cluster_cap.add_argument(
        "--verbose", action="store_true",
        help="print every probe, not just per-size results",
    )
    _add_matrix_exec_args(cluster_cap)
    cluster_cap.set_defaults(func=_cmd_cluster_capacity)

    lint_cmd = commands.add_parser(
        "lint", help="determinism & simulation-safety linter"
    )
    lint_cmd.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_cmd.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report format",
    )
    lint_cmd.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help="run only these rules",
    )
    lint_cmd.add_argument(
        "--ignore", default=None, metavar="RULE[,RULE...]",
        help="run every rule except these",
    )
    lint_cmd.add_argument(
        "--show-suppressed", action="store_true", dest="show_suppressed",
        help="also list findings silenced by pragmas",
    )
    lint_cmd.add_argument(
        "--list-suppressions", action="store_true", dest="list_suppressions",
        help="print the suppression inventory instead of findings",
    )
    lint_cmd.add_argument(
        "--check-suppressions", action="store_true", dest="check_suppressions",
        help="diff the committed suppression inventory against a fresh "
        "one; on staleness print the unified diff and the regeneration "
        "command",
    )
    lint_cmd.add_argument(
        "--suppressions-file", default="SUPPRESSIONS.md",
        dest="suppressions_file", metavar="PATH",
        help="inventory checked by --check-suppressions",
    )
    lint_cmd.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint_cmd.set_defaults(func=_cmd_lint)

    order_cmd = commands.add_parser(
        "verify-order",
        help="determinism and schedule-perturbation proof: re-run each "
        "engine, sanitized, once unperturbed, then under seeded "
        "permutations of event-tie pop order, byte-diff all exports, and "
        "name the conflicting sites when a permutation diverges",
    )
    order_cmd.add_argument(
        "--sps", default="all", choices=SPS_NAMES + ("all",),
        help="engine to check, or all four",
    )
    order_cmd.add_argument("--serving", default="onnx", choices=SERVING_TOOLS)
    order_cmd.add_argument("--model", default="ffnn", choices=MODEL_NAMES)
    order_cmd.add_argument("--bsz", type=int, default=1)
    order_cmd.add_argument("--mp", type=int, default=1)
    order_cmd.add_argument("--seed", type=_non_negative_int, default=0)
    order_cmd.add_argument(
        "--ir", type=float, default=50.0, help="input rate (events/s)"
    )
    order_cmd.add_argument(
        "--duration", type=float, default=2.0, help="simulated seconds"
    )
    order_cmd.add_argument(
        "--nodes", type=int, default=0,
        help="also cluster the scenario over this many simulated nodes "
        "(0 = single-node, no cluster layer)",
    )
    order_cmd.add_argument(
        "--permutations", type=_non_negative_int, default=3,
        help="seeded tie-permutation runs per engine after the unperturbed "
        "repeat (0: the dual-run determinism check alone)",
    )
    order_cmd.set_defaults(func=_cmd_verify_order)

    store_cmd = commands.add_parser(
        "store", help="results database maintenance (info)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="schema version, provenance stamps, and row counts"
    )
    _add_db_arg(store_info)
    store_info.set_defaults(func=_cmd_store_info)

    history_cmd = commands.add_parser(
        "history", help="stored run history, newest first"
    )
    _add_filter_args(history_cmd)
    history_cmd.set_defaults(func=_cmd_history)

    trend_cmd = commands.add_parser(
        "trend",
        help="per-configuration metric trajectories across revisions",
    )
    _add_filter_args(trend_cmd)
    trend_cmd.add_argument(
        "--metric", default="throughput",
        help="metric to trend: throughput, latency_mean, latency_p50/p95/"
        "p99/p999, completed, cost_proxy",
    )
    trend_cmd.add_argument(
        "--min-points", type=int, default=2, dest="min_points",
        help="hide slots with fewer recordings than this",
    )
    trend_cmd.set_defaults(func=_cmd_trend)

    regress_cmd = commands.add_parser(
        "regress",
        help="run one experiment and gate it against the stored baseline "
        "(exit 1 on regression — the CI gate)",
    )
    _add_sut_args(regress_cmd)
    regress_cmd.add_argument(
        "--ir", type=float, default=None, help="input rate; omit to saturate"
    )
    _add_db_arg(regress_cmd)
    regress_cmd.add_argument(
        "--threshold", action="append", default=[], dest="thresholds",
        metavar="METRIC=FRACTION", type=_threshold,
        help="override a relative threshold, e.g. throughput=0.10 "
        "(repeatable)",
    )
    regress_cmd.add_argument(
        "--self-test-slowdown", type=float, default=1.0,
        dest="self_test_slowdown", metavar="FACTOR",
        help="synthetically degrade the measured metrics by FACTOR to "
        "prove the gate fires (the degraded run is never recorded)",
    )
    regress_cmd.add_argument(
        "--no-record", action="store_true", dest="no_record",
        help="compare only; never record this run into the store",
    )
    regress_cmd.add_argument(
        "--record-anyway", action="store_true", dest="record_anyway",
        help="record the run as the new baseline even if it regressed "
        "(bless an intentional change)",
    )
    regress_cmd.set_defaults(func=_cmd_regress)

    pareto_cmd = commands.add_parser(
        "pareto",
        help="latency/throughput/cost frontier over stored configurations",
    )
    _add_filter_args(pareto_cmd)
    pareto_cmd.add_argument(
        "--latency-metric", default="latency_p95", dest="latency_metric",
        choices=(
            "latency_mean", "latency_p50", "latency_p95",
            "latency_p99", "latency_p999",
        ),
        help="which latency percentile forms the latency axis",
    )
    pareto_cmd.set_defaults(func=_cmd_pareto)

    list_cmd = commands.add_parser("list", help="registered components")
    list_cmd.set_defaults(func=_cmd_list)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
