"""Command-line interface: run single experiments, grids and checks.

``crayfish run`` is the one single-experiment command: one
:class:`~repro.config.ExperimentConfig` built from flags, plus the
instruments asked for (``--trace``, ``--metrics``, ``--fault``,
``--nodes``). ``--workload`` picks the paper's scenario (§4.1): open
loop (the default), closed loop, or periodic bursts, which also reports
each burst's recovery. ``sweep``, ``matrix`` and ``cluster
capacity-search`` run grids through the results store, which doubles
as their cache; ``store info`` describes it. Examples::

    crayfish run --sps flink --serving onnx --model ffnn
    crayfish run --sps kafka_streams --serving tf_serving --mp 8
    crayfish run --workload closed_loop --ir 1 --bsz 128
    crayfish run --workload periodic_bursts --ir 100 --bd 3 --tbb 12 --duration 40
    crayfish run --ir 50 --trace trace.json --metrics metrics.txt
    crayfish run --serving tf_serving --ir 100 --fault server-crash --at 2
    crayfish run --nodes 2 --placement
    crayfish matrix --preset latency
    crayfish verify-order --permutations 0
    crayfish list
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import typing

from repro import calibration  # noqa: F401 - ensures constants import cleanly
from repro import knobs
from repro.cluster.spec import ClusterSpec, FlashCrowd, PopulationSpec
from repro.config import ExperimentConfig, SERVING_TOOLS, SPS_NAMES, WorkloadKind
from repro.core.report import format_ms, format_rate, format_table
from repro.core.runner import ExperimentRunner
from repro.errors import ConfigError
from repro.nn.zoo.registry import available_models


#: The system-under-test knobs ``run``, ``sweep`` and ``cluster
#: capacity-search`` map onto flags.
_SUT = (
    "sps", "serving", "model", "bsz", "mp", "gpu", "seed", "duration",
    "async_io", "server_workers",
)


def _cli_knobs(cls: type) -> dict[str, knobs.Knob]:
    """The knobs of ``cls`` the CLI maps one-to-one: those with help."""
    return {
        name: spec for name, spec in knobs.of(cls).items() if spec.domain.help
    }


def _in_domain(spec: knobs.Knob) -> typing.Callable[[str], typing.Any]:
    """An argparse ``type=`` that checks ``spec``'s domain as it parses.

    A value outside it fails at parse time: argparse names the flag,
    echoes the value and exits 2.
    """

    def parse(text: str) -> typing.Any:
        try:
            value = spec.kind(text)
            spec.check(value)
        except (ValueError, ConfigError):
            raise argparse.ArgumentTypeError(
                f"wants {spec.describe()}, got {text!r}"
            ) from None
        return value

    return parse


#: Seeds are checked as they are parsed, because ``--seeds`` lists reach
#: the runner without passing through a config; ``--seed`` and the
#: ``--permutations`` count (the same domain) share the check.
_seed_arg = _in_domain(knobs.of(ExperimentConfig)["seed"])


def _add_knob_args(
    parser, cls: type, names: typing.Sequence[str] | None = None
) -> None:
    """One ``--field-name`` flag per named knob of ``cls`` (default: all
    it maps).

    Default, choices and help come from the field's declaration; a
    command whose default differs sets it with ``parser.set_defaults``.
    Values are checked when the config is built.
    """
    specs = _cli_knobs(cls)
    for name in names or specs:
        spec = specs[name]
        flag = "--" + name.replace("_", "-")
        if spec.kind is bool:
            parser.add_argument(flag, action="store_true", help=spec.domain.help)
            continue
        kind, default, choices = spec.kind, spec.default, spec.choices()
        if spec.is_enum:  # the flag takes values; _fields makes members
            kind, default, choices = str, default.value, [c.value for c in choices]
        parser.add_argument(
            flag,
            type=_seed_arg if name == "seed" else kind,
            default=default,
            choices=choices,
            help=spec.domain.help,
        )


def _fields(args: argparse.Namespace, cls: type) -> dict[str, typing.Any]:
    """The values ``args`` holds for ``cls``'s flags.

    A flag the command lacks, or one left at None, keeps the field's
    default; enum values become members.
    """
    return {
        name: spec.read(getattr(args, name))
        for name, spec in _cli_knobs(cls).items()
        if getattr(args, name, None) is not None
    }


def _add_sut_args(parser: argparse.ArgumentParser) -> None:
    _add_knob_args(parser, ExperimentConfig, _SUT)
    parser.add_argument(
        "--json", default=None, dest="json_path",
        help="also write the result(s) as JSON to this path",
    )
    parser.set_defaults(duration=5.0)


def _config_from(args: argparse.Namespace, **extra: typing.Any) -> ExperimentConfig:
    return ExperimentConfig(**{**_fields(args, ExperimentConfig), **extra})


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
    if config.workload is not WorkloadKind.OPEN_LOOP:
        title += f" {config.workload.value}"
    if config.workload is WorkloadKind.PERIODIC_BURSTS:
        rows.extend(_burst_rows(result))
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


def _burst_rows(result) -> list[tuple[str, str]]:
    """The periodic-bursts rows: recovery and peak latency per burst."""
    from repro.core.scenarios import burst_reports

    rows = []
    for number, report in enumerate(burst_reports(result), start=1):
        when = report.recovery_time
        recovered = "not recovered" if when is None else f"{when:.2f}s"
        rows.append((
            f"burst {number} @ {report.burst_start:.0f}s",
            f"recovery {recovered}, "
            f"peak latency {format_ms(report.peak_latency)} ms",
        ))
    if not rows:
        rows.append(("bursts", "none analysed: raise --duration past 1.5 x --tbb"))
    return rows


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


def _record_results(store, results, kind: str) -> None:
    """Record finished results and say where they went; closes the store."""
    if store is None:
        return
    with store:
        for result in results:
            store.record_result(result, kind=kind)
    noun = "run" if len(results) == 1 else "runs"
    print(f"recorded {len(results)} {noun} into {store.path}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.matrix import run_matrix

    base = _config_from(args)
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


def _add_cluster_shape_args(parser) -> None:
    """Deployment-shape knobs shared by ``run``/``capacity-search``."""
    _add_knob_args(parser, ClusterSpec)
    _add_knob_args(parser, ExperimentConfig, ("partitions",))
    parser.set_defaults(partitions=None)


def _add_population_args(parser: argparse.ArgumentParser) -> None:
    """Population-workload knobs for ``run``."""
    _add_knob_args(parser, PopulationSpec)
    parser.set_defaults(users=0)
    parser.add_argument(
        "--flash-crowd", action="append", default=[], dest="flash_crowds",
        metavar="AT:DURATION:MULTIPLIER",
        type=_separated(float, "AT:DURATION:MULTIPLIER", sep=":", arity=3),
        help="layer a flash-crowd burst on top (repeatable)",
    )


def _population_from_args(args: argparse.Namespace) -> PopulationSpec | None:
    """The population ``--users N`` sets; None when N is 0."""
    if not args.users:
        return None
    crowds = [
        FlashCrowd(at=at, duration=duration, multiplier=multiplier)
        for at, duration, multiplier in args.flash_crowds
    ]
    return PopulationSpec(
        **_fields(args, PopulationSpec),
        flash_crowds=tuple(sorted(crowds, key=lambda c: c.at)),
    )


def _cluster_fields(args: argparse.Namespace) -> dict[str, typing.Any]:
    """The config fields ``--nodes N`` sets; none when N is 0.

    Without ``--partitions``, partitions default to at least one per
    source task slot.
    """
    if not args.nodes:
        return {}
    spec = ClusterSpec(**_fields(args, ClusterSpec))
    fields: dict[str, typing.Any] = {"cluster": spec, "use_broker": True}
    if getattr(args, "partitions", None) is None:
        per_node = spec.tasks_per_node if spec.tasks_per_node else args.mp
        fields["partitions"] = max(32, per_node * spec.nodes)
    return fields


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
        fields.update(population=population, ir=None)  # --ir is ignored
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

    config = _config_from(args, **_cluster_fields(args))
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

    config = _config_from(args, sps=SPS_NAMES[0], **_cluster_fields(args))
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

    path = _store_path(args.db)
    if not os.path.exists(path):
        print(
            f"error: no results database at {path} — record runs into one "
            "with run --store, sweep, matrix or cluster capacity-search",
            file=sys.stderr,
        )
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


def _cmd_list(args: argparse.Namespace) -> int:
    print(format_table(["kind", "names"], [
        ("stream processors", ", ".join(SPS_NAMES)),
        ("serving tools", ", ".join(SERVING_TOOLS)),
        ("models", ", ".join(available_models())),
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
        help="one experiment under any §4.1 workload, optionally traced, "
        "scraped, faulted or clustered",
    )
    _add_sut_args(run_cmd)
    _add_knob_args(run_cmd, ExperimentConfig, ("ir", "workload", "bd", "tbb"))
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
    _add_cluster_shape_args(cluster)
    _add_population_args(cluster)
    cluster.add_argument(
        "--placement", action="store_true",
        help="also print the node placement plan",
    )
    _add_store_args(run_cmd)
    run_cmd.set_defaults(func=_cmd_run, nodes=0)

    sweep_cmd = commands.add_parser("sweep", help="sweep one config field")
    _add_sut_args(sweep_cmd)
    _add_knob_args(sweep_cmd, ExperimentConfig, ("ir",))
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
        "--seeds", default=None, type=_separated(_seed_arg, "SEED[,SEED...]"),
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
    _add_cluster_shape_args(cluster_cap)
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
        "--seeds", default="0,1", type=_separated(_seed_arg, "SEED[,SEED...]"),
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
    _add_knob_args(
        order_cmd,
        ExperimentConfig,
        ("serving", "model", "bsz", "mp", "seed", "ir", "duration"),
    )
    _add_knob_args(order_cmd, ClusterSpec, ("nodes",))
    order_cmd.add_argument(
        "--permutations", type=_seed_arg, default=3,
        help="seeded tie-permutation runs per engine after the unperturbed "
        "repeat (0: the dual-run determinism check alone)",
    )
    order_cmd.set_defaults(func=_cmd_verify_order, ir=50.0, duration=2.0, nodes=0)

    store_cmd = commands.add_parser(
        "store", help="results database maintenance (info)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="schema version, provenance stamps, and row counts"
    )
    store_info.add_argument(
        "--db", default=None,
        help="results database path "
        "(default: $CRAYFISH_STORE or .crayfish-store.sqlite)",
    )
    store_info.set_defaults(func=_cmd_store_info)

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
