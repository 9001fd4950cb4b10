"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.config import ExperimentConfig
from repro.core.report import format_ms
from repro.core.scenarios import measure_sustainable_throughput, run_burst_scenario


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "flink" in out
    assert "tf_serving" in out
    assert "resnet50" in out


def test_run_command(capsys):
    code = main(["run", "--sps", "flink", "--serving", "onnx", "--duration", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "flink/onnx/ffnn" in out


def test_latency_command(capsys):
    """The closed-loop scenario is ``run --workload closed_loop``."""
    code = main(
        [
            "run", "--workload", "closed_loop", "--ir", "1",
            "--sps", "flink", "--serving", "onnx", "--bsz", "8",
            "--duration", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flink/onnx/ffnn closed_loop" in out
    assert "mean latency (ms)" in out


def test_bursts_command(capsys):
    """The periodic-burst scenario is ``run --workload periodic_bursts``."""
    code = main(
        [
            "run", "--workload", "periodic_bursts", "--ir", "100",
            "--sps", "flink", "--serving", "onnx",
            "--bd", "1", "--tbb", "3", "--duration", "7",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flink/onnx/ffnn periodic_bursts" in out
    assert "burst 1 @ 3s" in out
    assert "burst 2" not in out  # starts at 7s: outside the run


def test_run_periodic_bursts_matches_burst_scenario(capsys):
    """``run`` and ``run_burst_scenario`` share one per-burst analysis:
    same config, rate and seed give the same recoveries and peaks."""
    config = ExperimentConfig(
        sps="flink", serving="onnx", model="ffnn", bd=1.0, tbb=3.0,
        duration=2.0, seed=2,
    )
    rate = measure_sustainable_throughput(config, seeds=(2,)).mean
    scenario = run_burst_scenario(config, rate, bursts=2, seed=2)
    horizon = scenario.result.config.duration
    assert main(
        [
            "run", "--workload", "periodic_bursts", "--ir", repr(rate),
            "--bd", "1", "--tbb", "3", "--duration", repr(horizon),
            "--seed", "2",
        ]
    ) == 0
    reported = re.findall(
        r"burst (\d+) @ (\d+)s +recovery (\S+(?: recovered)?), "
        r"peak latency (\S+) ms",
        capsys.readouterr().out,
    )
    expected = [
        (
            str(number),
            f"{report.burst_start:.0f}",
            "not recovered"
            if report.recovery_time is None
            else f"{report.recovery_time:.2f}s",
            format_ms(report.peak_latency),
        )
        for number, report in enumerate(scenario.reports, start=1)
    ]
    assert len(expected) == 2
    assert reported == expected


def test_sweep_command(tmp_path, capsys):
    code = main(
        [
            "sweep", "--sps", "flink", "--serving", "onnx",
            "--duration", "1", "--field", "mp", "--values", "1,2",
            "--store", str(tmp_path / "store.sqlite"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep over mp" in out
    assert "events/s" in out


def test_sweep_command_unknown_field_is_friendly(tmp_path, capsys):
    code = main(
        [
            "sweep", "--duration", "1", "--field", "batch_size",
            "--values", "1,2", "--store", str(tmp_path / "store.sqlite"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown sweep field(s) 'batch_size'" in err


def test_sweep_command_uses_cache(tmp_path, capsys):
    argv = [
        "sweep", "--duration", "1", "--field", "mp", "--values", "1,2",
        "--store", str(tmp_path / "store.sqlite"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "4 executed, 0 from cache" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 executed, 4 from cache" in second
    # The tables themselves are identical, cached or not.
    assert first.split("tasks:")[0] == second.split("tasks:")[0]


def test_matrix_command_list(capsys):
    assert main(["matrix", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("latency", "throughput", "scalability", "burst-recovery", "smoke"):
        assert name in out


def test_matrix_command_smoke_cold_then_cached(tmp_path, capsys):
    store = str(tmp_path / "store.sqlite")
    jsonl_a = str(tmp_path / "a.jsonl")
    jsonl_b = str(tmp_path / "b.jsonl")
    argv = ["matrix", "--preset", "smoke", "--jobs", "2", "--store", store]

    assert main(argv + ["--jsonl", jsonl_a]) == 0
    cold = capsys.readouterr().out
    assert "2 executed, 0 from cache" in cold
    assert "recorded 2 new run(s)" in cold

    assert main(argv + ["--jsonl", jsonl_b]) == 0
    warm = capsys.readouterr().out
    assert "0 executed, 2 from cache" in warm
    assert "recorded 0 new run(s)" in warm

    with open(jsonl_a, "rb") as a, open(jsonl_b, "rb") as b:
        assert a.read() == b.read()


def test_matrix_command_exports(tmp_path, capsys):
    json_path = str(tmp_path / "out.json")
    csv_path = str(tmp_path / "out.csv")
    code = main(
        [
            "matrix", "--preset", "smoke",
            "--store", str(tmp_path / "store.sqlite"),
            "--duration", "0.5", "--json", json_path, "--csv", csv_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "matrix preset 'smoke'" in out
    import json as json_module

    with open(json_path) as handle:
        records = json_module.load(handle)
    assert len(records) == 2
    with open(csv_path) as handle:
        assert len(handle.readlines()) == 3  # header + 2 rows


def test_json_export(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code = main(["run", "--duration", "1", "--json", path])
    assert code == 0
    import json

    with open(path) as handle:
        records = json.load(handle)
    assert records[0]["config"]["sps"] == "flink"
    assert records[0]["throughput"] > 0


def test_async_io_flag(capsys):
    code = main(
        [
            "run", "--serving", "tf_serving", "--duration", "1",
            "--async-io", "8", "--server-workers", "4",
        ]
    )
    assert code == 0
    assert "throughput" in capsys.readouterr().out


def test_trace_command(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.json")
    csv_path = str(tmp_path / "spans.csv")
    code = main(
        [
            "run", "--sps", "flink", "--serving", "onnx",
            "--ir", "50", "--duration", "2",
            "--trace", trace_path, "--trace-csv", csv_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Latency breakdown" in out
    assert "bottleneck ranking" in out
    assert "Chrome trace written" in out

    from repro.tracing.export import load_chrome_trace

    data = load_chrome_trace(trace_path)
    assert any(e.get("ph") == "X" for e in data["traceEvents"])
    with open(csv_path) as handle:
        header = handle.readline().strip()
    assert header == "trace_id,span_id,parent_id,name,start,end,duration"


def test_trace_command_sampling(capsys, tmp_path):
    code = main(
        [
            "run", "--ir", "50", "--duration", "2",
            "--sample-every", "10", "--max-traces", "5",
            "--trace", str(tmp_path / "t.json"),
        ]
    )
    assert code == 0
    assert "traced 5 records" in capsys.readouterr().out


def test_metrics_command(tmp_path, capsys):
    om_path = tmp_path / "nested" / "metrics.txt"
    jsonl_path = tmp_path / "timeline.jsonl"
    code = main(
        [
            "run", "--sps", "flink", "--serving", "onnx",
            "--duration", "1", "--scrape-interval", "0.1",
            "--metrics", str(om_path), "--metrics-jsonl", str(jsonl_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "scrapes" in out
    assert "-- broker" in out
    assert "backpressure & lag summary:" in out
    assert "OpenMetrics exposition written" in out
    # The shared export helper creates missing parent directories.
    assert om_path.exists()

    from repro.metrics.export import load_metrics_jsonl, parse_openmetrics

    families = parse_openmetrics(om_path.read_text())
    assert "crayfish_broker_consumer_lag" in families
    assert "crayfish_pipeline_latency_seconds" in families
    assert load_metrics_jsonl(str(jsonl_path))


def test_chaos_command(capsys):
    code = main(
        [
            "run", "--sps", "flink", "--serving", "tf_serving",
            "--ir", "100", "--duration", "4",
            "--fault", "server-crash", "--at", "2", "--fault-duration", "0.3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos: server-crash @ 2.0s" in out
    assert "goodput ratio" in out
    assert "faults injected" in out


def test_chaos_engine_crash_command(capsys):
    code = main(
        [
            "run", "--sps", "kafka_streams", "--serving", "onnx",
            "--ir", "100", "--duration", "4",
            "--fault", "engine-crash", "--at", "2", "--fault-duration", "0.3",
            "--checkpoint-interval", "0.5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos: engine-crash" in out
    assert "engine restarts / checkpoints" in out


def test_chaos_requires_external_serving(capsys):
    code = main(
        [
            "run", "--sps", "flink", "--serving", "onnx",
            "--fault", "server-crash",
        ]
    )
    assert code == 2
    assert "faults target external serving" in capsys.readouterr().err


def _exit_code(argv):
    """``main``'s exit code, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--mp", "0"], "mp must be >= 1, got 0"),
        (
            ["run", "--serving", "onnx", "--fault", "server-crash"],
            "faults target external serving",
        ),
        (
            ["run", "--users", "10", "--flash-crowd", "a:0.2:3"],
            "--flash-crowd: wants AT:DURATION:MULTIPLIER, got 'a:0.2:3'",
        ),
        (["sweep", "--values", "1,x"], "--values: wants INT[,INT...], got '1,x'"),
        (["matrix", "--seeds", "0,x"], "--seeds: wants SEED[,SEED...], got '0,x'"),
        (
            ["run", "--workload", "closed_loop"],
            "closed-loop workloads need an input rate ir",
        ),
        (
            ["verify-order", "--permutations", "-1"],
            "--permutations: wants an integer >= 0, got '-1'",
        ),
        (["matrix", "--seeds", "0,-1"], "--seeds: wants SEED[,SEED...], got '0,-1'"),
        (
            ["cluster", "capacity-search", "--seeds", "-2"],
            "--seeds: wants SEED[,SEED...], got '-2'",
        ),
        (["run", "--seed", "-1"], "--seed: wants an integer >= 0, got '-1'"),
        (
            ["verify-order", "--seed", "-1"],
            "--seed: wants an integer >= 0, got '-1'",
        ),
        (["run", "--sanitize"], "unrecognized arguments: --sanitize"),
        (["run", "--tie-track"], "unrecognized arguments: --tie-track"),
        (["lint", "--only", "x"], "unrecognized arguments: --only"),
        (
            ["run", "--workload", "periodic_bursts"],
            "periodic-burst workloads need a base input rate ir",
        ),
    ],
)
def test_bad_input_exits_two_with_message(argv, message, capsys):
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err


def test_instruments_leave_results_untouched(tmp_path, capsys):
    """Tracing and telemetry are observational: a clustered run with both
    on writes the same results JSON as the plain run."""
    base = ["run", "--nodes", "2", "--ir", "50", "--duration", "1"]
    instrumented = tmp_path / "a.json"
    plain = tmp_path / "b.json"
    assert main(
        base + [
            "--trace", str(tmp_path / "t.json"),
            "--metrics", str(tmp_path / "m.txt"),
            "--json", str(instrumented),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Chrome trace written" in out
    assert "OpenMetrics exposition written" in out
    assert main(base + ["--json", str(plain)]) == 0
    assert instrumented.read_bytes() == plain.read_bytes()


def test_invalid_choice_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--sps", "storm"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.fixture
def linted_source_tree(monkeypatch, source_tree_reports):
    """``crayfish lint src`` reads the session's one lint of ``src/``
    (rendering and exit codes still run)."""
    from repro.analysis import core

    lint_paths = core.lint_paths

    def cached(paths, rules=None):
        if list(paths) == ["src"]:
            return source_tree_reports
        return lint_paths(paths, rules)

    monkeypatch.setattr(core, "lint_paths", cached)


def test_lint_command_clean_tree(capsys, linted_source_tree):
    code = main(["lint", "src"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_command_finds_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    code = main(["lint", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "1 finding(s)" in out


def test_lint_command_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    code = main(["lint", str(bad), "--format", "json"])
    assert code == 1
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 1
    assert payload["findings"][0]["rule"] == "mutable-default"


def test_lint_command_only_subset(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\nh = hash('x')\n")
    code = main(["lint", str(bad), "--select", "hash-randomization"])
    assert code == 1
    out = capsys.readouterr().out
    assert "hash-randomization" in out
    assert "wall-clock" not in out


def test_lint_command_rule_catalogue(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("wall-clock", "global-random", "silent-except"):
        assert rule in out


def test_lint_command_list_suppressions(capsys, linted_source_tree):
    code = main(["lint", "src", "--list-suppressions"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# Determinism lint suppressions" in out
    assert "src/repro/simul/rng.py" in out


def test_lint_command_missing_path(capsys):
    assert main(["lint", "no/such/dir"]) == 2


def test_lint_command_select_clean_subset_exit_zero(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(bad), "--select", "hash-randomization"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_command_ignore_drops_rule(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\nh = hash('x')\n")
    code = main(["lint", str(bad), "--ignore", "wall-clock"])
    assert code == 1
    out = capsys.readouterr().out
    assert "hash-randomization" in out
    assert "wall-clock" not in out
    assert main(["lint", str(bad), "--ignore", "wall-clock,hash-randomization"]) == 0


def test_lint_command_unknown_rule_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1\n")
    assert main(["lint", str(bad), "--select", "no-such-rule"]) == 2
    assert "no-such-rule" in capsys.readouterr().err
    assert main(["lint", str(bad), "--ignore", "also-bogus"]) == 2
    assert "also-bogus" in capsys.readouterr().err


def test_lint_command_check_suppressions_fresh(tmp_path, capsys, monkeypatch):
    target = tmp_path / "mod.py"
    target.write_text(
        "import time\n"
        "t = time.time()  # crayfish: allow[wall-clock]: test boundary\n"
    )
    inventory = tmp_path / "SUPPRESSIONS.md"
    assert main(["lint", str(target), "--list-suppressions"]) == 0
    inventory.write_text(capsys.readouterr().out)
    code = main([
        "lint", str(target), "--check-suppressions",
        "--suppressions-file", str(inventory),
    ])
    assert code == 0
    assert "is fresh" in capsys.readouterr().out


def test_lint_command_check_suppressions_stale_prints_diff(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(
        "import time\n"
        "t = time.time()  # crayfish: allow[wall-clock]: test boundary\n"
    )
    inventory = tmp_path / "SUPPRESSIONS.md"
    inventory.write_text("# stale inventory\n")
    code = main([
        "lint", str(target), "--check-suppressions",
        "--suppressions-file", str(inventory),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "--- " in out and "+++ " in out  # unified diff headers
    assert "regenerate with" in out
    assert f"--list-suppressions {target} > {inventory}" in out


def test_verify_determinism_command(capsys):
    code = main(
        [
            "verify-order", "--sps", "flink", "--ir", "60", "--duration", "1",
            "--permutations", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
    assert "reproduce byte-identically" in out


def test_verify_order_command(capsys):
    code = main([
        "verify-order", "--sps", "flink", "--ir", "30",
        "--duration", "0.5", "--permutations", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "order-independent" in out
    assert "byte-identical across 1 perturbed schedule(s)" in out


def test_verify_order_separates_nondeterminism_from_hazards(
    monkeypatch, capsys
):
    """A diff on the unperturbed repeat is nondeterminism; a diff on a
    permutation only is an ordering hazard."""
    from repro.analysis import order

    calls = []

    def fake_fingerprints(config):
        calls.append(config.sps)
        run = calls.count(config.sps)  # 1 baseline, 2 repeat, 3 seed=1
        differs = {"flink": 2, "ray": 3}.get(config.sps) == run
        return {name: b"b" if differs else b"a" for name in order.ARTIFACTS}

    monkeypatch.setattr(order, "run_fingerprints", fake_fingerprints)
    assert main(["verify-order", "--permutations", "1"]) == 1
    out = capsys.readouterr().out
    assert "NONDETERMINISM DETECTED in: flink" in out
    assert "ORDERING HAZARD: exports depend on event-tie pop order in: ray" in out
    assert "repeat: results.json" in out
    assert "seed=1: results.json" in out
    # Each failure names its next step: the lint rules the sanitizer
    # cannot cover, and the tracker's rerun (here it watched no kernel).
    assert "the sanitizer saw no wall-clock or global-RNG call" in out
    assert "ray: tie tracker: 0 shared-state access(es) recorded" in out
    assert "the tracker saw no conflicting Resource/Store access" in out
    assert "run --tie-track" not in out
