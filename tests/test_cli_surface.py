"""The command-line surface, pinned option by option.

Every option of ``run``, ``sweep``, ``matrix``, ``cluster
capacity-search`` and ``verify-order``: its option string, ``dest``,
default and choices. Flags generated from the config dataclasses' field
declarations must come out exactly as these literals say, so a change to
a field's default or domain that would silently change a flag fails
here.
"""

import argparse

import pytest

from repro.cli import build_parser

SPS = ["flink", "kafka_streams", "spark_ss", "ray"]
SERVING = ["onnx", "dl4j", "savedmodel", "tf_serving", "torchserve", "ray_serve"]
MODELS = ["autoencoder", "efficientnet_b0", "ffnn", "gru", "mobilenet", "resnet50"]
FAULTS = ["server-crash", "partition", "network", "straggler", "engine-crash"]
PRESETS = [
    "latency", "throughput", "scalability", "burst-recovery", "scaleout",
    "capacity-search", "smoke",
]
WORKLOADS = ["open_loop", "closed_loop", "periodic_bursts"]

#: command -> option -> (dest, default, choices)
SURFACE = {
    "run": {
        "--async-io": ("async_io", 0, None),
        "--at": ("at", 2.0, None),
        "--backoff-base": ("backoff_base", 0.05, None),
        "--bd": ("bd", 30.0, None),
        "--bsz": ("bsz", 1, None),
        "--checkpoint-interval": ("checkpoint_interval", 0.5, None),
        "--cpus-per-node": ("cpus_per_node", 16, None),
        "--distribution": ("distribution", "zipf", ["zipf", "lognormal"]),
        "--diurnal-amplitude": ("diurnal_amplitude", 0.3, None),
        "--diurnal-period": ("diurnal_period", 86400.0, None),
        "--duration": ("duration", 5.0, None),
        "--error-rate": ("error_rate", 0.0, None),
        "--events-per-user-per-day": ("events_per_user_per_day", 50.0, None),
        "--extra-latency": ("extra_latency", 0.005, None),
        "--fault": ("fault", None, FAULTS),
        "--fault-duration": ("fault_duration", 0.5, None),
        "--flash-crowd": ("flash_crowds", [], None),
        "--gpu": ("gpu", False, None),
        "--ir": ("ir", None, None),
        "--json": ("json_path", None, None),
        "--max-traces": ("max_traces", 4096, None),
        "--metrics": ("metrics", None, None),
        "--metrics-jsonl": ("metrics_jsonl", None, None),
        "--model": ("model", "ffnn", MODELS),
        "--mp": ("mp", 1, None),
        "--no-resilience": ("no_resilience", False, None),
        "--nodes": ("nodes", 0, None),
        "--partitions": ("partitions", None, None),
        "--partitions-hit": ("partitions_hit", 32, None),
        "--placement": ("placement", False, None),
        "--racks": ("racks", 1, None),
        "--rate-scale": ("rate_scale", 1.0, None),
        "--replicas-per-node": ("replicas_per_node", 1, None),
        "--retries": ("retries", 5, None),
        "--sample-every": ("sample_every", 1, None),
        "--scrape-interval": ("scrape_interval", 0.05, None),
        "--seed": ("seed", 0, None),
        "--server-workers": ("server_workers", None, None),
        "--serving": ("serving", "onnx", SERVING),
        "--sigma": ("sigma", 1.0, None),
        "--slowdown": ("slowdown", 4.0, None),
        "--sps": ("sps", "flink", SPS),
        "--store": ("store_path", None, None),
        "--tasks-per-node": ("tasks_per_node", None, None),
        "--tbb": ("tbb", 120.0, None),
        "--timeout": ("timeout", None, None),
        "--trace": ("trace", None, None),
        "--trace-csv": ("trace_csv", None, None),
        "--users": ("users", 0, None),
        "--workload": ("workload", "open_loop", WORKLOADS),
        "--zipf-exponent": ("zipf_exponent", 1.1, None),
    },
    "sweep": {
        "--async-io": ("async_io", 0, None),
        "--bsz": ("bsz", 1, None),
        "--duration": ("duration", 5.0, None),
        "--field": ("field", "mp", None),
        "--gpu": ("gpu", False, None),
        "--ir": ("ir", None, None),
        "--jobs": ("jobs", 1, None),
        "--json": ("json_path", None, None),
        "--model": ("model", "ffnn", MODELS),
        "--mp": ("mp", 1, None),
        "--seed": ("seed", 0, None),
        "--server-workers": ("server_workers", None, None),
        "--serving": ("serving", "onnx", SERVING),
        "--sps": ("sps", "flink", SPS),
        "--store": ("store_path", None, None),
        "--values": ("values", "1,2,4,8,16", None),
    },
    "matrix": {
        "--csv": ("csv", None, None),
        "--duration": ("duration", None, None),
        "--jobs": ("jobs", 1, None),
        "--json": ("json_path", None, None),
        "--jsonl": ("jsonl", None, None),
        "--list": ("list_presets", False, None),
        "--preset": ("preset", "smoke", PRESETS),
        "--seeds": ("seeds", None, None),
        "--store": ("store_path", None, None),
    },
    "cluster capacity-search": {
        "--async-io": ("async_io", 0, None),
        "--bsz": ("bsz", 1, None),
        "--cpus-per-node": ("cpus_per_node", 16, None),
        "--duration": ("duration", 5.0, None),
        "--gpu": ("gpu", False, None),
        "--jobs": ("jobs", 1, None),
        "--json": ("json_path", None, None),
        "--max-probes": ("max_probes", 24, None),
        "--min-goodput": ("min_goodput", 0.9, None),
        "--model": ("model", "ffnn", MODELS),
        "--mp": ("mp", 1, None),
        "--node-counts": ("node_counts", "1,2,4", None),
        "--nodes": ("nodes", 2, None),
        "--partitions": ("partitions", None, None),
        "--racks": ("racks", 1, None),
        "--replicas-per-node": ("replicas_per_node", 1, None),
        "--seed": ("seed", 0, None),
        "--seeds": ("seeds", "0,1", None),
        "--server-workers": ("server_workers", None, None),
        "--serving": ("serving", "onnx", SERVING),
        "--slo-p95": ("slo_p95", 1.0, None),
        "--sps": ("sps", "flink", SPS),
        "--start-rate": ("start_rate", 50.0, None),
        "--store": ("store_path", None, None),
        "--tasks-per-node": ("tasks_per_node", None, None),
        "--tolerance": ("tolerance", 0.1, None),
        "--verbose": ("verbose", False, None),
    },
    "verify-order": {
        "--bsz": ("bsz", 1, None),
        "--duration": ("duration", 2.0, None),
        "--ir": ("ir", 50.0, None),
        "--model": ("model", "ffnn", MODELS),
        "--mp": ("mp", 1, None),
        "--nodes": ("nodes", 0, None),
        "--permutations": ("permutations", 3, None),
        "--seed": ("seed", 0, None),
        "--serving": ("serving", "onnx", SERVING),
        "--sps": ("sps", "all", SPS + ["all"]),
    },

}


def _subcommand(path):
    parser = build_parser()
    for name in path.split():
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        parser = commands.choices[name]
    return parser


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_is_pinned(command):
    options = {}
    for action in _subcommand(command)._actions:
        if not action.option_strings or action.dest == "help":
            continue
        (option,) = action.option_strings
        choices = None if action.choices is None else list(action.choices)
        options[option] = (action.dest, action.default, choices)
    assert options == SURFACE[command]
