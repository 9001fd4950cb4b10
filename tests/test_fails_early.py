"""Bad knob values fail at construction or parse time, never mid-run.

NaN and inf slipped past the ``x <= 0`` style checks: ``ir=nan`` ran and
printed a throughput, ``duration=nan`` died inside the kernel, and
``duration=inf`` never returned. Each case here must be refused before
any simulation starts.
"""

import pytest

from repro.cli import main
from repro.cluster.spec import ClusterSpec, PopulationSpec
from repro.config import ExperimentConfig, WorkloadKind
from repro.core.runner import ExperimentRunner
from repro.errors import ConfigError

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "cls, fields, name",
    [
        (ExperimentConfig, {"ir": NAN}, "ir"),
        (ExperimentConfig, {"ir": INF}, "ir"),
        (ExperimentConfig, {"duration": INF}, "duration"),
        (ExperimentConfig, {"duration": NAN}, "duration"),
        (
            ExperimentConfig,
            {"bd": NAN, "workload": WorkloadKind.PERIODIC_BURSTS, "ir": 10.0},
            "bd",
        ),
        (
            ExperimentConfig,
            {"serving": "tf_serving", "adaptive_batching": (4, NAN)},
            "adaptive_batching",
        ),
        (PopulationSpec, {"rate_scale": NAN}, "rate_scale"),
        (PopulationSpec, {"sigma": NAN}, "sigma"),
        (ClusterSpec, {"bandwidth": NAN}, "bandwidth"),
        (ClusterSpec, {"lan_latency": NAN}, "lan_latency"),
    ],
)
def test_non_finite_knobs_fail_at_construction(cls, fields, name, no_environment):
    with pytest.raises(ConfigError, match=name):
        cls(**fields)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["run", "--ir", "nan"], "ir"),
        (["run", "--duration", "nan"], "duration"),
        (["run", "--duration", "inf"], "duration"),
    ],
)
def test_cli_non_finite_knobs_exit_two(argv, name, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(ExperimentRunner, "run", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
