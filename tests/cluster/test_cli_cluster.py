"""CLI coverage for clustered runs (``run --nodes``), ``crayfish cluster``
and the scale-out presets."""

import pytest

from repro.cli import main


def test_cluster_run_command(capsys):
    code = main(
        [
            "run", "--nodes", "2", "--ir", "50",
            "--duration", "1", "--placement",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flink/onnx/ffnn@2n" in out
    assert "throughput" in out
    assert "node-0" in out and "node-1" in out


def test_cluster_run_population(capsys):
    code = main(
        [
            "run", "--nodes", "2", "--duration", "1",
            "--users", "5000", "--events-per-user-per-day", "864",
            "--diurnal-period", "20",
            "--flash-crowd", "0.2:0.2:3",
        ]
    )
    assert code == 0
    assert "throughput" in capsys.readouterr().out


def test_cluster_run_rejects_bad_flash_crowd(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(
            [
                "run", "--nodes", "1", "--duration", "1",
                "--users", "10", "--flash-crowd", "nope",
            ]
        )
    assert exit_.value.code == 2
    assert "AT:DURATION:MULTIPLIER" in capsys.readouterr().err


def test_cluster_run_friendly_config_error(capsys):
    code = main(
        [
            "run", "--nodes", "2", "--duration", "1",
            "--tasks-per-node", "4", "--partitions", "4",
        ]
    )
    assert code == 2
    assert "partitions" in capsys.readouterr().err


def test_cluster_capacity_search_command(tmp_path, capsys):
    argv = [
        "cluster", "capacity-search",
        "--node-counts", "1,2", "--mp", "1",
        "--duration", "0.5", "--seeds", "0",
        "--start-rate", "200", "--tolerance", "0.4",
        "--max-probes", "5", "--slo-p95", "0.5",
        "--store", str(tmp_path / "store.sqlite"), "--verbose",
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "sustainable" in out
    assert "probe" in out
    assert "monotonically" in out
    probes = int(out.split("tasks: ")[1].split(" total")[0])
    assert f"{probes} executed, 0 from cache" in out

    # A repeated search replays every probe and prints the same table.
    assert main(argv) == 0
    again = capsys.readouterr().out
    assert f"0 executed, {probes} from cache" in again
    assert again.split("tasks:")[0] == out.split("tasks:")[0]


def test_matrix_accepts_scaleout_preset(tmp_path, capsys):
    code = main(
        [
            "matrix", "--preset", "scaleout", "--duration", "0.25",
            "--seeds", "0", "--store", str(tmp_path / "store.sqlite"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "matrix preset 'scaleout'" in out
    assert "1n" in out and "3n" in out


def test_verify_determinism_clustered(capsys):
    code = main(
        [
            "verify-order", "--sps", "flink", "--nodes", "2",
            "--ir", "50", "--duration", "1", "--permutations", "0",
        ]
    )
    assert code == 0
    assert "byte-identical" in capsys.readouterr().out


def test_cluster_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["cluster"])
