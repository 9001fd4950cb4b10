"""Recording must never perturb results: store-on == store-off, bytewise."""

import pytest

from repro.cli import main
from repro.config import SPS_NAMES
from repro.core.results_io import save_records_jsonl
from repro.matrix import preset, run_matrix


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    monkeypatch.delenv("CRAYFISH_STORE", raising=False)


@pytest.mark.parametrize("sps", SPS_NAMES)
def test_run_export_identical_with_recording_on_and_off(
    sps, tmp_path, capsys
):
    base = ["run", "--sps", sps, "--ir", "50", "--duration", "0.5"]
    off = tmp_path / "off.json"
    on = tmp_path / "on.json"
    assert main(base + ["--json", str(off)]) == 0
    assert main(base + [
        "--json", str(on), "--store", str(tmp_path / "db.sqlite"),
    ]) == 0
    capsys.readouterr()
    assert off.read_bytes() == on.read_bytes()


def test_matrix_jsonl_identical_with_recording_on_and_off(tmp_path, capsys):
    """The CLI always runs a matrix against a store; its export equals the
    engine's with no store at all, cold and warm."""
    spec = preset("smoke")
    off = tmp_path / "off.jsonl"
    report = run_matrix(spec.base.replace(duration=0.25), spec.grid, seeds=(0,))
    save_records_jsonl(report.records, str(off))
    base = [
        "matrix", "--preset", "smoke", "--duration", "0.25", "--seeds", "0",
        "--store", str(tmp_path / "db.sqlite"),
    ]
    for tag in ("cold", "warm"):
        on = tmp_path / f"{tag}.jsonl"
        assert main(base + ["--jsonl", str(on)]) == 0
        assert off.read_bytes() == on.read_bytes()
    capsys.readouterr()
