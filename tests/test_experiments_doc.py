"""EXPERIMENTS.md is what its generator renders from the committed results.

``benchmarks/compile_experiments.py`` assembles EXPERIMENTS.md from
``benchmarks/results/*.txt``; a results file, a section or a narrative
edited without regenerating the document fails here. Regenerate with::

    python benchmarks/compile_experiments.py
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _generator():
    path = ROOT / "benchmarks" / "compile_experiments.py"
    spec = importlib.util.spec_from_file_location("compile_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_md_matches_its_generator(tmp_path, capsys):
    rendered = tmp_path / "EXPERIMENTS.md"
    _generator().main(str(rendered))
    assert "missing results" not in capsys.readouterr().out
    assert rendered.read_text() == (ROOT / "EXPERIMENTS.md").read_text()


def test_every_result_has_its_own_section():
    sections = {name for name, *__ in _generator().SECTIONS}
    results = {path.stem for path in (ROOT / "benchmarks" / "results").glob("*.txt")}
    assert results == sections
