"""Dual-run determinism check (``verify_order(permutations=0)``) and the
linter's clean-tree gate."""

import dataclasses
import pathlib

from repro.analysis.core import lint_paths
from repro.analysis.order import (
    ARTIFACTS,
    run_fingerprints,
    verify_engine_order,
    verify_order,
)
from repro.config import SPS_NAMES, ExperimentConfig

REPO = pathlib.Path(__file__).resolve().parents[2]

SMALL = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=60.0, duration=1.0
)


def test_verify_engine_all_artifacts_identical():
    verdict = verify_engine_order(SMALL, permutations=0)
    assert verdict.identical
    assert verdict.reproducible
    assert verdict.mismatched == ()
    assert [p.seed for p in verdict.permutations] == [None]
    assert sorted(name for name, __ in verdict.baseline) == sorted(ARTIFACTS)


def test_verify_determinism_all_four_engines():
    verdicts = verify_order(
        dataclasses.replace(SMALL, duration=1.0),
        engines=SPS_NAMES,
        permutations=0,
    )
    assert [v.sps for v in verdicts] == list(SPS_NAMES)
    failed = [v.sps for v in verdicts if not v.identical]
    assert failed == [], f"nondeterministic engines: {failed}"


def test_fingerprints_differ_across_seeds():
    """The byte-diff is sensitive: a different seed must change bytes —
    otherwise 'identical' would be vacuously true."""
    first = run_fingerprints(SMALL)
    second = run_fingerprints(dataclasses.replace(SMALL, seed=1))
    assert first["results.json"] != second["results.json"]


def test_fingerprints_cover_every_surface():
    artifacts = run_fingerprints(SMALL)
    assert set(artifacts) == set(ARTIFACTS)
    assert all(isinstance(v, bytes) and v for v in artifacts.values())


def test_source_tree_lints_clean():
    """The CI gate, enforced from inside tier-1 as well: `src/` must
    carry zero unsuppressed findings."""
    reports = lint_paths([str(REPO / "src")])
    dirty = [
        f"{finding.location()}: {finding.rule}: {finding.message}"
        for report in reports
        for finding in report.findings
    ]
    assert dirty == [], "\n".join(dirty)


def test_source_tree_suppressions_all_have_reasons():
    reports = lint_paths([str(REPO / "src")])
    for report in reports:
        for item in report.suppressed:
            assert item.pragma.reason, (
                f"{report.path}:{item.pragma.line} pragma lacks a reason"
            )
