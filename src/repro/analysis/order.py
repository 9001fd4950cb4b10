"""Determinism and schedule-perturbation proof (``crayfish verify-order``).

Every run executes the scenario with tracing and metrics on, optionally
under the runtime sanitizer, and serializes the exports a reader of the
paper's numbers sees: results JSON, OpenMetrics exposition, metrics
timeline and Chrome trace. After a baseline run come an unperturbed
repeat (the dual-run determinism check) and ``N`` runs under a seeded
:class:`~repro.simul.scheduler.PermutedScheduler`, which pops a
pseudo-random member of each ``(time, priority)`` tie class while still
respecting causality. Each re-run is byte-diffed against the baseline.

Byte-identical exports across permutations prove that no tie-order
dependency reaches a published surface (DPOR-lite). A diff on the repeat
is nondeterminism; a diff on a permutation is a CONFIRMED ordering
hazard, located with ``crayfish run --tie-track``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import typing

from repro.analysis.sanitizer import determinism_sanitizer
from repro.config import ExperimentConfig, SPS_NAMES
from repro.core.results_io import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.metrics.export import openmetrics_text, timeline_rows
from repro.simul.core import kernel_overrides
from repro.tracing.export import chrome_trace

#: Artifact names, in report order.
ARTIFACTS = ("results.json", "metrics.txt", "metrics.jsonl", "trace.json")


def run_fingerprints(
    config: ExperimentConfig, sanitize: bool = True
) -> dict[str, bytes]:
    """Execute one fully instrumented run and serialize its artifacts."""
    guard = determinism_sanitizer() if sanitize else contextlib.nullcontext()
    with guard:
        result = ExperimentRunner(config).run(trace=True, metrics=True)
    timeline = "\n".join(
        json.dumps(row, sort_keys=True) for row in timeline_rows(result.telemetry.scraper)
    )
    return {
        "results.json": json.dumps(
            result_to_dict(result), sort_keys=True
        ).encode(),
        "metrics.txt": openmetrics_text(result.telemetry.registry).encode(),
        "metrics.jsonl": timeline.encode(),
        "trace.json": json.dumps(
            chrome_trace(result.trace), sort_keys=True
        ).encode(),
    }


@dataclasses.dataclass(frozen=True)
class PermutationResult:
    """Byte-comparison of one re-run against the baseline."""

    #: Tie-permutation seed; None is the unperturbed repeat.
    seed: int | None
    #: Artifacts whose bytes differ from the baseline.
    mismatched: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.mismatched


@dataclasses.dataclass(frozen=True)
class OrderVerdict:
    """Outcome of the repeat and perturbation proof for one engine."""

    sps: str
    #: sha256 of each baseline artifact (unperturbed run).
    baseline: tuple[tuple[str, str], ...]
    #: The unperturbed repeat first, then one entry per permutation seed.
    permutations: tuple[PermutationResult, ...]

    @property
    def identical(self) -> bool:
        return all(p.identical for p in self.permutations)

    @property
    def reproducible(self) -> bool:
        """Did the unperturbed repeat reproduce the baseline's bytes?"""
        return self.permutations[0].identical

    @property
    def mismatched(self) -> tuple[str, ...]:
        return tuple(
            ("repeat" if perm.seed is None else f"seed={perm.seed}")
            + f": {name}"
            for perm in self.permutations
            for name in perm.mismatched
        )


def _digest(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {
        name: hashlib.sha256(artifacts[name]).hexdigest() for name in ARTIFACTS
    }


def verify_engine_order(
    config: ExperimentConfig,
    permutations: int = 3,
    sanitize: bool = True,
) -> OrderVerdict:
    """Determinism- and perturbation-proof one engine config.

    Runs the baseline, one unperturbed repeat, then ``permutations``
    seeded tie-permutation runs, each byte-compared to the baseline.
    ``permutations=0`` is the plain dual-run determinism check.
    """
    if permutations < 0:
        raise ValueError(f"permutations must be >= 0, got {permutations}")
    reference = run_fingerprints(config, sanitize=sanitize)
    results: list[PermutationResult] = []
    for seed in (None, *range(1, permutations + 1)):
        with kernel_overrides(perturb_seed=seed):
            rerun = run_fingerprints(config, sanitize=sanitize)
        mismatched = tuple(
            name for name in ARTIFACTS if rerun[name] != reference[name]
        )
        results.append(PermutationResult(seed=seed, mismatched=mismatched))
    digests = tuple(sorted(_digest(reference).items()))
    return OrderVerdict(
        sps=config.sps, baseline=digests, permutations=tuple(results)
    )


def verify_order(
    base: ExperimentConfig,
    engines: typing.Sequence[str] = SPS_NAMES,
    permutations: int = 3,
    sanitize: bool = True,
) -> list[OrderVerdict]:
    """The full gate: the repeat and perturbation proof for each engine."""
    verdicts = []
    for sps in engines:
        config = dataclasses.replace(base, sps=sps)
        verdicts.append(
            verify_engine_order(
                config, permutations=permutations, sanitize=sanitize
            )
        )
    return verdicts
