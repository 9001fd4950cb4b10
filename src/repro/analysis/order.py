"""Determinism and schedule-perturbation proof (``crayfish verify-order``).

Every run executes the scenario under the runtime sanitizer, with
tracing and metrics on, and serializes the exports a reader of the
paper's numbers sees: results JSON, OpenMetrics exposition, metrics
timeline and Chrome trace. After a baseline run come an unperturbed
repeat (the dual-run determinism check) and ``N`` runs under a seeded
:class:`~repro.simul.scheduler.PermutedScheduler`, which pops a
pseudo-random member of each ``(time, priority)`` tie class while still
respecting causality. Each re-run is byte-diffed against the baseline.

Byte-identical exports across permutations show that no tie-order
dependency reaches a published surface of that config (DPOR-lite). A
diff on the repeat is nondeterminism; a diff on a permutation only is a
CONFIRMED ordering hazard, and one more baseline run under the tie
tracker names the conflicting access sites. The verdict comes from the
bytes alone.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing

from repro.analysis.sanitizer import determinism_sanitizer
from repro.analysis.tierace import TieConflict, track_ties
from repro.config import ExperimentConfig, SPS_NAMES
from repro.core.results_io import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.metrics.export import openmetrics_text, timeline_rows
from repro.simul.core import kernel_overrides
from repro.simul.scheduler import PermutedScheduler
from repro.tracing.export import chrome_trace

#: Artifact names, in report order.
ARTIFACTS = ("results.json", "metrics.txt", "metrics.jsonl", "trace.json")


def run_fingerprints(config: ExperimentConfig) -> dict[str, bytes]:
    """Execute one sanitized, fully instrumented run and serialize its
    artifacts."""
    with determinism_sanitizer():
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
    #: The tie tracker's baseline rerun, made only when the repeat
    #: matched and a permutation did not: accesses it recorded (None:
    #: not run), then its kept and pragma-suppressed conflicts.
    tie_accesses: int | None = None
    conflicts: tuple[TieConflict, ...] = ()
    suppressed: tuple[TieConflict, ...] = ()

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
    config: ExperimentConfig, permutations: int = 3
) -> OrderVerdict:
    """Determinism- and perturbation-proof one engine config.

    Runs the baseline, one unperturbed repeat, then ``permutations``
    seeded tie-permutation runs, each byte-compared to the baseline.
    ``permutations=0`` is the plain dual-run determinism check. When the
    repeat matches but a permutation differs, one more baseline run under
    the tie tracker fills the verdict's tie fields.
    """
    if permutations < 0:
        raise ValueError(f"permutations must be >= 0, got {permutations}")
    reference = run_fingerprints(config)
    results: list[PermutationResult] = []
    for seed in (None, *range(1, permutations + 1)):
        wrap = None if seed is None else functools.partial(PermutedScheduler, seed=seed)
        with kernel_overrides(wrap):
            rerun = run_fingerprints(config)
        mismatched = tuple(
            name for name in ARTIFACTS if rerun[name] != reference[name]
        )
        results.append(PermutationResult(seed=seed, mismatched=mismatched))
    digests = tuple(sorted(_digest(reference).items()))
    verdict = OrderVerdict(config.sps, digests, tuple(results))
    if verdict.reproducible and not verdict.identical:
        with track_ties() as tracker:
            run_fingerprints(config)
        kept, suppressed = tracker.apply_pragmas()
        verdict = dataclasses.replace(
            verdict,
            tie_accesses=tracker.accesses_recorded,
            conflicts=tuple(kept),
            suppressed=tuple(suppressed),
        )
    return verdict


def verify_order(
    base: ExperimentConfig,
    engines: typing.Sequence[str] = SPS_NAMES,
    permutations: int = 3,
) -> list[OrderVerdict]:
    """The full gate: the repeat and perturbation proof for each engine."""
    return [
        verify_engine_order(dataclasses.replace(base, sps=sps), permutations)
        for sps in engines
    ]
