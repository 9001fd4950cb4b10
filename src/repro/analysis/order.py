"""Schedule-perturbation proof harness (``crayfish verify-order``).

Determinism (same inputs, same outputs) does not prove order
*independence*: results may be reproducible only because the scheduler
happens to resolve event ties the same way every run. This harness
attacks that directly, DPOR-lite: it re-runs an experiment under a
seeded :class:`~repro.simul.scheduler.PermutedScheduler` — which pops a
pseudo-random member of each ``(time, priority)`` tie class instead of
the lowest insertion sequence, while still respecting causality (an
event scheduled mid-tick only becomes poppable after its creator ran) —
and byte-diffs all serialized exports against the unperturbed baseline.

Byte-identical exports across permutations are a *proof* that no
tie-order dependency reaches any published surface. A diff is a
CONFIRMED ordering hazard; pair it with ``crayfish run --tie-track`` to
locate the conflicting access sites.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

from repro.analysis.determinism import ARTIFACTS, run_fingerprints
from repro.config import ExperimentConfig, SPS_NAMES
from repro.simul.core import kernel_overrides


@dataclasses.dataclass(frozen=True)
class PermutationResult:
    """Byte-comparison of one perturbed run against the baseline."""

    seed: int
    #: Artifacts whose bytes differ from the unperturbed baseline.
    mismatched: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.mismatched


@dataclasses.dataclass(frozen=True)
class OrderVerdict:
    """Outcome of the perturbation proof for one engine."""

    sps: str
    #: sha256 of each baseline artifact (unperturbed run).
    baseline: tuple[tuple[str, str], ...]
    permutations: tuple[PermutationResult, ...]

    @property
    def identical(self) -> bool:
        return all(p.identical for p in self.permutations)

    @property
    def mismatched(self) -> tuple[str, ...]:
        return tuple(
            f"seed={perm.seed}: {name}"
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
    """Perturbation-proof one engine config.

    Runs the unperturbed baseline, then ``permutations`` seeded
    tie-permutation runs, each byte-compared to the baseline.
    """
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    reference = run_fingerprints(config, sanitize=sanitize)
    results: list[PermutationResult] = []
    for seed in range(1, permutations + 1):
        with kernel_overrides(perturb_seed=seed):
            perturbed = run_fingerprints(config, sanitize=sanitize)
        mismatched = tuple(
            name for name in ARTIFACTS if perturbed[name] != reference[name]
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
    """The full gate: the perturbation proof for each requested engine."""
    verdicts = []
    for sps in engines:
        config = dataclasses.replace(base, sps=sps)
        verdicts.append(
            verify_engine_order(
                config, permutations=permutations, sanitize=sanitize
            )
        )
    return verdicts
