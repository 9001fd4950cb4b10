"""Static determinism & simulation-safety analysis (``crayfish lint``).

Every result this reproduction produces rests on one invariant: a run is
a pure function of ``(config, seed)``. This package defends that
invariant four ways:

- an AST-based **linter** (:mod:`repro.analysis.rules`) with a rule
  catalogue tuned to this codebase — wall-clock reads, unseeded global
  RNG, salted ``hash()``, set-order leaks, ``id()``-based ordering,
  blocking I/O in simulation processes, mutable defaults, and silent
  exception handlers;
- a runtime **determinism sanitizer**
  (:mod:`repro.analysis.sanitizer`) that monkeypatches wall-clock and
  global-RNG entry points to raise during a run;
- a **verification harness** (:mod:`repro.analysis.order`,
  ``crayfish verify-order``) that re-runs an experiment unperturbed and
  then under seeded permutations of event-tie pop order, byte-diffing
  the results/metrics/trace exports against a baseline run;
- a dynamic **tie tracker** (:mod:`repro.analysis.tierace`) that names
  the conflicting same-tie-class state accesses behind a diverging
  permutation (``tie-race`` findings).

Deliberate exceptions are suppressed in-source with pragmas::

    expensive_thing()  # crayfish: allow[wall-clock]: CLI boundary, not simulated

See ``docs/determinism.md`` for the full rule catalogue and workflow.
"""

from repro.analysis.core import (
    FileReport,
    Finding,
    Pragma,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.order import OrderVerdict, verify_order
from repro.analysis.rules import all_rules
from repro.analysis.sanitizer import DeterminismViolation, determinism_sanitizer
from repro.analysis.tierace import TieConflict, TieTracker

__all__ = [
    "DeterminismViolation",
    "FileReport",
    "Finding",
    "OrderVerdict",
    "Pragma",
    "TieConflict",
    "TieTracker",
    "all_rules",
    "determinism_sanitizer",
    "lint_file",
    "lint_paths",
    "lint_source",
    "verify_order",
]
