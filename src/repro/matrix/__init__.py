"""repro.matrix — parallel, cached, resumable experiment matrices.

The engine (:mod:`repro.matrix.engine`) fans grid points × seeds across
worker processes and merges deterministically. Given a results store
(:mod:`repro.store`) it replays every (config, seed) task the store
already holds under the current code fingerprint
(:mod:`repro.matrix.fingerprint`) and records the rest as they finish,
so re-running a sweep executes only changed or missing points and
interrupted runs resume. Presets (:mod:`repro.matrix.presets`) package
the paper's headline grids behind ``crayfish matrix``.
"""

from repro.matrix.engine import (
    MatrixReport,
    execute_task,
    format_matrix_table,
    grid_points,
    run_matrix,
)
from repro.matrix.fingerprint import code_fingerprint
from repro.matrix.presets import MatrixSpec, preset, preset_names

__all__ = [
    "MatrixReport",
    "MatrixSpec",
    "code_fingerprint",
    "execute_task",
    "format_matrix_table",
    "grid_points",
    "preset",
    "preset_names",
    "run_matrix",
]
