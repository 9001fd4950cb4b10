"""repro.store — the SQLite results database and result cache.

The one place results persist: every run can be recorded (exports stay
byte-identical either way) into one file keyed by canonical-config hash
+ seed + code fingerprint + git revision + recording time. The matrix
engine, sweeps and capacity search look tasks up in it before running
them, so the recorded runs double as the result cache. ``crayfish run
--store`` records single runs and ``crayfish store info`` reports the
schema and row counts; anything else is plain SQL over the ``runs``
table (docs/store.md).
"""

from repro.store.db import (
    DEFAULT_STORE_PATH,
    ResultStore,
    current_git_rev,
    open_store,
)
from repro.store.migrations import SCHEMA_VERSION, apply_migrations
from repro.store.record import (
    RunRow,
    cost_proxy,
    record_from_row,
    run_row_from_record,
    slot_id_of,
)

__all__ = [
    "DEFAULT_STORE_PATH",
    "ResultStore",
    "RunRow",
    "SCHEMA_VERSION",
    "apply_migrations",
    "cost_proxy",
    "current_git_rev",
    "open_store",
    "record_from_row",
    "run_row_from_record",
    "slot_id_of",
]
