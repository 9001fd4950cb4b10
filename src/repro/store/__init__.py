"""repro.store — the SQLite results database: result cache and history.

The one place results persist: every run can be recorded (exports stay
byte-identical either way) into one queryable file keyed by
canonical-config hash + seed + code fingerprint + git revision +
recording time. The matrix engine looks tasks up in it before running
them, so the history doubles as the result cache. On top sit the query
surfaces behind ``crayfish history`` / ``trend`` /
``regress`` / ``pareto``: filterable run history, per-metric
trajectories across revisions, an automatic regression gate against the
stored baseline, and the latency/throughput/cost Pareto frontier across
every stored configuration.
"""

from repro.store.db import (
    DEFAULT_STORE_PATH,
    ResultStore,
    current_git_rev,
    open_store,
)
from repro.store.migrations import SCHEMA_VERSION, apply_migrations
from repro.store.queries import (
    DEFAULT_THRESHOLDS,
    HistoryFilter,
    MetricDelta,
    ParetoPoint,
    RegressionVerdict,
    TrendSeries,
    baseline_for,
    compare_to_baseline,
    history,
    pareto_frontier,
    trend,
)
from repro.store.record import (
    METRIC_DIRECTIONS,
    RunRow,
    cost_proxy,
    record_from_row,
    run_row_from_record,
    slot_id_of,
)
from repro.store.report import (
    format_history,
    format_pareto,
    format_regression,
    format_trends,
)

__all__ = [
    "DEFAULT_STORE_PATH",
    "DEFAULT_THRESHOLDS",
    "HistoryFilter",
    "METRIC_DIRECTIONS",
    "MetricDelta",
    "ParetoPoint",
    "RegressionVerdict",
    "ResultStore",
    "RunRow",
    "SCHEMA_VERSION",
    "TrendSeries",
    "apply_migrations",
    "baseline_for",
    "compare_to_baseline",
    "cost_proxy",
    "current_git_rev",
    "format_history",
    "format_pareto",
    "format_regression",
    "format_trends",
    "history",
    "open_store",
    "pareto_frontier",
    "record_from_row",
    "run_row_from_record",
    "slot_id_of",
    "trend",
]
