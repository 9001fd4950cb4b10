"""Metrics exporters: OpenMetrics text exposition and a JSONL timeline.

The OpenMetrics export is the registry's *final* state in the standard
text format (one ``# TYPE``/``# HELP`` block per metric family, counter
samples suffixed ``_total``, histogram ``_bucket{le=...}``/``_sum``/
``_count`` series, terminated by ``# EOF``) — parseable by any
Prometheus-ecosystem tool. The JSONL export is the scraped *timeline*:
one JSON object per sample, the machine-readable twin of the dashboard.

:func:`parse_openmetrics` is the validating reader the CI smoke job and
tests use: it checks line format, family/TYPE consistency, and rejects
duplicate series.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import typing

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.scraper import Scraper

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(labels: typing.Sequence[tuple[str, str]]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


def openmetrics_text(registry: MetricsRegistry) -> str:
    """The registry's current state in OpenMetrics text format."""
    lines: list[str] = []
    seen_families: set[str] = set()
    for instrument in registry.instruments():
        family = instrument.name
        if family not in seen_families:
            seen_families.add(family)
            lines.append(f"# TYPE {family} {instrument.type}")
            if instrument.help:
                lines.append(f"# HELP {family} {instrument.help}")
        labels = instrument.labels
        if isinstance(instrument, Counter):
            lines.append(
                f"{family}_total{_label_str(labels)} "
                f"{_format_value(instrument.value())}"
            )
        elif isinstance(instrument, Gauge):
            lines.append(
                f"{family}{_label_str(labels)} "
                f"{_format_value(instrument.value())}"
            )
        elif isinstance(instrument, Histogram):
            for bound, cumulative in instrument.cumulative_buckets():
                le = "+Inf" if bound == math.inf else repr(bound)
                bucket_labels = tuple(labels) + (("le", le),)
                lines.append(
                    f"{family}_bucket{_label_str(bucket_labels)} {cumulative}"
                )
            lines.append(
                f"{family}_sum{_label_str(labels)} "
                f"{_format_value(instrument.sum)}"
            )
            lines.append(f"{family}_count{_label_str(labels)} {instrument.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def save_openmetrics(registry: MetricsRegistry, path: str) -> None:
    """Write the OpenMetrics exposition to ``path``."""
    with open(path, "w") as handle:
        handle.write(openmetrics_text(registry))


def timeline_rows(scraper: Scraper) -> list[dict]:
    """One flat dict per scraped sample, in time order."""
    rows = []
    for name, labels, series in scraper.timeline():
        for t, value in zip(series.times, series.values):
            rows.append({"t": t, "metric": name, "labels": labels, "value": value})
    rows.sort(key=lambda r: r["t"])
    return rows


def series_summaries(scraper: Scraper) -> dict[str, dict]:
    """Collapse each scraped series to last/peak/mean/samples.

    The compact per-series shape the results database's ``series``
    table stores: enough to spot shifted queue peaks or lag without
    keeping the full timeline. Series that never collected a sample are
    omitted.
    """
    summaries: dict[str, dict] = {}
    for name, ts in sorted(scraper.series().items()):
        values = list(ts.values)
        if not values:
            continue
        summaries[name] = {
            "last": values[-1],
            "peak": max(values),
            "mean": statistics.fmean(values),
            "samples": len(values),
        }
    return summaries


def save_metrics_jsonl(scraper: Scraper, path: str) -> None:
    """Write the scraped timeline as JSON Lines (one sample per line)."""
    with open(path, "w") as handle:
        for row in timeline_rows(scraper):
            handle.write(json.dumps(row) + "\n")


def load_metrics_jsonl(path: str) -> list[dict]:
    """Read back a JSONL timeline (round-trip convenience)."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


@typing.no_type_check
def parse_openmetrics(text: str) -> dict[str, dict]:
    """Validating OpenMetrics reader.

    Returns ``{family: {"type": ..., "samples": {series: value}}}``.
    Raises ``ValueError`` on malformed lines, samples that belong to no
    declared family, duplicate series, or a missing ``# EOF`` terminator.
    """
    families: dict[str, dict] = {}
    seen_series: set[str] = set()
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            raise ValueError(f"line {lineno}: blank lines are not allowed")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            __, kind, family = parts[0], parts[1], parts[2]
            if not _NAME.match(family):
                raise ValueError(f"line {lineno}: bad metric name {family!r}")
            if kind == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: TYPE needs a metric type")
                if family in families:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {family}")
                families[family] = {"type": parts[3], "samples": {}}
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        label_text = match.group("labels")
        if label_text:
            for pair in label_text.split(","):
                if not _LABEL.match(pair):
                    raise ValueError(f"line {lineno}: malformed label {pair!r}")
        value_text = match.group("value")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {value_text!r}"
            ) from None
        family = _family_of(name, families)
        if family is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        series = f"{name}{{{label_text}}}" if label_text else name
        if series in seen_series:
            raise ValueError(f"line {lineno}: duplicate series {series!r}")
        seen_series.add(series)
        families[family]["samples"][series] = value
    return families


def _family_of(sample_name: str, families: dict[str, dict]) -> str | None:
    """Resolve a sample name to its metric family (handles the counter
    ``_total`` and histogram ``_bucket``/``_sum``/``_count`` suffixes)."""
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if family in families:
                return family
    return None
