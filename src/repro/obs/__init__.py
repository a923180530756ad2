"""Observability layer: stats protocol, latency histograms, trace spans.

Everything the serving stack uses to *see* itself lives here, dependency
free, so any component (and any future subsystem) can opt in:

* :mod:`repro.obs.stats` — the ``Stats``/``StatsSource`` snapshot protocol;
* :mod:`repro.obs.histogram` — bounded log-bucketed
  :class:`LatencyHistogram` with mergeable snapshots and p50/p95/p99
  readout, replacing unbounded latency lists;
* :mod:`repro.obs.spans` — per-request :class:`RequestTrace` stage spans
  (queue / cache / forward / deliver) and the bounded :class:`TraceBuffer`
  ring of recent traces;
* :mod:`repro.obs.prometheus` — text exposition of any snapshot
  (``/metrics``) plus the strict parser the tests validate it with.
"""

from .histogram import (
    BUCKET_BOUNDS_MS,
    BUCKET_COUNT,
    HistogramStats,
    LatencyHistogram,
    bucket_index,
)
from .prometheus import (
    COUNTER_FIELDS,
    PrometheusParseError,
    escape_help,
    escape_label_value,
    format_value,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
)
from .spans import DEFAULT_TRACE_BUFFER, RequestTrace, TraceBuffer
from .stats import FLOAT_DIGITS, Stats, StatsSource

__all__ = [
    "Stats",
    "StatsSource",
    "FLOAT_DIGITS",
    "LatencyHistogram",
    "HistogramStats",
    "BUCKET_BOUNDS_MS",
    "BUCKET_COUNT",
    "bucket_index",
    "RequestTrace",
    "TraceBuffer",
    "DEFAULT_TRACE_BUFFER",
    "render_prometheus",
    "parse_prometheus",
    "PrometheusParseError",
    "COUNTER_FIELDS",
    "escape_label_value",
    "escape_help",
    "format_value",
    "sanitize_metric_name",
]
