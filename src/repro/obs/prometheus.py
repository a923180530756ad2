"""Prometheus text exposition (and a strict parser) for stats snapshots.

:func:`render_prometheus` turns any :meth:`repro.obs.Stats.as_dict`
snapshot into `text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ without
any dependency — the ``/metrics`` endpoint of
:class:`repro.serving.http.HttpServer` is this function applied to the
router snapshot plus the HTTP server's own counters.

The walker is generic so that *every* counter and histogram a component
adds to its stats dataclass shows up in ``/metrics`` automatically:

* numeric leaves become ``gauge`` samples — except the well-known
  monotonic fields (requests, hits, rejected, ...), which become
  ``counter`` samples with the conventional ``_total`` suffix;
* a nested :class:`repro.obs.histogram.HistogramStats` dict becomes a full
  ``histogram`` family (``_bucket{le=...}`` cumulative series, ``_sum``,
  ``_count``) using the stable bucket layout of
  :data:`repro.obs.histogram.BUCKET_BOUNDS_MS`;
* the ``shards`` and ``workers`` mappings become ``shard`` / ``worker``
  label dimensions rather than name components, so per-shard series (and
  per-worker-process series in cluster mode) aggregate the Prometheus way;
* strings and ``None`` are skipped (they belong in ``/stats``, not in a
  numeric time series).

:func:`parse_prometheus` is the matching strict parser: it validates line
grammar, label escaping and histogram invariants (cumulative buckets,
terminal ``+Inf`` equal to ``_count``), and is what the test-suite and
``bench_http`` use to assert the exposition is well-formed.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

from .histogram import BUCKET_BOUNDS_MS, BUCKET_COUNT

#: snapshot fields that are monotonically increasing event counts; they
#: are exported as Prometheus counters with the ``_total`` suffix.
COUNTER_FIELDS = frozenset(
    {
        "requests",
        "batches",
        "forwards",
        "hits",
        "misses",
        "evictions",
        "submitted",
        "rejected",
        "connections",
        "shed",
    }
)

#: mappings whose keys are instance names, not field names: the key becomes
#: a label value instead of a metric-name component.  ``workers`` nests
#: *outside* ``shards`` in cluster snapshots, so aggregated series from N
#: worker processes carry a ``worker`` label and never collide on shard
#: name alone; ``hosts`` labels the cross-machine rollup by hostname.
LABEL_DIMENSIONS = {
    "shards": ("shard", "shard"),
    "workers": ("worker", "worker"),
    "hosts": ("host", "host"),
}

#: keys identifying a HistogramStats.as_dict() payload.
_HISTOGRAM_KEYS = frozenset({"count", "sum_ms", "counts"})

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)(?:\s+(-?\d+))?$"
)


class PrometheusParseError(ValueError):
    """The text is not valid Prometheus exposition format 0.0.4."""


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary snapshot path into a legal metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + rendered + "}"


class _Family:
    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str, mtype: str, help_text: str) -> None:
        self.name = name
        self.type = mtype
        self.help = help_text
        self.samples: List[Tuple[str, Dict[str, str], float]] = []


def _is_histogram(value: Mapping) -> bool:
    return _HISTOGRAM_KEYS.issubset(value.keys())


def render_prometheus(
    snapshot: Mapping[str, object], prefix: str = "repro"
) -> str:
    """Render a stats snapshot as Prometheus text exposition.

    ``prefix`` namespaces every family (e.g. ``repro_router``); nested
    component dicts extend the name, the ``shards`` mapping becomes a
    ``shard`` label, histogram payloads expand into bucket series.
    """
    families: "Dict[str, _Family]" = {}

    def family(name: str, mtype: str, help_text: str) -> _Family:
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, mtype, help_text)
        return existing

    def emit_histogram(name: str, labels: Dict[str, str], payload: Mapping) -> None:
        counts = payload.get("counts") or ()
        if len(counts) != BUCKET_COUNT:  # foreign dict that merely looks alike
            return
        base = sanitize_metric_name(f"{name}_ms")
        hist = family(base, "histogram", f"log-bucketed latency histogram {base}")
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += int(bucket_count)
            bound = (
                format_value(BUCKET_BOUNDS_MS[index])
                if index < len(BUCKET_BOUNDS_MS)
                else "+Inf"
            )
            hist.samples.append(
                (f"{base}_bucket", {**labels, "le": bound}, cumulative)
            )
        hist.samples.append((f"{base}_sum", dict(labels), float(payload["sum_ms"])))
        hist.samples.append((f"{base}_count", dict(labels), int(payload["count"])))

    def walk(value: object, path: Tuple[str, ...], labels: Dict[str, str]) -> None:
        if value is None or isinstance(value, str):
            return
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            leaf = path[-1] if path else "value"
            name = sanitize_metric_name("_".join((prefix,) + path))
            if leaf in COUNTER_FIELDS:
                counter = family(
                    f"{name}_total", "counter", f"monotonic event count {name}"
                )
                counter.samples.append((f"{name}_total", dict(labels), value))
            else:
                gauge = family(name, "gauge", f"instantaneous value {name}")
                gauge.samples.append((name, dict(labels), value))
            return
        if isinstance(value, Mapping):
            if _is_histogram(value):
                emit_histogram("_".join((prefix,) + path), labels, value)
                return
            for key, child in value.items():
                key = str(key)
                if key in LABEL_DIMENSIONS and isinstance(child, Mapping):
                    part, label_name = LABEL_DIMENSIONS[key]
                    for instance, sub in child.items():
                        walk(sub, path + (part,), {**labels, label_name: str(instance)})
                else:
                    walk(child, path + (key,), labels)

    walk(snapshot, (), {})

    lines: List[str] = []
    for fam in families.values():
        lines.append(f"# HELP {fam.name} {escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.type}")
        for sample_name, labels, value in fam.samples:
            lines.append(
                f"{sample_name}{_format_labels(labels)} {format_value(value)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Strict parser (tests + bench validation)
# ---------------------------------------------------------------------- #
def _parse_labels(raw: str, line: str) -> Dict[str, str]:
    """Parse ``{k="v",...}`` with escape handling; raises on bad grammar."""
    labels: Dict[str, str] = {}
    body = raw[1:-1]
    position = 0
    while position < len(body):
        match = re.match(r'([a-zA-Z_][a-zA-Z0-9_]*)="', body[position:])
        if match is None:
            raise PrometheusParseError(f"bad label pair at {position}: {line!r}")
        key = match.group(1)
        position += match.end()
        value_chars: List[str] = []
        while True:
            if position >= len(body):
                raise PrometheusParseError(f"unterminated label value: {line!r}")
            char = body[position]
            if char == "\\":
                if position + 1 >= len(body):
                    raise PrometheusParseError(f"dangling escape: {line!r}")
                escape = body[position + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escape, "\\" + escape)
                )
                position += 2
            elif char == '"':
                position += 1
                break
            else:
                value_chars.append(char)
                position += 1
        labels[key] = "".join(value_chars)
        if position < len(body):
            if body[position] != ",":
                raise PrometheusParseError(f"expected ',' between labels: {line!r}")
            position += 1
    return labels


def _parse_number(token: str, line: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise PrometheusParseError(f"bad sample value {token!r}: {line!r}") from None


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse and validate Prometheus text exposition.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels, value), ...]}}``.  Raises
    :class:`PrometheusParseError` on any malformed line, unknown metric
    type, or histogram whose buckets are not cumulative / not terminated
    by ``+Inf`` matching ``_count``.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family(name: str) -> Dict[str, object]:
        return families.setdefault(
            name, {"type": None, "help": None, "samples": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # arbitrary comments are legal
            name = parts[2]
            if not _NAME_RE.match(name):
                raise PrometheusParseError(f"bad metric name in comment: {line!r}")
            if parts[1] == "TYPE":
                mtype = parts[3].strip() if len(parts) > 3 else ""
                if mtype not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise PrometheusParseError(f"unknown metric type: {line!r}")
                family(name)["type"] = mtype
            else:
                family(name)["help"] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusParseError(f"malformed sample line: {line!r}")
        sample_name, raw_labels, raw_value = match.group(1), match.group(2), match.group(3)
        labels = _parse_labels(raw_labels, line) if raw_labels else {}
        value = _parse_number(raw_value, line)
        base = re.sub(r"_(bucket|sum|count|total)$", "", sample_name)
        target = base if base in families else sample_name
        family(target)["samples"].append((sample_name, labels, value))

    _validate_histograms(families)
    return families


def _labels_without(labels: Mapping[str, str], key: str) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, v) for k, v in labels.items() if k != key))


def _validate_histograms(families: Mapping[str, Dict[str, object]]) -> None:
    for name, fam in families.items():
        if fam["type"] != "histogram":
            continue
        buckets: Dict[Tuple, List[Tuple[float, float]]] = {}
        counts: Dict[Tuple, float] = {}
        for sample_name, labels, value in fam["samples"]:  # type: ignore[misc]
            series = _labels_without(labels, "le")
            if sample_name == f"{name}_bucket":
                if "le" not in labels:
                    raise PrometheusParseError(f"bucket without le label in {name}")
                bound = _parse_number(labels["le"], f"{name}_bucket le")
                buckets.setdefault(series, []).append((bound, value))
            elif sample_name == f"{name}_count":
                counts[series] = value
        for series, pairs in buckets.items():
            ordered = sorted(pairs, key=lambda pair: pair[0])
            cumulative: Optional[float] = None
            for bound, value in ordered:
                if cumulative is not None and value < cumulative:
                    raise PrometheusParseError(
                        f"histogram {name} buckets are not cumulative"
                    )
                cumulative = value
            if not ordered or not math.isinf(ordered[-1][0]):
                raise PrometheusParseError(f"histogram {name} lacks a +Inf bucket")
            if series in counts and ordered[-1][1] != counts[series]:
                raise PrometheusParseError(
                    f"histogram {name} +Inf bucket disagrees with _count"
                )
