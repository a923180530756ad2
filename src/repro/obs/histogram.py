"""Streaming latency histograms with fixed log-spaced buckets.

The serving layer used to keep every completed request's latency in an
unbounded Python list, which grows forever under sustained traffic and can
only answer ``mean``/``max``.  :class:`LatencyHistogram` replaces it with a
fixed-size accumulator:

* **bounded** — one integer per bucket, ``O(1)`` per :meth:`record`, no
  allocation on the hot path, regardless of how many requests it has seen;
* **log-spaced** — :data:`BUCKET_BOUNDS_MS` covers 1 µs to 100 s with ten
  buckets per decade (each bucket ~26 % wider than the last), so the same
  layout resolves a 50 µs memoised hit and a 2 s cold preprocess;
* **mergeable** — per-shard histograms sum bucket-wise into a router-wide
  one (:meth:`HistogramStats.merged`), the property Prometheus relies on
  for cross-instance aggregation;
* **quantile readout** — p50/p95/p99 by cumulative walk with linear
  interpolation inside the winning bucket, clamped to the exact observed
  ``min``/``max`` (which are tracked precisely, as is the running sum, so
  ``mean_ms``/``max_ms`` stay exact rather than bucketed).

The bucket layout is part of the snapshot stability contract: the bounds
are a pure function of the module constants below, so ``BENCH_*.json``
diffs and scraped ``/metrics`` series stay comparable across runs.  Any
change to the layout must bump the constants deliberately.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Tuple

from .stats import Stats, StatsSource

#: decades spanned by the finite buckets: 10^-3 ms (1 µs) .. 10^5 ms (100 s).
LOW_EXPONENT = -3
DECADES = 8

#: log-resolution: each bucket's upper bound is 10^(1/10) ≈ 1.26x the last,
#: bounding the relative quantile error at ~26 % of the true value.
BUCKETS_PER_DECADE = 10

#: inclusive upper bounds (milliseconds) of the finite buckets; one
#: overflow bucket (+Inf) rides after them, so a histogram stores
#: ``len(BUCKET_BOUNDS_MS) + 1`` counts.
BUCKET_BOUNDS_MS: Tuple[float, ...] = tuple(
    10.0 ** (LOW_EXPONENT + index / BUCKETS_PER_DECADE)
    for index in range(DECADES * BUCKETS_PER_DECADE + 1)
)

#: total bucket count including the overflow bucket.
BUCKET_COUNT = len(BUCKET_BOUNDS_MS) + 1

_EMPTY_COUNTS: Tuple[int, ...] = (0,) * BUCKET_COUNT


def bucket_index(value_ms: float) -> int:
    """Index of the bucket holding ``value_ms`` (last index = overflow).

    Bucket upper bounds are inclusive, mirroring Prometheus ``le``
    semantics; non-positive values land in bucket 0.
    """
    if value_ms <= BUCKET_BOUNDS_MS[0]:
        return 0
    return bisect_left(BUCKET_BOUNDS_MS, value_ms)


@dataclass
class HistogramStats(Stats):
    """Point-in-time histogram snapshot (see :class:`repro.obs.Stats`).

    ``counts`` always has :data:`BUCKET_COUNT` entries in bucket order, so
    snapshots merge and diff positionally; ``sum_ms``/``min_ms``/``max_ms``
    are exact observed values, not bucket bounds.
    """

    derived = ("mean_ms", "p50_ms", "p95_ms", "p99_ms")

    count: int = 0
    sum_ms: float = 0.0
    min_ms: float = 0.0
    max_ms: float = 0.0
    counts: Tuple[int, ...] = _EMPTY_COUNTS

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile in ms (linear within the winning bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            below = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lower = BUCKET_BOUNDS_MS[index - 1] if index > 0 else 0.0
                upper = (
                    BUCKET_BOUNDS_MS[index]
                    if index < len(BUCKET_BOUNDS_MS)
                    else max(self.max_ms, lower)
                )
                estimate = lower + (upper - lower) * ((rank - below) / bucket_count)
                return min(max(estimate, self.min_ms), self.max_ms)
        return self.max_ms  # pragma: no cover - cumulative always reaches count

    @property
    def p50_ms(self) -> float:
        return self.quantile(0.50)

    @property
    def p95_ms(self) -> float:
        return self.quantile(0.95)

    @property
    def p99_ms(self) -> float:
        return self.quantile(0.99)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "HistogramStats":
        """Rebuild a snapshot from its :meth:`as_dict` form.

        This is the cross-process half of the merge story: worker processes
        ship their snapshots as JSON (``Stats.as_dict`` output), and the
        supervisor reconstructs them here before calling :meth:`merged`.
        Derived fields (mean/quantiles) in the payload are ignored — they
        are recomputed from the counts.  A payload whose ``counts`` length
        does not match :data:`BUCKET_COUNT` is rejected loudly, because
        silently merging histograms with different bucket layouts would
        corrupt every quantile.
        """
        counts = tuple(int(entry) for entry in payload.get("counts", ()))
        if len(counts) != BUCKET_COUNT:
            raise ValueError(
                f"histogram payload has {len(counts)} buckets, expected {BUCKET_COUNT}"
            )
        return cls(
            count=int(payload.get("count", 0)),
            sum_ms=float(payload.get("sum_ms", 0.0)),
            min_ms=float(payload.get("min_ms", 0.0)),
            max_ms=float(payload.get("max_ms", 0.0)),
            counts=counts,
        )

    @classmethod
    def merged(cls, parts: Iterable["HistogramStats"]) -> "HistogramStats":
        """Bucket-wise sum of several snapshots (e.g. one per shard)."""
        populated = [part for part in parts if part.count]
        if not populated:
            return cls()
        counts = tuple(sum(column) for column in zip(*(part.counts for part in populated)))
        return cls(
            count=sum(part.count for part in populated),
            sum_ms=sum(part.sum_ms for part in populated),
            min_ms=min(part.min_ms for part in populated),
            max_ms=max(part.max_ms for part in populated),
            counts=counts,
        )


@dataclass
class _HistogramState:
    """Mutable accumulator behind the lock (kept out of the public type)."""

    counts: list = field(default_factory=lambda: [0] * BUCKET_COUNT)
    count: int = 0
    sum_ms: float = 0.0
    min_ms: float = math.inf
    max_ms: float = 0.0


class LatencyHistogram(StatsSource):
    """Thread-safe streaming histogram of latencies in milliseconds.

    Records are O(1) and bounded in memory; :meth:`stats` returns an
    immutable :class:`HistogramStats` snapshot that embeds anywhere the
    :class:`repro.obs.Stats` protocol reaches (``ServerStats``,
    ``RouterStats``, cache stats, ``/metrics``).
    """

    def __init__(self) -> None:
        self._state = _HistogramState()
        self._lock = threading.Lock()

    def record(self, value_ms: float) -> None:
        """Add one observation (milliseconds; non-finite values ignored)."""
        if not math.isfinite(value_ms):
            return
        index = bucket_index(value_ms)
        with self._lock:
            state = self._state
            state.counts[index] += 1
            state.count += 1
            state.sum_ms += value_ms
            if value_ms < state.min_ms:
                state.min_ms = value_ms
            if value_ms > state.max_ms:
                state.max_ms = value_ms

    def record_seconds(self, value_seconds: float) -> None:
        self.record(1e3 * value_seconds)

    def extend(self, values_ms: Sequence[float]) -> None:
        for value in values_ms:
            self.record(value)

    def __len__(self) -> int:
        with self._lock:
            return self._state.count

    def clear(self) -> None:
        with self._lock:
            self._state = _HistogramState()

    def stats(self) -> HistogramStats:
        with self._lock:
            state = self._state
            return HistogramStats(
                count=state.count,
                sum_ms=state.sum_ms,
                min_ms=state.min_ms if state.count else 0.0,
                max_ms=state.max_ms,
                counts=tuple(state.counts),
            )
