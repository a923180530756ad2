"""Per-request trace spans: where did this request's latency go?

A mean latency says a request was slow; a trace says *why*.  Every
:class:`repro.serving.engine.InferenceTicket` carries a
:class:`RequestTrace` from the moment it is submitted.  The engine worker
marks the stage boundaries as the request moves through the pipeline:

``queue``
    submission → the worker pulls the request's micro-batch off the queue
    (includes the coalescing window);
``cache``
    logit-cache lookup plus — on a miss — the operator-cache preprocess;
``forward``
    the tape-off eager forward (≈0 on a memoised hit);
``deliver``
    fan-out of the logit rows into the ticket and callback firing.

Spans are computed as differences of consecutive marks on one monotonic
clock, and the trace's ``total_ms`` is *defined* as their sum, so the
per-stage timings always account exactly for the end-to-end figure — the
property the tail-latency benchmark asserts.

Completed traces land in a bounded :class:`TraceBuffer` ring per engine;
the HTTP front door exposes the merged recent traces at ``/traces`` so a
slow request can be debugged after the fact without any external tracing
infrastructure.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

#: default number of completed request traces each engine keeps around.
DEFAULT_TRACE_BUFFER = 256


class RequestTrace:
    """Ordered stage marks on one monotonic clock, plus small metadata.

    Cheap enough to attach to every request: recording a mark appends one
    tuple, no clock math happens until :meth:`spans` is asked for.
    """

    __slots__ = ("started_at", "wall_time", "marks", "meta")

    def __init__(self, started_at: Optional[float] = None) -> None:
        self.started_at = time.perf_counter() if started_at is None else started_at
        #: wall-clock birth time (the monotonic marks only order spans).
        self.wall_time = time.time()
        self.marks: List[Tuple[str, float]] = []
        self.meta: Dict[str, object] = {}

    def mark(self, stage: str, at: Optional[float] = None) -> None:
        """Close the current stage at ``at`` (default: now).

        One shared timestamp may be passed for every ticket of a batch so
        their spans stay comparable.
        """
        self.marks.append((stage, time.perf_counter() if at is None else at))

    def annotate(self, key: str, value: object) -> None:
        """Attach a metadata entry (node count, shard, error, ...)."""
        self.meta[key] = value

    def spans(self) -> Dict[str, float]:
        """Stage → duration in ms, in recorded order.

        Durations are differences of consecutive marks starting from
        ``started_at``; a stage recorded twice folds into one entry.
        """
        out: Dict[str, float] = {}
        previous = self.started_at
        for stage, at in self.marks:
            out[stage] = out.get(stage, 0.0) + 1e3 * (at - previous)
            previous = at
        return out

    @property
    def total_ms(self) -> float:
        """End-to-end duration, by definition the sum of the spans."""
        return sum(self.spans().values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (what the ring buffer and ``/traces`` store)."""
        spans = self.spans()
        payload: Dict[str, object] = {
            "started_at": self.started_at,
            "wall_time": self.wall_time,
            "spans": {stage: round(value, 6) for stage, value in spans.items()},
            "total_ms": round(sum(spans.values()), 6),
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload


class TraceBuffer:
    """Bounded, thread-safe ring of recently completed trace dicts.

    The engine worker appends; HTTP/stats readers snapshot concurrently.
    Old traces fall off the far end, so memory stays constant no matter
    how long the server runs.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_BUFFER) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def append(self, trace: Dict[str, object]) -> None:
        with self._lock:
            self._entries.append(trace)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most-recent-first list of buffered traces (up to ``limit``)."""
        with self._lock:
            entries = list(self._entries)
        entries.reverse()
        return entries if limit is None else entries[: max(0, limit)]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
