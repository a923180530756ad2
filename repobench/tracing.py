"""Spans for the traced run, recorded from outside the program.

The traced run wraps the public entry point of every measured layer from
this file, so no source file of the program changes.  Each wrapper is
installed where callers look the name up: a class attribute for methods,
and the importing module's global for functions imported by name (for
example ``repro.adpa.model.build_dp_operators``).  :class:`Patcher`
remembers every original; :meth:`Patcher.restore` puts them back and
checks that it did.  An entry point a later version deleted is simply not
wrapped, and its metrics read zero.

Spans (name, start, end, parent, thread, request id) are kept in memory
while :attr:`SpanRecorder.active` is set and written out at the end.  A
span's parent is the innermost span open on the same thread when it
started; async spans have none, because coroutines interleave on one
thread.  A layer's self time is its span minus the part its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    request: Any = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class SpanRecorder:
    """Thread-safe in-memory span log; wrappers record only while ``active``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int) -> int:
        span = Span(name, time.perf_counter(), parent=parent, thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def add(self, name: str, start: float, end: float, request: Any = None) -> None:
        """Record a span the benchmark timed itself (a client request)."""
        span = Span(name, start, end, thread=threading.get_ident(), request=request)
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``extra(result)`` may return numbers to keep on the span (operator
        nnz, epochs run, a worker's own latency).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            index = recorder._open(name, stack[-1] if stack else -1)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.spans[index].end = time.perf_counter()
            if extra is not None:
                recorder.spans[index].extra = extra(result)
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        """The coroutine counterpart of :meth:`wrap`."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not recorder.active:
                return await fn(*args, **kwargs)
            index = recorder._open(name, -1)
            try:
                result = await fn(*args, **kwargs)
            finally:
                recorder.spans[index].end = time.perf_counter()
            if extra is not None:
                recorder.spans[index].extra = extra(result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w") as stream:
            for index, span in enumerate(self.spans):
                stream.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start_ms": 1e3 * (span.start - origin),
                    "end_ms": 1e3 * (span.end - origin),
                    "parent": span.parent,
                    "thread": span.thread,
                    "request": span.request,
                    **span.extra,
                }) + "\n")


class Patcher:
    """Installs wrappers and restores the originals afterwards."""

    def __init__(self) -> None:
        self._patched: List[tuple] = []

    def patch(self, owner: Any, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, wrapper(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patched
            if vars(owner)[attr] is not original
        ]
        if leftovers:
            raise RuntimeError(f"wrappers were not removed from {leftovers}")


def _optional(module: str, attr: str) -> Any:
    """``module.attr``, or ``None`` once a later version removed it."""
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def _classifier_classes() -> List[type]:
    """Every model class, ADPA included (it registers lazily)."""
    from repro.models.base import NodeClassifier

    importlib.import_module("repro.models.registry")
    importlib.import_module("repro.adpa.model")
    found: List[type] = []
    pending = [NodeClassifier]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _nnz(operators: Dict[str, Any]) -> Dict[str, float]:
    return {"nnz": float(sum(matrix.nnz for matrix in operators.values()))}


def _epochs(result: Any) -> Dict[str, float]:
    return {"epochs": float(result.epochs_run)}


def _engine_ms(ticket: Any) -> Dict[str, float]:
    return {"engine_ms": 1e3 * (ticket.latency_seconds or 0.0)}


def _worker_ms(result: Any) -> Dict[str, float]:
    if isinstance(result, dict) and "latency_ms" in result:
        return {"worker_ms": float(result["latency_ms"])}
    return {}


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap each layer's public entry points; returns the restoring patcher."""
    patcher = Patcher()

    def wrap(owner: Any, attr: str, name: str, extra: Optional[Callable] = None) -> None:
        if owner is not None and attr in vars(owner):
            patcher.patch(owner, attr, lambda fn: recorder.wrap(name, fn, extra))

    router = _optional("repro.serving.router", "ShardRouter")
    if router is not None and "asubmit_ticket" in vars(router):
        patcher.patch(
            router,
            "asubmit_ticket",
            lambda fn: recorder.wrap_async("router.asubmit", fn, _engine_ms),
        )
    wrap(importlib.import_module("repro.serving.router"), "restore_model", "artifacts.restore")
    wrap(_optional("repro.serving.cache", "OperatorCache"), "preprocess", "cache.preprocess")
    wrap(_optional("repro.serving.trace", "TraceCache"), "compile_and_store", "trace.compile")
    wrap(_optional("repro.serving.trace", "TracedProgram"), "run", "trace.run")
    for cls in _classifier_classes():
        wrap(cls, "predict_logits", "model.predict_logits")
        wrap(cls, "preprocess", "model.preprocess")
        wrap(cls, "update_preprocess", "model.update_preprocess")
        wrap(cls, "forward", "model.forward")
    wrap(importlib.import_module("repro.adpa.propagation"), "directed_pattern_operators", "operators.dp")
    adpa = importlib.import_module("repro.adpa.model")
    wrap(adpa, "build_dp_operators", "operators.build", _nnz)
    wrap(adpa, "propagate_features", "operators.propagate")
    wrap(_optional("repro.graph.digraph", "DirectedGraph"), "apply_delta", "delta.apply")
    wrap(_optional("repro.nn.tensor", "Tensor"), "backward", "nn.backward")
    for optimizer in ("Adam", "SGD"):
        wrap(_optional("repro.nn.optim", optimizer), "step", "nn.step")
    wrap(_optional("repro.training.trainer", "Trainer"), "fit", "trainer.fit", _epochs)
    wrap(importlib.import_module("repro.api.session"), "apply_amud", "amud.decide")
    pool = _optional("repro.cluster.pool", "WorkerPool")
    wrap(pool, "call", "cluster.call", _worker_ms)
    wrap(pool, "start", "cluster.spawn")
    return patcher


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def mean(values: Sequence[float]) -> float:
    return fmean(values) if len(values) else 0.0


def spans_named(spans: Sequence[Span], name: str, require: Optional[str] = None) -> List[Span]:
    """Finished spans called ``name`` (optionally carrying ``extra[require]``)."""
    return [
        span for span in spans
        if span.name == name and span.end > 0.0 and (require is None or require in span.extra)
    ]


def summarize(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics read from every recorded span.

    Times are means per call, except the ``nn`` and ``trainer`` times,
    which are per training epoch.  A span nested in a span of the same
    name (a subclass calling ``super()``) is not counted twice.
    """
    spans = recorder.spans

    def has_ancestor(span: Span, names: set) -> bool:
        parent = span.parent
        while parent >= 0:
            if spans[parent].name in names:
                return True
            parent = spans[parent].parent
        return False

    top: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        if span.end > 0.0 and not has_ancestor(span, {span.name}):
            top.setdefault(span.name, []).append(index)

    def ms(name: str, under: Optional[str] = None) -> List[float]:
        return [
            spans[index].ms for index in top.get(name, [])
            if under is None or has_ancestor(spans[index], {under})
        ]

    dp_inside: Dict[int, float] = {}
    for span in spans_named(spans, "operators.dp"):
        if span.parent >= 0:
            dp_inside[span.parent] = dp_inside.get(span.parent, 0.0) + span.ms
    builds = top.get("operators.build", [])
    epochs = sum(spans[index].extra.get("epochs", 0.0) for index in top.get("trainer.fit", []))

    def per_epoch(name: str) -> float:
        return sum(ms(name, under="trainer.fit")) / epochs if epochs else 0.0

    return {
        "trace.compile_ms": mean(ms("trace.compile")),
        "trace.run_ms": mean(ms("trace.run")),
        "artifacts.restore_ms": mean(ms("artifacts.restore")),
        "model.forward_ms": mean(ms("model.predict_logits")),
        "model.preprocess_ms": mean(ms("model.preprocess")),
        "model.update_preprocess_ms": mean(ms("model.update_preprocess")),
        "operators.build_ms": mean(ms("operators.dp")),
        "operators.normalize_ms": mean(
            [spans[index].ms - dp_inside.get(index, 0.0) for index in builds]
        ),
        "operators.propagate_ms": mean(ms("operators.propagate")),
        "operators.nnz": mean([spans[index].extra.get("nnz", 0.0) for index in builds]),
        "delta.apply_ms": mean(ms("delta.apply")),
        "nn.forward_ms": per_epoch("model.forward"),
        "nn.backward_ms": per_epoch("nn.backward"),
        "nn.step_ms": per_epoch("nn.step"),
        "trainer.epoch_ms": sum(ms("trainer.fit")) / epochs if epochs else 0.0,
        "trainer.epochs": float(epochs),
        "amud.decide_ms": mean(ms("amud.decide")),
        "cluster.spawn_s": mean(ms("cluster.spawn")) / 1e3,
    }
