"""Micro-batching inference engine for node-classification requests.

The serving observation behind the paper's decoupled design: once
``preprocess()`` is cached, a forward pass prices the *whole graph* at MLP
cost, so concurrent requests for node subsets should never each pay for
their own forward.  :class:`InferenceServer` therefore runs a single worker
thread that

1. pulls the first pending request off a thread-safe queue,
2. coalesces everything else that arrives within ``max_wait_ms`` into one
   micro-batch (a graph swap, a retire marker or ``stop()`` closes it
   early; the :class:`repro.serving.ShardRouter` that owns the engine
   bounds it with its slot pool),
3. groups the batch by graph fingerprint, runs **one** forward per distinct
   graph (preprocess served from the shared :class:`OperatorCache`),
4. fans the logit rows back out to each request's ticket.

Observability is built in: per-request latencies stream into a bounded
log-bucketed :class:`repro.obs.LatencyHistogram` (exact mean/max plus
p50/p95/p99 readout, O(1) per request — no latency list that grows with
traffic), every ticket carries a :class:`repro.obs.RequestTrace` whose
queue / cache / forward / deliver spans account exactly for its
end-to-end latency, and completed traces land in a bounded ring buffer
(:meth:`InferenceServer.recent_traces`) for post-hoc debugging of slow
requests.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fingerprint import state_fingerprint
from ..graph.delta import GraphDelta
from ..graph.digraph import DirectedGraph
from ..models.base import NodeClassifier
from ..obs.histogram import HistogramStats, LatencyHistogram
from ..obs.spans import RequestTrace, TraceBuffer
from ..obs.stats import Stats, StatsSource
from .cache import CacheStats, LRUCache, OperatorCache

#: queue sentinel telling the worker thread to exit.
_STOP = object()


class ServerOverloaded(RuntimeError):
    """Raised when the :class:`repro.serving.ShardRouter` slot pool is full.

    The router's slot pool is the only admission bound: an engine admits
    every request it is handed.
    """


def _clone_exception(error: BaseException) -> BaseException:
    """A per-ticket copy of a shared batch failure.

    Concurrent ``result()`` calls re-raise their ticket's exception on
    multiple client threads; ``raise`` mutates ``__traceback__`` in place,
    so handing the *same* exception object to every ticket in a failed
    group is a data race.  Each ticket gets its own shallow copy (falling
    back to a ``RuntimeError`` wrapper for exceptions that refuse to
    copy), chained to the original via ``__cause__``.
    """
    try:
        clone = copy.copy(error)
    except Exception:
        clone = None
    if clone is None or clone is error:
        clone = RuntimeError(f"{type(error).__name__}: {error}")
    clone.__cause__ = error
    clone.__traceback__ = None
    return clone


class GraphSwapTicket:
    """Handle returned by :meth:`InferenceServer.swap_graph`.

    Resolves once the worker has warmed the new fingerprint, swapped the
    bound graph and surgically invalidated entries keyed by the old one.
    ``in_place`` reports whether the model patched its preprocess cache
    incrementally (``True``) or took the full re-preprocess fallback;
    ``invalidated`` counts the entries dropped per cache layer.
    """

    def __init__(self, delta: GraphDelta) -> None:
        self.delta = delta
        self.old_fingerprint: Optional[str] = None
        self.new_fingerprint: Optional[str] = None
        self.in_place: Optional[bool] = None
        self.invalidated: Dict[str, int] = {}
        self._done = threading.Event()
        self._graph: Optional[DirectedGraph] = None
        self._error: Optional[BaseException] = None

    def _complete(self, graph: DirectedGraph) -> None:
        if self._done.is_set():
            return
        self._graph = graph
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        if self._done.is_set():
            return
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> DirectedGraph:
        """Block until applied; returns the mutated graph now being served."""
        if not self._done.wait(timeout):
            raise TimeoutError("graph swap did not complete in time")
        if self._error is not None:
            raise self._error
        return self._graph


class _RetireMarker:
    """Queue sentinel that retires a swapped-out fingerprint.

    Enqueued by the worker right after it applies a swap.  FIFO ordering
    guarantees every ticket that bound the old graph (submitted before the
    swap was applied) drains ahead of the marker, so when the marker is
    processed the old fingerprint's cache entries have no remaining
    readers and can be dropped without anyone repaying a preprocess.
    The swap ticket completes here, so blocking callers still observe
    "invalidation done" when :meth:`GraphSwapTicket.result` returns.
    """

    __slots__ = ("swap", "graph")

    def __init__(self, swap: GraphSwapTicket, graph: DirectedGraph) -> None:
        self.swap = swap
        self.graph = graph


class InferenceTicket:
    """Handle returned by :meth:`InferenceServer.submit`.

    ``result()`` blocks until the worker has fanned the batch back out and
    returns the predicted class per requested node; ``logits`` holds the raw
    rows for callers that need scores.
    """

    def __init__(self, node_ids: Optional[np.ndarray], graph: DirectedGraph) -> None:
        self.node_ids = node_ids
        self.graph = graph
        self.enqueued_at = time.perf_counter()
        #: stage spans (queue / cache / forward / deliver) on the same
        #: clock as ``enqueued_at``; populated by the worker as the
        #: request moves through the pipeline.
        self.trace = RequestTrace(started_at=self.enqueued_at)
        if node_ids is not None:
            self.trace.annotate("nodes", int(node_ids.size))
        self.latency_seconds: Optional[float] = None
        self._done = threading.Event()
        self._predictions: Optional[np.ndarray] = None
        self._logits: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._callback_lock = threading.Lock()
        self._callbacks: List = []

    def _complete(self, logits: np.ndarray) -> None:
        if self._done.is_set():  # completion is final; never re-resolve
            return
        self._logits = logits
        self._predictions = logits.argmax(axis=1)
        self.latency_seconds = time.perf_counter() - self.enqueued_at
        self.trace.mark("deliver")
        self.trace.annotate("outcome", "ok")
        self._done.set()
        self._fire_callbacks()

    def _fail(self, error: BaseException) -> None:
        if self._done.is_set():
            return
        self._error = error
        self.latency_seconds = time.perf_counter() - self.enqueued_at
        self.trace.mark("deliver")
        self.trace.annotate("outcome", "error")
        self.trace.annotate("error", type(error).__name__)
        self._done.set()
        self._fire_callbacks()

    def _fire_callbacks(self) -> None:
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                # A broken callback (e.g. an asubmit_ticket resolving into a
                # closed event loop) must not corrupt the ticket, skip later
                # callbacks, or take down the worker thread.
                traceback.print_exc()

    def add_done_callback(self, callback) -> None:
        """Run ``callback(ticket)`` once the request completes (or fails).

        Registered after completion, the callback runs immediately on the
        caller's thread; otherwise it runs on the worker thread, so it must
        be quick.  A raising callback is printed and swallowed — completion
        is final and later callbacks still run.  The
        :class:`repro.serving.ShardRouter` uses this to release its
        back-pressure slot, and ``asubmit_ticket`` to resolve asyncio
        futures.
        """
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        if not self._done.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._predictions

    @property
    def logits(self) -> np.ndarray:
        if not self._done.is_set() or self._logits is None:
            raise RuntimeError("request has not completed successfully")
        return self._logits

    def spans(self) -> Dict[str, float]:
        """Per-stage timings (ms) of the completed request.

        Keys are ``queue`` / ``cache`` / ``forward`` / ``deliver``; the
        values sum to the trace's ``total_ms`` by construction.
        """
        return self.trace.spans()


@dataclass
class ServerStats(Stats):
    """Point-in-time serving counters (see :class:`repro.obs.stats.Stats`).

    ``mean_latency_ms``/``max_latency_ms`` keep their historical meaning
    (exact values, tracked alongside the histogram); ``latency`` carries
    the full log-bucketed distribution, from which the derived
    ``p50/p95/p99_latency_ms`` tails are read.
    """

    derived = ("p50_latency_ms", "p95_latency_ms", "p99_latency_ms")

    requests: int
    batches: int
    forwards: int
    mean_batch_size: float
    mean_latency_ms: float
    max_latency_ms: float
    uptime_seconds: float
    requests_per_second: float
    cache: CacheStats
    logit_cache: CacheStats
    #: full request-latency distribution (log-spaced buckets, mergeable).
    latency: HistogramStats = field(default_factory=HistogramStats)

    @property
    def p50_latency_ms(self) -> float:
        return self.latency.p50_ms

    @property
    def p95_latency_ms(self) -> float:
        return self.latency.p95_ms

    @property
    def p99_latency_ms(self) -> float:
        return self.latency.p99_ms


class InferenceServer(StatsSource):
    """Serve node predictions from a trained model under concurrent load.

    The model is owned by the single worker thread (the autograd modules are
    not thread-safe); client threads only touch the queue and their tickets.
    :meth:`repro.serving.ShardRouter.add_shard` builds one engine per
    shard, hands it the router's shared operator and logit caches, starts
    and stops it with the router, and submits through the router's slot
    pool.
    """

    def __init__(
        self,
        model: NodeClassifier,
        graph: DirectedGraph,
        *,
        operator_cache: OperatorCache,
        logit_cache: LRUCache,
        max_wait_ms: float = 2.0,
    ) -> None:
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.model = model.eval()
        self.graph = graph
        self.cache = operator_cache
        # Serving assumes frozen weights, so full-graph eval logits are a
        # pure function of (weights version, graph fingerprint) and can be
        # memoised; call :meth:`clear_logit_cache` if the model's parameters
        # are mutated.  The cache is shared between the servers of one
        # router — the weights-version key field keeps entries of
        # side-by-side hot-swapped artifacts apart.
        self._logit_cache = logit_cache
        self._logit_key_prefix = self._weights_key()
        self.max_wait_seconds = max_wait_ms / 1000.0
        # Unbounded, so submit() never blocks under the lifecycle lock and
        # the stop sentinel can always be enqueued.
        self._queue: "queue.Queue" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._running = False
        # Guards the running-flag check-then-enqueue in submit() against a
        # concurrent stop(): without it a ticket could land behind the
        # sentinel after the drain and leave its client blocked forever.
        self._lifecycle_lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._metrics_lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._forwards = 0
        # Bounded observability state: a fixed-bucket histogram instead of
        # a latency list that scales with traffic, and a ring of recent
        # request traces for debugging tail latencies.
        self._latency = LatencyHistogram()
        self._trace_log = TraceBuffer()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceServer":
        with self._lifecycle_lock:
            if self._running:
                return self
            if self._worker is not None:
                raise RuntimeError(
                    "previous worker thread has not exited; refusing to start a "
                    "second worker against the same model"
                )
            self._running = True
            self._started_at = time.perf_counter()
            self._worker = threading.Thread(target=self._serve_loop, daemon=True)
            self._worker.start()
            return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        with self._lifecycle_lock:
            if not self._running:
                return
            self._running = False
            self._queue.put(_STOP)
            if self._worker is not None:
                self._worker.join(timeout)
                if self._worker.is_alive():
                    # The worker still owns the queue and the model; leave
                    # both alone (start() will refuse until it exits).
                    return
                self._worker = None
            # The worker exits at the sentinel, but a retire marker it
            # enqueued behind the sentinel (or tickets a crashed worker
            # never reached) must still resolve, not block their clients.
            while True:
                try:
                    leftover = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(leftover, _RetireMarker):
                    # The swap behind it already applied; finish its
                    # bookkeeping inline rather than reporting a failure.
                    self._finish_retire(leftover)
                elif leftover is not _STOP:
                    leftover._fail(
                        RuntimeError("InferenceServer stopped before serving request")
                    )

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def swap_graph(self, delta: GraphDelta) -> GraphSwapTicket:
        """Apply a live :class:`GraphDelta` to the bound graph.

        On a running server the swap is a control message on the request
        queue: the worker finishes the batch in flight, applies the delta
        (incremental fingerprint), **warms the new fingerprint before
        swapping** — via the model's in-place ``update_preprocess`` when
        supported, a full re-preprocess otherwise — rebinds ``self.graph``
        and then surgically invalidates operator/logit entries keyed
        by the old fingerprint.  The invalidation is deferred through a
        queue marker so requests already bound to the old graph (they sit
        between the swap and the marker in FIFO order) keep answering from
        the still-warm cache — nobody repays a preprocess of a retired
        graph.  On a stopped server the swap applies inline.

        Returns the :class:`GraphSwapTicket` without waiting;
        ``swap.result(timeout)`` waits for completion and re-raises any
        failure.  Do not wait from the worker thread itself (done
        callbacks), it would deadlock.
        """
        swap = GraphSwapTicket(delta)
        with self._lifecycle_lock:
            if self._running:
                self._queue.put(swap)
            else:
                self._apply_swap(swap)
        return swap

    def clear_logit_cache(self) -> None:
        """Drop memoised logits (required after any weight mutation).

        Also invalidates the cached weights version, so the next forward
        rehashes the (possibly mutated) state dict.  With a shared logit
        cache this clears every server's entries, which is safe — they all
        recompute on the next request.
        """
        self._logit_cache.clear()
        self._logit_key_prefix = self._weights_key()

    def _weights_key(self) -> Tuple[str, str]:
        """The logit-key prefix: model signature and weights version.

        The signature covers hyper-parameters outside the state dict (e.g.
        SGC's num_steps), which change the forward output without changing
        any weight, as :func:`repro.fingerprint.preprocess_key` does for the
        operator cache.  Every parameter exists from construction, so the
        state dict hashed here is the one every forward uses; the prefix is
        hashed once, and again only by :meth:`clear_logit_cache`, so the
        hot batch loop never rehashes the weights.
        """
        return (self.model.signature(), state_fingerprint(self.model.state_dict()))

    def submit(
        self,
        node_ids: Optional[Sequence[int]] = None,
        graph: Optional[DirectedGraph] = None,
    ) -> InferenceTicket:
        """Enqueue a prediction request for a node subset (``None`` = all).

        Never waits: the engine admits every request, and the
        :class:`repro.serving.ShardRouter` slot pool is the only admission
        bound.  ``node_ids`` must be a 1-D sequence of non-negative
        integers; anything else raises :class:`ValueError` here.
        """
        ids = None
        if node_ids is not None:
            ids = np.asarray(node_ids)
            # These would be answered wrongly instead of failing: floats
            # truncate, booleans become ids 0/1, a 2-D array returns a matrix.
            if ids.ndim != 1:
                raise ValueError(f"node_ids must be 1-D, got shape {ids.shape}")
            if ids.size and not np.issubdtype(ids.dtype, np.integer):
                raise ValueError(f"node_ids must be integers, got dtype {ids.dtype}")
            ids = ids.astype(np.int64, copy=False)
            if ids.size and ids.min() < 0:
                # Negative ids would wrap and return another node's answer.
                raise ValueError(f"node_ids must be non-negative, got min {ids.min()}")
        ticket = InferenceTicket(ids, graph if graph is not None else self.graph)
        with self._lifecycle_lock:
            if not self._running:
                raise RuntimeError("InferenceServer is not running; call start() first")
            self._queue.put(ticket)
        return ticket

    def stats(self) -> ServerStats:
        with self._metrics_lock:
            requests, batches, forwards = self._requests, self._batches, self._forwards
        latency = self._latency.stats()
        uptime = (
            time.perf_counter() - self._started_at if self._started_at is not None else 0.0
        )
        return ServerStats(
            requests=requests,
            batches=batches,
            forwards=forwards,
            mean_batch_size=requests / batches if batches else 0.0,
            mean_latency_ms=latency.mean_ms,
            max_latency_ms=latency.max_ms,
            uptime_seconds=uptime,
            requests_per_second=requests / uptime if uptime > 0 else 0.0,
            cache=self.cache.stats(),
            logit_cache=self._logit_cache.stats(),
            latency=latency,
        )

    def recent_traces(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most-recent-first span dicts of completed requests (bounded ring)."""
        return self._trace_log.snapshot(limit)

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _apply_swap(self, swap: GraphSwapTicket, *, defer_retire: bool = False) -> None:
        """Worker-side (or stopped-server inline) application of one swap.

        Order matters: the new fingerprint is warmed first — so the old
        graph keeps serving while the expensive part runs — then the bound
        graph flips, then the old fingerprint's cache entries drop.

        With ``defer_retire`` (the running-server path) the drop does not
        happen here: tickets submitted while the swap sat in the queue are
        bound to the old graph and are still *behind* it in FIFO order —
        invalidating now would force each of their batches to repay a full
        preprocess of a graph we just stopped serving.  Instead a
        :class:`_RetireMarker` is enqueued; the old entries retire when it
        drains, after every old-graph ticket has been answered from the
        still-warm cache.  The swap ticket completes at the marker, so a
        caller waiting on :meth:`GraphSwapTicket.result` still returns with
        invalidation finished.
        """
        old_graph = self.graph
        try:
            old_fp = old_graph.fingerprint()
            swap.old_fingerprint = old_fp
            new_graph = old_graph.apply_delta(swap.delta)
            new_fp = new_graph.fingerprint()
            swap.new_fingerprint = new_fp
            updated = None
            old_cache = self.cache.lookup(self.model, old_graph)
            if old_cache is not None:
                updated = self.model.update_preprocess(
                    old_graph, new_graph, swap.delta, old_cache
                )
            # Old and new entries coexist until the marker drains; make
            # room so seeding the successor cannot LRU-evict the entry the
            # queued old-graph tickets are about to read.
            self.cache.grow(len(self.cache) + 1)
            if updated is not None:
                self.cache.seed(self.model, new_graph, updated)
                swap.in_place = True
            else:
                self.cache.preprocess(self.model, new_graph)
                swap.in_place = False
            self.graph = new_graph
            if new_fp == old_fp:  # an empty delta must not drop its own entries
                swap._complete(new_graph)
            elif defer_retire:
                self._queue.put(_RetireMarker(swap, new_graph))
            else:
                swap.invalidated = self._retire_fingerprint(old_fp)
                swap._complete(new_graph)
        except BaseException as error:
            swap._fail(error)

    def _retire_fingerprint(self, old_fp: str) -> Dict[str, int]:
        """Surgically drop every cache entry keyed by ``old_fp``."""
        return {
            "operator": self.cache.invalidate_graph(old_fp),
            "logits": self._logit_cache.discard_where(
                lambda key: isinstance(key, tuple) and bool(key) and key[-1] == old_fp
            ),
        }

    def _finish_retire(self, marker: _RetireMarker) -> None:
        """Process a drained :class:`_RetireMarker`: invalidate, then resolve."""
        swap = marker.swap
        try:
            swap.invalidated = self._retire_fingerprint(swap.old_fingerprint)
            swap._complete(marker.graph)
        except BaseException as error:  # pragma: no cover - cache layer is robust
            swap._fail(error)

    def _serve_loop(self) -> None:
        item = self._queue.get()
        while item is not _STOP:
            closer = None
            if isinstance(item, GraphSwapTicket):
                self._apply_swap(item, defer_retire=True)
            elif isinstance(item, _RetireMarker):
                self._finish_retire(item)
            else:
                # A swap, retire marker or the stop sentinel closes the
                # batch and is handled next, so tickets ahead of it see the
                # old state and tickets behind it the new one (FIFO order).
                batch = [item]
                deadline = time.perf_counter() + self.max_wait_seconds
                while True:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if not isinstance(nxt, InferenceTicket):
                        closer = nxt
                        break
                    batch.append(nxt)
                self._process_batch(batch)
            item = closer if closer is not None else self._queue.get()

    def _process_batch(self, batch: List[InferenceTicket]) -> None:
        # One shared timestamp closes every ticket's queue span: they all
        # left the queue when this batch started processing.
        dequeued_at = time.perf_counter()
        groups: Dict[str, List[InferenceTicket]] = {}
        graphs: Dict[str, DirectedGraph] = {}
        for ticket in batch:
            ticket.trace.mark("queue", dequeued_at)
            key = ticket.graph.fingerprint()
            groups.setdefault(key, []).append(ticket)
            graphs.setdefault(key, ticket.graph)

        forwards = 0
        for key, tickets in groups.items():
            graph = graphs[key]
            try:
                logits = self._logit_cache.get((*self._logit_key_prefix, key))
                if logits is None:
                    cache = self.cache.preprocess(self.model, graph)
                    cache_done = time.perf_counter()
                    logits = self.model.predict_logits(graph, cache)
                    path = "eager"
                    forwards += 1
                    # Full-graph tickets alias this array; freeze it so a
                    # client mutating ticket.logits in place cannot
                    # corrupt the cached copy served to later requests.
                    logits.setflags(write=False)
                    self._logit_cache.put((*self._logit_key_prefix, key), logits)
                    forward_done = time.perf_counter()
                else:
                    # Memoised hit: the whole compute stage was a dict read.
                    cache_done = forward_done = time.perf_counter()
                    path = "memoised"
            except BaseException as error:  # fan the failure out, keep serving
                for ticket in tickets:
                    # Each ticket gets its own exception object: clients
                    # re-raise concurrently and must not share a traceback.
                    ticket._fail(_clone_exception(error))
                continue
            for ticket in tickets:
                ticket.trace.mark("cache", cache_done)
                ticket.trace.mark("forward", forward_done)
                ticket.trace.annotate("path", path)
                try:
                    rows = logits if ticket.node_ids is None else logits[ticket.node_ids]
                    ticket._complete(rows)
                except BaseException as error:  # e.g. out-of-range node ids
                    ticket._fail(error)

        with self._metrics_lock:
            self._requests += len(batch)
            self._batches += 1
            self._forwards += forwards
        for ticket in batch:
            if ticket.latency_seconds is not None:
                self._latency.record_seconds(ticket.latency_seconds)
                self._trace_log.append(ticket.trace.as_dict())
