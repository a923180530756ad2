"""Shard routing: the one in-process serving stack, for one model or many.

:class:`ShardRouter` owns one :class:`repro.serving.engine.InferenceServer`
per registered shard (:meth:`ShardRouter.add_shard` is the only place an
engine is built, and the router starts and stops them).  Each shard binds
a trained model to the graph it serves, requests are routed by
fingerprinting their graph (or by explicit shard name), and a bounded
front-door slot pool applies back-pressure across all shards.  That pool
is the only admission bound: the engines behind it admit every request.
:meth:`repro.api.Session.serve` builds a router from model handles and
artifact directories.

Admission never waits.  A request takes a slot, held until its ticket
completes, or raises :class:`repro.serving.engine.ServerOverloaded` at
once when ``max_pending`` requests are in flight (the HTTP door answers
429).  A ticket's ``result(timeout)`` is the stack's one wait.  Two entry
points share the pool:

``submit()``
    Synchronous; returns the engine's :class:`InferenceTicket`.

``asubmit_ticket()``
    A coroutine for asyncio front ends: it calls ``submit()`` on the event
    loop, which never blocks, and resolves to the completed ticket through
    the ticket's done callback.

All shards share one :class:`OperatorCache` and one logit LRU.  The logit
entries are keyed by (model signature, weights version, graph fingerprint),
so hot-swapped re-trains of the same architecture on the same graph serve
side by side without stale hits.  :meth:`ShardRouter.spill` and
:meth:`ShardRouter.warm` carry both caches through one directory, so a
fresh process starts with the preprocess and the forward already paid.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..graph.delta import GraphDelta
from ..graph.digraph import DirectedGraph
from ..models.base import NodeClassifier
from ..obs.histogram import HistogramStats
from ..obs.stats import Stats, StatsSource
from .artifacts import ModelArtifact, restore_model
from .cache import LRUCache, OperatorCache
from .engine import (
    GraphSwapTicket,
    InferenceServer,
    InferenceTicket,
    ServerOverloaded,
    ServerStats,
)

PathLike = Union[str, Path]

#: default cap on in-flight requests across every shard of one router.
DEFAULT_MAX_PENDING = 256

#: capacity of the logit LRU a router shares across its shards.
DEFAULT_LOGIT_CAPACITY = 32


class UnknownShard(KeyError):
    """No registered shard matches the requested name or graph fingerprint."""


@dataclass
class ShardInfo:
    """One registered shard: a named engine bound to a fingerprinted graph."""

    name: str
    fingerprint: str
    engine: InferenceServer
    artifact: Optional[ModelArtifact] = None

    @property
    def model_name(self) -> str:
        if self.artifact is not None:
            return self.artifact.model_name
        return getattr(self.engine.model, "_registry_name", type(self.engine.model).__name__)


@dataclass
class RouterStats(Stats):
    """Front-door counters plus a per-shard engine snapshot."""

    derived = ("p50_latency_ms", "p95_latency_ms", "p99_latency_ms")

    submitted: int
    rejected: int
    max_pending: int
    shards: Dict[str, ServerStats]
    #: router-wide request latency: the per-shard engine histograms merged
    #: bucket-by-bucket, so the quantiles cover every shard's traffic.
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


class ShardRouter(StatsSource):
    """Fan requests out to per-artifact inference engines.

    Routing rules, in order:

    1. an explicit ``shard=`` name wins;
    2. otherwise the request graph's fingerprint selects the shard bound to
       that exact graph content;
    3. with neither, a single-shard router routes to its only shard.

    Several shards may serve the *same* graph (hot-swapped weights); their
    shared fingerprint is then ambiguous and those requests must name their
    shard explicitly.
    """

    def __init__(
        self,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_wait_ms: float = 2.0,
        operator_cache: Optional[OperatorCache] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self.max_wait_ms = max_wait_ms
        self._operator_cache = operator_cache if operator_cache is not None else OperatorCache()
        self._logit_cache = LRUCache(DEFAULT_LOGIT_CAPACITY)
        self._shards: Dict[str, ShardInfo] = {}
        self._by_fingerprint: Dict[str, List[str]] = {}
        self._slots = threading.BoundedSemaphore(max_pending)
        self._lock = threading.Lock()
        self._running = False
        self._submitted = 0
        self._rejected = 0

    # ------------------------------------------------------------------ #
    # Shard registration
    # ------------------------------------------------------------------ #
    def add_shard(
        self,
        model: NodeClassifier,
        graph: DirectedGraph,
        *,
        name: Optional[str] = None,
        artifact: Optional[ModelArtifact] = None,
        preprocess_cache: Optional[Dict[str, object]] = None,
    ) -> str:
        """Register a trained model + graph as a shard; returns its name."""
        fingerprint = graph.fingerprint()
        engine = InferenceServer(
            model,
            graph,
            operator_cache=self._operator_cache,
            logit_cache=self._logit_cache,
            max_wait_ms=self.max_wait_ms,
        )
        with self._lock:
            if name is None:
                # Prefer the graph's dataset name — the natural routing key
                # for HTTP clients (`/predict {"shard": "texas"}`) — unless
                # it is the DirectedGraph default or already registered.
                if graph.name and graph.name != "graph" and graph.name not in self._shards:
                    name = graph.name
                else:
                    index = len(self._shards)
                    name = f"shard-{index}"
                    while name in self._shards:  # an explicit name may sit on shard-N
                        index += 1
                        name = f"shard-{index}"
            if name in self._shards:
                raise ValueError(f"shard name {name!r} is already registered")
            self._shards[name] = ShardInfo(
                name=name, fingerprint=fingerprint, engine=engine, artifact=artifact
            )
            self._by_fingerprint.setdefault(fingerprint, []).append(name)
            # Keep one preprocess entry per shard resident; otherwise a
            # router with more shards than the cache default silently falls
            # back to cold-path latency on every request.
            self._operator_cache.grow(len(self._shards))
            # Seeded after the capacity grows — the other order could evict
            # an existing shard's entry from a cache already at capacity.
            if preprocess_cache is not None:
                self._operator_cache.seed(model, graph, preprocess_cache)
            # Started under the lock: a stale running snapshot would let a
            # concurrent stop() finish first and leave this worker orphaned.
            if self._running:
                engine.start()
        return name

    def update_shard(
        self,
        name: str,
        delta: "GraphDelta",
        *,
        timeout: Optional[float] = 30.0,
    ) -> GraphSwapTicket:
        """Apply a live :class:`~repro.graph.GraphDelta` to a named shard.

        Delegates to the shard engine's :meth:`InferenceServer.swap_graph`
        — the old fingerprint keeps serving until the new one is warm,
        and its cache entries survive until every request bound to it has
        drained — and then atomically re-points the router's fingerprint
        index, so in-flight fingerprint-routed traffic never sees a torn
        route: requests resolve either the old fingerprint (answered with
        pre-delta state) or the new one, never an error.  Only cache
        entries keyed by the touched graph's old fingerprint drop;
        untouched shards stay warm.  Waits up to ``timeout`` seconds for
        the swap, re-raises its failure, and returns the completed
        :class:`GraphSwapTicket`.
        """
        with self._lock:
            info = self._shards.get(name)
        if info is None:
            raise UnknownShard(
                f"unknown shard {name!r}; registered: {sorted(self._shards)}"
            )
        swap = info.engine.swap_graph(delta)
        new_graph = swap.result(timeout)  # re-raises engine-side failures
        new_fingerprint = new_graph.fingerprint()
        with self._lock:
            old_fingerprint = info.fingerprint
            names = self._by_fingerprint.get(old_fingerprint)
            if names is not None and name in names:
                names.remove(name)
                if not names:
                    del self._by_fingerprint[old_fingerprint]
            info.fingerprint = new_fingerprint
            peers = self._by_fingerprint.setdefault(new_fingerprint, [])
            if name not in peers:
                peers.append(name)
        return swap

    def add_artifact(self, directory: PathLike, *, name: Optional[str] = None) -> str:
        """Load a serving artifact and register it as a shard.

        The restore runs its preprocess *through* the shared operator
        cache: a hit — a previously-registered shard of the same
        configuration, or an entry warmed from an on-disk spill directory
        (:meth:`OperatorCache.warm`) — skips the precomputation entirely,
        and a miss seeds the cache so the shard's first request is warm.
        """
        # Grown before the restore fills the cache: the fill would otherwise
        # evict an entry another shard (or a warmed-from-disk artifact still
        # to be loaded) needs.  Sized against both the shard count and the
        # current entry count, because warm() may have preloaded more
        # entries than there are registered shards.
        self._operator_cache.grow(
            max(len(self) + 1, len(self._operator_cache) + 1)
        )
        model, cache, artifact, graph = restore_model(
            directory, operator_cache=self._operator_cache
        )
        return self.add_shard(
            model, graph, name=name, artifact=artifact, preprocess_cache=cache
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def operator_cache(self) -> OperatorCache:
        """The preprocess cache shared by every shard (warm/spill target)."""
        return self._operator_cache

    def spill(self, directory: PathLike) -> Dict[str, int]:
        """Persist both shared caches into ``directory``.

        Operator and logit entries share the directory, one entry
        directory each, whose ``meta.json`` names its cache (see
        :meth:`LRUCache.spill`).  Returns the number of entries written
        per cache.
        """
        return {
            "operators": self._operator_cache.spill(directory),
            "logits": self._logit_cache.spill(directory, "logits"),
        }

    def warm(self, directory: PathLike) -> Dict[str, int]:
        """Reload what :meth:`spill` wrote; returns the entries per cache.

        Call it before registering artifacts, so their restores hit the
        warmed preprocess entries.  A warmed logit entry serves only the
        model signature, weights version and graph fingerprint it was
        computed for, so a stale spill is never served.  Warmed arrays are
        read-only maps of the spilled files, frozen as the engine freezes
        the logits it stores.
        """
        return {
            "operators": self._operator_cache.warm(directory),
            "logits": self._logit_cache.warm(directory, "logits"),
        }

    def shards(self) -> List[ShardInfo]:
        with self._lock:
            return list(self._shards.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def stats(self) -> RouterStats:
        with self._lock:
            shards = dict(self._shards)
            submitted, rejected = self._submitted, self._rejected
        shard_stats = {name: info.engine.stats() for name, info in shards.items()}
        return RouterStats(
            submitted=submitted,
            rejected=rejected,
            max_pending=self.max_pending,
            shards=shard_stats,
            latency=HistogramStats.merged(s.latency for s in shard_stats.values()),
        )

    def recent_traces(self, limit: Optional[int] = 50) -> List[Dict[str, object]]:
        """Most-recent-first request traces across every shard.

        Each trace dict gains a ``shard`` key naming the engine that served
        it; ordering merges the per-engine ring buffers by submission time.
        """
        with self._lock:
            shards = list(self._shards.values())
        traces: List[Dict[str, object]] = []
        for info in shards:
            for trace in info.engine.recent_traces():
                entry = dict(trace)
                entry["shard"] = info.name
                traces.append(entry)
        traces.sort(key=lambda entry: entry.get("started_at", 0.0), reverse=True)
        return traces if limit is None else traces[: max(0, limit)]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardRouter":
        with self._lock:
            self._running = True
            engines = [info.engine for info in self._shards.values()]
        for engine in engines:
            engine.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        with self._lock:
            self._running = False
            engines = [info.engine for info in self._shards.values()]
        for engine in engines:
            engine.stop(timeout)

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def resolve(
        self, graph: Optional[DirectedGraph] = None, shard: Optional[str] = None
    ) -> ShardInfo:
        """Apply the routing rules without submitting anything.

        Front-ends use this to validate a request's target — raising
        :class:`UnknownShard` with the full routing diagnostics — before
        paying for a slot."""
        with self._lock:
            if not self._shards:
                raise UnknownShard("router has no shards; add_shard()/add_artifact() first")
            if shard is not None:
                info = self._shards.get(shard)
                if info is None:
                    raise UnknownShard(
                        f"unknown shard {shard!r}; registered: {sorted(self._shards)}"
                    )
                return info
            if graph is not None:
                fingerprint = graph.fingerprint()
                names = self._by_fingerprint.get(fingerprint, [])
                if not names:
                    raise UnknownShard(
                        f"no shard serves graph fingerprint {fingerprint[:12]}…; "
                        f"registered: {sorted(self._shards)}"
                    )
                if len(names) > 1:
                    raise UnknownShard(
                        f"graph fingerprint {fingerprint[:12]}… is served by several "
                        f"shards ({names}); pass shard= to pick one"
                    )
                return self._shards[names[0]]
            if len(self._shards) == 1:
                return next(iter(self._shards.values()))
            raise UnknownShard(
                f"router serves {len(self._shards)} shards; pass graph= or shard= to route"
            )

    # ------------------------------------------------------------------ #
    # Front door
    # ------------------------------------------------------------------ #
    def submit(
        self,
        node_ids: Optional[Sequence[int]] = None,
        graph: Optional[DirectedGraph] = None,
        *,
        shard: Optional[str] = None,
    ) -> InferenceTicket:
        """Route one request and return the owning engine's ticket.

        Never waits: the request takes a front-door slot, held until its
        ticket completes, or raises :class:`ServerOverloaded` when
        ``max_pending`` requests are in flight.  The slot pool is the only
        admission bound, and ``ticket.result(timeout)`` the only wait.
        """
        info = self.resolve(graph, shard)
        if not self._slots.acquire(blocking=False):
            with self._lock:
                # Only capacity rejections count here — engine-side
                # validation errors below are the client's problem, not an
                # overload signal for operators to alert on.
                self._rejected += 1
            raise ServerOverloaded(
                f"router is at capacity ({self.max_pending} requests in flight)"
            )
        try:
            ticket = info.engine.submit(node_ids, graph)
        except BaseException:
            self._slots.release()
            raise
        ticket.add_done_callback(lambda _ticket: self._slots.release())
        with self._lock:
            self._submitted += 1
        return ticket

    def predict(
        self,
        node_ids: Optional[Sequence[int]] = None,
        graph: Optional[DirectedGraph] = None,
        *,
        shard: Optional[str] = None,
        timeout: Optional[float] = 60.0,
    ) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`.

        A full router raises :class:`ServerOverloaded` at once; ``timeout``
        bounds the wait for the prediction.
        """
        return self.submit(node_ids, graph, shard=shard).result(timeout)

    async def asubmit_ticket(
        self,
        node_ids: Optional[Sequence[int]] = None,
        graph: Optional[DirectedGraph] = None,
        *,
        shard: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> InferenceTicket:
        """Async submit resolving to the *completed* ticket.

        :meth:`submit` never waits, so it runs on the event loop itself: a
        full router raises :class:`ServerOverloaded` at once, which the
        HTTP layer maps to 429.  ``timeout`` bounds only the wait for the
        ticket (``asyncio.TimeoutError`` on expiry).  The HTTP front door
        awaits this because the ticket carries more than the predictions:
        the trace spans and latency that go into the response payload.
        The returned ticket is done — ``ticket.result(timeout=0)`` never
        blocks (it raises the request's failure, if any).
        """
        loop = asyncio.get_running_loop()
        ticket = self.submit(node_ids, graph, shard=shard)
        future: "asyncio.Future[InferenceTicket]" = loop.create_future()

        def resolve(completed: InferenceTicket) -> None:
            def apply() -> None:
                if not future.cancelled():
                    future.set_result(completed)

            loop.call_soon_threadsafe(apply)

        ticket.add_done_callback(resolve)
        return await asyncio.wait_for(future, timeout)
