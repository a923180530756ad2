"""Serving layer: artifacts, operator caching and micro-batched inference.

Takes any trained registry model or :class:`repro.api.ModelHandle` from
"trained in memory" to "served under concurrent load" through one stack,
:class:`ShardRouter` → per-shard :class:`InferenceServer` → shared
operator and logit caches (:meth:`repro.api.Session.serve` builds it):

* :mod:`repro.serving.artifacts` — versioned save/load of weights + config;
* :mod:`repro.serving.cache` — bounded LRU reuse of ``preprocess()`` output
  and of logits, both spillable to one directory of ``.npy`` files per
  entry and warmed back as read-only maps;
* :mod:`repro.serving.engine` — the micro-batching :class:`InferenceServer`
  a router builds for each shard;
* :mod:`repro.serving.router` — the :class:`ShardRouter` front door, one
  shard or many, whose ``submit`` (and asyncio ``asubmit_ticket``) admits
  or sheds with :class:`ServerOverloaded` and never waits;
* :mod:`repro.serving.http` — the stdlib-asyncio :class:`HttpServer`
  that starts, exposes over HTTP (``/predict``, ``/stats``, ``/metrics``,
  ``/traces``, with 429 load shedding) and stops one router.

Fingerprints live in :mod:`repro.fingerprint`, the stats protocol in
:mod:`repro.obs`.
"""

from .artifacts import (
    FORMAT_VERSION,
    ModelArtifact,
    load_artifact,
    load_artifact_graph,
    restore_model,
    save_model,
)
from .allocator import tune_allocator_for_churn
from .cache import CacheStats, LRUCache, OperatorCache, OperatorCacheStats
from .engine import (
    GraphSwapTicket,
    InferenceServer,
    InferenceTicket,
    ServerOverloaded,
    ServerStats,
)
from .http import BaseHttpServer, HttpServer, HttpStats
from .router import RouterStats, ShardInfo, ShardRouter, UnknownShard

__all__ = [
    "FORMAT_VERSION",
    "ModelArtifact",
    "save_model",
    "load_artifact",
    "load_artifact_graph",
    "restore_model",
    "LRUCache",
    "OperatorCache",
    "CacheStats",
    "OperatorCacheStats",
    "BaseHttpServer",
    "HttpServer",
    "HttpStats",
    "GraphSwapTicket",
    "InferenceServer",
    "InferenceTicket",
    "ServerOverloaded",
    "ServerStats",
    "ShardRouter",
    "ShardInfo",
    "RouterStats",
    "UnknownShard",
    "tune_allocator_for_churn",
]
