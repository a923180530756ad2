"""Serving layer: artifacts, operator caching and micro-batched inference.

Takes any trained registry model or :class:`repro.api.ModelHandle` from
"trained in memory" to "served under concurrent load":

* :mod:`repro.serving.artifacts` — versioned save/load of weights + config;
* :mod:`repro.serving.cache` — bounded LRU reuse of ``preprocess()`` output
  and of logits, both spillable to one directory of ``.npy`` files per
  entry and warmed back as read-only maps;
* :mod:`repro.serving.engine` — the micro-batching :class:`InferenceServer`;
* :mod:`repro.serving.router` — the multi-artifact :class:`ShardRouter`
  front door with sync ``submit`` and asyncio ``asubmit``;
* :mod:`repro.serving.http` — the stdlib-asyncio :class:`HttpServer`
  exposing a router over HTTP (``/predict``, ``/stats``, ``/metrics``,
  ``/traces``) with 429 load shedding.
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
from ..fingerprint import (
    array_digest,
    graph_fingerprint,
    model_fingerprint,
    preprocess_key,
    state_fingerprint,
)
from ..obs.stats import Stats, StatsSource
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
    "Stats",
    "StatsSource",
    "tune_allocator_for_churn",
    "array_digest",
    "graph_fingerprint",
    "model_fingerprint",
    "preprocess_key",
    "state_fingerprint",
]
