"""Bounded, thread-safe LRU caches for the serving layer.

Two layers of reuse make warm inference cheap:

* :class:`LRUCache` — a generic bounded mapping with hit/miss/eviction
  counters, safe to share between the request threads of
  :class:`repro.serving.engine.InferenceServer`;
* :class:`OperatorCache` — an LRU specialised to ``preprocess()`` results,
  keyed by ``(model signature, graph fingerprint)``.  A hit skips *all*
  sparse precomputation (DP operator construction, K-step propagation),
  which is the dominant cost of the decoupled models.

Both caches can persist their entries to disk (:meth:`LRUCache.spill`)
and reload them in another process (:meth:`LRUCache.warm`): each entry
becomes one directory named by a digest of its key, holding a
``meta.json`` tagged with the cache's ``kind`` and one ``.npy`` file per
distinct array, so operator and logit entries share one directory and
cold starts are warm across processes and machines.  A warmed array is a
read-only view of its mapped file: a warm start copies nothing, and the
processes of one host share the pages a forward touches.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..obs.histogram import HistogramStats, LatencyHistogram
from ..fingerprint import preprocess_key
from ..obs.stats import Stats, StatsSource

PathLike = Union[str, Path]

#: default number of (model, graph) preprocess results kept in memory.
DEFAULT_CAPACITY = 8

#: bumped whenever the on-disk spill layout or the key it is filed under
#: changes.  Version 3 stores an entry as a directory of ``.npy`` files;
#: version 2 stored one ``.npz`` file, which ``warm()`` passes over, so the
#: first start after an upgrade runs cold once.
SPILL_FORMAT_VERSION = 3

#: the key, kind and structure descriptor of one spilled entry.
_META_FILE = "meta.json"


@dataclass
class CacheStats(Stats):
    """Counters snapshot; hits/misses count lookups, not stores."""

    derived = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class OperatorCacheStats(CacheStats):
    """Cache counters plus the ``preprocess()`` call-latency histogram.

    Every call is recorded — hits and misses alike — so the distribution is
    bimodal by construction: a floor of near-zero hit lookups under a tail
    of full sparse-precompute misses.  The p99/hit-rate pair makes cache
    sizing decisions directly readable from ``/stats``.
    """

    preprocess_latency: HistogramStats = field(default_factory=HistogramStats)


class LRUCache(StatsSource):
    """A bounded least-recently-used mapping with instrumentation.

    ``get_or_compute`` holds the lock across the factory call, so concurrent
    requests for the same key compute the value exactly once.  That
    serialises cache *fills* — acceptable here because the inference engine
    funnels all preprocessing through a single worker thread and fills are
    rare by design (that is the point of the cache).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return default

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key: Any, factory: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            value = factory()
            self.put(key, value)
            return value

    def grow(self, capacity: int) -> None:
        """Raise the capacity to at least ``capacity`` (never shrinks)."""
        with self._lock:
            if capacity > self.capacity:
                self.capacity = capacity

    def entries(self) -> List[Tuple[Any, Any]]:
        """The (key, value) pairs, oldest first, without touching counters."""
        with self._lock:
            return list(self._entries.items())

    def discard(self, key: Any) -> bool:
        """Drop one entry if present (no hit/miss accounting); True if dropped."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                return True
            return False

    def discard_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose *key* matches; returns the count dropped.

        This is the surgical-invalidation primitive behind live graph
        updates: only entries keyed by a retired graph fingerprint go,
        everything else stays warm.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def spill(self, directory: PathLike, kind: str, overwrite: bool = False) -> int:
        """Persist the entries under ``directory``; returns the count written.

        Each entry becomes one directory named by a digest of its key,
        holding a ``meta.json`` (the key, ``kind`` and the value's
        nesting) and one ``.npy`` file per distinct array, so caches of
        different kinds can share one directory and an array the value
        references several times is stored once.  A key whose entry
        already exists is skipped unless ``overwrite`` is set — the
        content is a deterministic function of the key, so re-encoding it
        (e.g. on every warm benchmark run) would only burn CPU writing
        identical bytes.  Each entry is written into a ``*.tmp`` sibling
        and renamed into place, so any number of worker processes can
        spill into one shared directory concurrently without a
        coordination step, and a reader never sees a partial entry.  Two
        entry classes are skipped by design: hand-constructed models carry
        a per-process ``#token`` signature that is meaningless in another
        process, and values the codec cannot represent (a preprocess
        result holding e.g. an open resource) are left in memory only.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = 0
        for key, value in self.entries():
            # Operator keys are "signature/fingerprint" strings; logit keys
            # are (signature, weights version, fingerprint) tuples.
            signature = key[0] if isinstance(key, tuple) else key.split("/", 1)[0]
            if "#" in signature:
                continue
            path = directory / _spill_dirname(str(key))
            if not overwrite and path.exists():
                continue
            arrays: List[np.ndarray] = []
            try:
                structure = _encode(value, _identity_slots(arrays))
            except TypeError:
                continue
            meta = {
                "format_version": SPILL_FORMAT_VERSION,
                "kind": kind,
                "key": list(key) if isinstance(key, tuple) else key,
                "structure": structure,
            }
            _write_entry(path, meta, arrays, overwrite)
            written += 1
        return written

    def warm(self, directory: PathLike, kind: str) -> int:
        """Reload the ``kind`` entries spilled under ``directory``.

        Every array comes back as a read-only view of its file, mapped
        into memory, not copied: a warm start reads only each entry's
        metadata, a forward pages in the blocks it touches, and processes
        on one host that map one directory share those pages.  Unreadable,
        foreign, partial (``*.tmp``) or version-mismatched entries and
        other kinds' entries are skipped — a stale cache directory must
        never take serving down.  The capacity grows to hold everything
        loaded (it never shrinks); returns the number of entries restored.
        """
        directory = Path(directory)
        if not directory.is_dir():
            return 0
        loaded: List[Tuple[Any, Any]] = []
        for path in sorted(directory.iterdir()):
            if path.suffix == ".tmp" or not path.is_dir():
                continue
            try:
                meta = json.loads((path / _META_FILE).read_text())
                if meta.get("format_version") != SPILL_FORMAT_VERSION or meta.get("kind") != kind:
                    continue
                key = meta["key"]
                key = tuple(key) if isinstance(key, list) else key
                loaded.append((key, _decode(meta["structure"], _mapped_slots(path))))
            except _WARM_ERRORS:
                continue
        if loaded:
            self.grow(len(self) + len(loaded))
            for key, value in loaded:
                self.put(key, value)
        return len(loaded)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


# ---------------------------------------------------------------------- #
# On-disk spill codec
# ---------------------------------------------------------------------- #
# A preprocess result is an arbitrary nesting of dicts / lists / tuples
# over ndarrays, autograd Tensors, scipy sparse operators and JSON
# scalars.  The codec stores every distinct array object in a numbered
# slot, one ``.npy`` file each, and records the nesting as a JSON
# structure descriptor, so a reload is byte-identical (dtypes and shapes
# included) and an array referenced several times (ADPA's raw features
# sit in every propagation step) is written, mapped and held once.


def _encode(value: Any, slot: Callable[[np.ndarray], int]) -> Dict[str, Any]:
    """Encode ``value`` into a JSON node; ``slot`` numbers its arrays."""
    from ..nn.tensor import Tensor

    if isinstance(value, (np.integer, np.floating, np.bool_)):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"t": "scalar", "v": value}
    if isinstance(value, slice):
        bounds = [value.start, value.stop, value.step]
        if not all(b is None or isinstance(b, int) for b in bounds):
            raise TypeError("cannot spill a slice with non-integer bounds")
        return {"t": "slice", "v": bounds}
    if isinstance(value, Tensor):
        return {"t": "tensor", "i": slot(value.data)}
    if isinstance(value, np.ndarray):
        return {"t": "array", "i": slot(value)}
    if sp.issparse(value):
        csr = value.tocsr()
        return {
            "t": "sparse",
            "format": value.getformat(),
            "data": slot(csr.data),
            "indices": slot(csr.indices),
            "indptr": slot(csr.indptr),
            "shape": list(csr.shape),
        }
    if isinstance(value, dict):
        items = []
        for key, entry in value.items():
            if not isinstance(key, str):
                raise TypeError(f"cannot spill dict key of type {type(key).__name__}")
            items.append([key, _encode(entry, slot)])
        return {"t": "dict", "items": items}
    if isinstance(value, (list, tuple)):
        return {
            "t": "list" if isinstance(value, list) else "tuple",
            "items": [_encode(entry, slot) for entry in value],
        }
    raise TypeError(f"cannot spill value of type {type(value).__name__}")


def _identity_slots(arrays: List[np.ndarray]) -> Callable[[np.ndarray], int]:
    """A ``slot`` for :func:`_encode`: one slot per distinct array object.

    ``arrays`` keeps every slotted object alive until the entry is
    written, so no id is recycled (``tocsr()`` of a non-CSR operator
    makes temporaries) and aliased under another array.
    """
    slots: Dict[int, int] = {}

    def slot(array: np.ndarray) -> int:
        index = slots.get(id(array))
        if index is None:
            index = slots[id(array)] = len(arrays)
            arrays.append(array)
        return index

    return slot


def _decode(node: Dict[str, Any], array: Callable[[int], np.ndarray]) -> Any:
    """Inverse of :func:`_encode`; ``array`` reads one slot."""
    from ..nn.tensor import Tensor

    kind = node["t"]
    if kind == "scalar":
        return node["v"]
    if kind == "slice":
        return slice(*node["v"])
    if kind == "tensor":
        return Tensor(array(node["i"]))
    if kind == "array":
        return array(node["i"])
    if kind == "sparse":
        csr = sp.csr_matrix(
            (array(node["data"]), array(node["indices"]), array(node["indptr"])),
            shape=tuple(node["shape"]),
        )
        return csr.asformat(node["format"])
    if kind == "dict":
        return {key: _decode(entry, array) for key, entry in node["items"]}
    if kind == "list":
        return [_decode(entry, array) for entry in node["items"]]
    if kind == "tuple":
        return tuple(_decode(entry, array) for entry in node["items"])
    raise ValueError(f"unknown spill node type {kind!r}")


def _mapped_slots(entry: Path) -> Callable[[int], np.ndarray]:
    """An ``array`` for :func:`_decode`: each slot's file mapped once, read-only.

    A slot is a plain ``ndarray`` view of the map, not the ``np.memmap``
    subclass ``np.load`` returns, whose Python hooks would run on every
    array derived from it.  Nothing is read until a page is touched.
    """
    mapped: Dict[int, np.ndarray] = {}

    def array(index: int) -> np.ndarray:
        index = int(index)
        if index not in mapped:
            path = entry / f"{index}.npy"
            mapped[index] = np.load(path, mmap_mode="r", allow_pickle=False).view(np.ndarray)
        return mapped[index]

    return array


def _spill_dirname(key: str) -> str:
    return hashlib.blake2b(key.encode(), digest_size=16).hexdigest()


def _write_entry(
    path: Path, meta: Dict[str, Any], arrays: List[np.ndarray], overwrite: bool
) -> None:
    """Write one entry directory so readers never observe a partial one.

    Concurrent workers spill into one shared directory without any
    coordination step, so two processes can decide to write the same key
    at the same time.  Each writer fills its own ``*.tmp`` sibling and
    renames it into place, so the entry appears atomically; when another
    writer's entry took the name first, ours is dropped, since the content
    is a deterministic function of the key.  An overwrite renames the old
    entry aside before the new one goes in: no file is ever truncated or
    rewritten in place, so a process that has the old arrays mapped keeps
    reading valid pages.
    """
    staging = Path(
        tempfile.mkdtemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    )
    retired = staging.with_name(staging.stem + ".old.tmp")
    try:
        for index, array in enumerate(arrays):
            np.save(staging / f"{index}.npy", np.ascontiguousarray(array), allow_pickle=False)
        (staging / _META_FILE).write_text(json.dumps(meta))
        if overwrite:
            try:
                os.rename(path, retired)
            except FileNotFoundError:
                pass
        try:
            os.rename(staging, path)
        except OSError as error:
            if error.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(retired, ignore_errors=True)


#: everything a corrupt, partial or foreign entry in a cache directory
#: can raise.
_WARM_ERRORS = (OSError, ValueError, KeyError, TypeError)


class OperatorCache(StatsSource):
    """LRU cache of ``model.preprocess(graph)`` results.

    The key combines the model signature (registry name, constructor kwargs,
    dimensions) with the graph content fingerprint, so a hit is guaranteed to
    be the byte-identical cache the model would have rebuilt.  Stored values
    are whatever ``preprocess`` returned — including the DP operator sets the
    decoupled models stash in their caches — so repeated requests on the same
    graph skip every sparse product.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._cache = LRUCache(capacity)
        self._preprocess_latency = LatencyHistogram()

    def preprocess(self, model, graph) -> Dict[str, object]:
        """Return the cached preprocess result, computing it on first use.

        Every call is timed into the ``preprocess_latency`` histogram, hits
        included, so the snapshot shows the bimodal hit/miss split."""
        started = time.perf_counter()
        try:
            return model.preprocess_cached(graph, self._cache)
        finally:
            self._preprocess_latency.record_seconds(time.perf_counter() - started)

    def lookup(self, model, graph) -> Optional[Dict[str, object]]:
        """Peek without computing; ``None`` on a miss."""
        return self._cache.get(preprocess_key(model, graph))

    def seed(self, model, graph, value: Dict[str, object]) -> None:
        """Insert an already-computed preprocess result (artifact restore)."""
        self._cache.put(preprocess_key(model, graph), value)

    def invalidate_graph(self, fingerprint: str) -> int:
        """Drop every entry keyed by one graph fingerprint, for any model.

        Surgical: entries for other fingerprints — other shards, or the
        successor graph a live update just warmed — are untouched.  Returns
        the number of entries dropped.
        """
        suffix = f"/{fingerprint}"
        return self._cache.discard_where(
            lambda key: isinstance(key, str) and key.endswith(suffix)
        )

    def grow(self, capacity: int) -> None:
        """Raise the capacity to at least ``capacity`` (never shrinks).

        The ShardRouter calls this as shards register, so a router with more
        shards than :data:`DEFAULT_CAPACITY` does not thrash its own
        per-shard preprocess entries."""
        self._cache.grow(capacity)

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()

    def stats(self) -> OperatorCacheStats:
        counters = self._cache.stats()
        return OperatorCacheStats(
            hits=counters.hits,
            misses=counters.misses,
            evictions=counters.evictions,
            size=counters.size,
            capacity=counters.capacity,
            preprocess_latency=self._preprocess_latency.stats(),
        )

    # ------------------------------------------------------------------ #
    # On-disk persistence
    # ------------------------------------------------------------------ #
    def spill(self, directory: PathLike, overwrite: bool = False) -> int:
        """Persist the cached preprocess entries (see :meth:`LRUCache.spill`)."""
        return self._cache.spill(directory, "operator", overwrite)

    def warm(self, directory: PathLike) -> int:
        """Reload spilled preprocess entries (see :meth:`LRUCache.warm`)."""
        return self._cache.warm(directory, "operator")
