"""Content-hashing primitives: graph, model and cache-key fingerprints.

This is a leaf module — it imports nothing from the rest of the package —
so the foundational layers (:mod:`repro.graph`, :mod:`repro.models`) and
the serving layer can all depend on it without cycles.

A graph is fingerprinted by hashing its adjacency in *canonical* CSR form
(duplicates summed, indices sorted, explicit zeros dropped, int64 indices,
float64 data), the dense feature matrix, the labels and the split masks.
Canonicalisation means two representations of the same mathematical graph
— duplicate-entry COO, unsorted indices, stored zeros, int32 index arrays
— share one fingerprint, so they also share operator/logit cache
entries (``preprocess()`` is a pure function of the mathematical graph,
not of its storage layout).

The digest is built from *block* sub-digests — one 16-byte blake2b per
:data:`BLOCK_ROWS` consecutive adjacency rows and one per as many feature
rows — combined with whole-array digests for labels and masks.  An
adjacency block hashes its row lengths, then its column indices, then its
values; a feature block hashes its contiguous rows.  Hashing blocks keeps
the Python-level work at ``n / BLOCK_ROWS`` calls while leaving live
updates cheap: a :class:`GraphFingerprint` carries the block digests, and
after a ``GraphDelta`` only the blocks holding an edited row are
re-hashed before recombining — bit-identical to a full rehash by
construction.  The combined digest is tagged ``graph-v3`` and names the
block size.

Model fingerprints hash the registry name plus the constructor kwargs, so
a cache entry is only reused by a model that would preprocess identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
import json
from typing import Dict, Iterable, Optional

import numpy as np
import scipy.sparse as sp

#: hex digest length; 16 bytes of blake2b is ample for cache keying.
DIGEST_SIZE = 16

#: rows per adjacency/feature digest block.  With at most 96 float64
#: features a node, as in every dataset stand-in, a feature block is at
#: most 197 KB, so a delta re-hashes little while a full fingerprint makes
#: only ``n / BLOCK_ROWS`` Python-level hash calls per array.
BLOCK_ROWS = 256

#: split masks hashed into every graph fingerprint, in order.
MASK_FIELDS = ("train_mask", "val_mask", "test_mask")


def _hasher() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=DIGEST_SIZE)


def _update_with_array(hasher, tag: str, array: Optional[np.ndarray]) -> None:
    """Feed one (possibly absent) array into ``hasher``, self-delimiting."""
    if array is None:
        hasher.update(f"{tag}:none;".encode())
        return
    array = np.ascontiguousarray(array)
    header = f"{tag}:{array.dtype.str}:{array.shape};"
    hasher.update(header.encode())
    hasher.update(array.tobytes())


def _array_digest_bytes(tag: str, array: Optional[np.ndarray]) -> bytes:
    hasher = _hasher()
    _update_with_array(hasher, tag, array)
    return hasher.digest()


def array_digest(array: np.ndarray) -> str:
    """Hex digest of a single ndarray (dtype- and shape-aware)."""
    hasher = _hasher()
    _update_with_array(hasher, "array", array)
    return hasher.hexdigest()


def canonical_csr(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Canonical CSR form of a sparse matrix, on a copy.

    Duplicate entries are summed, indices sorted, explicit zeros removed,
    and the buffers normalised to int64 indices / float64 data, so every
    storage layout of the same mathematical matrix maps to identical
    bytes.  The input is never mutated.
    """
    matrix = sp.csr_matrix(adjacency, dtype=np.float64, copy=True)
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return sp.csr_matrix(
        (
            matrix.data.astype(np.float64, copy=False),
            matrix.indices.astype(np.int64, copy=False),
            matrix.indptr.astype(np.int64, copy=False),
        ),
        shape=matrix.shape,
    )


def block_count(num_rows: int) -> int:
    """Number of :data:`BLOCK_ROWS`-row blocks covering ``num_rows`` rows."""
    return -(-num_rows // BLOCK_ROWS)


def blocks_of(rows: Iterable[int]) -> np.ndarray:
    """Sorted unique blocks holding ``rows``."""
    return np.unique(np.fromiter(rows, dtype=np.int64) // BLOCK_ROWS)


def csr_block_digest(matrix: sp.csr_matrix, block: int) -> bytes:
    """Digest of one block of a canonical CSR matrix.

    Hashes the block's row lengths, column indices and values in turn.
    Given the matrix shape the stream is self-delimiting, so moving an
    entry across a row boundary inside the block changes the digest.
    """
    start = block * BLOCK_ROWS
    indptr = matrix.indptr[start : start + BLOCK_ROWS + 1]
    first, last = indptr[0], indptr[-1]
    hasher = _hasher()
    hasher.update(np.diff(indptr))
    hasher.update(matrix.indices[first:last])
    hasher.update(matrix.data[first:last])
    return hasher.digest()


def dense_block_digest(matrix: np.ndarray, block: int) -> bytes:
    """Digest of one block of contiguous dense (feature) rows."""
    start = block * BLOCK_ROWS
    return hashlib.blake2b(
        matrix[start : start + BLOCK_ROWS], digest_size=DIGEST_SIZE
    ).digest()


def _block_digests(digest, matrix) -> np.ndarray:
    return np.array(
        [digest(matrix, block) for block in range(block_count(matrix.shape[0]))],
        dtype=f"S{DIGEST_SIZE}",
    )


@dataclass
class GraphFingerprint:
    """Combinable fingerprint state of one graph.

    Holds block digests for the canonical adjacency and the feature matrix
    plus whole-array digests for labels and masks.  ``digest()`` combines
    them into the graph fingerprint; after a delta, recomputing only the
    touched block digests and recombining is bit-identical to a full
    rehash because both paths hash exactly the same structure.
    """

    num_nodes: int
    adjacency_header: bytes
    adjacency_blocks: np.ndarray  # (ceil(n / BLOCK_ROWS),) of S16 digests
    feature_header: bytes
    feature_blocks: np.ndarray  # (ceil(n / BLOCK_ROWS),) of S16 digests
    label_digest: bytes
    mask_digests: Dict[str, bytes]

    def digest(self) -> str:
        hasher = _hasher()
        hasher.update(f"graph-v3;block_rows:{BLOCK_ROWS};".encode())
        hasher.update(self.adjacency_header)
        hasher.update(np.ascontiguousarray(self.adjacency_blocks))
        hasher.update(self.feature_header)
        hasher.update(np.ascontiguousarray(self.feature_blocks))
        hasher.update(self.label_digest)
        for name in MASK_FIELDS:
            hasher.update(self.mask_digests[name])
        return hasher.hexdigest()

    def copy(self) -> "GraphFingerprint":
        return GraphFingerprint(
            num_nodes=self.num_nodes,
            adjacency_header=self.adjacency_header,
            adjacency_blocks=self.adjacency_blocks.copy(),
            feature_header=self.feature_header,
            feature_blocks=self.feature_blocks.copy(),
            label_digest=self.label_digest,
            mask_digests=dict(self.mask_digests),
        )


def fingerprint_state(graph, adjacency: Optional[sp.csr_matrix] = None) -> GraphFingerprint:
    """Build the full :class:`GraphFingerprint` state of ``graph``.

    ``graph`` is duck-typed as a :class:`repro.graph.digraph.DirectedGraph`
    (adjacency + features + labels + masks).  Pass ``adjacency`` to reuse an
    already-canonicalised CSR (must equal ``canonical_csr(graph.adjacency)``).
    """
    if adjacency is None:
        adjacency = canonical_csr(graph.adjacency)
    features = np.ascontiguousarray(np.asarray(graph.features))
    n = adjacency.shape[0]
    return GraphFingerprint(
        num_nodes=n,
        adjacency_header=f"adjacency:{n}x{adjacency.shape[1]};".encode(),
        adjacency_blocks=_block_digests(csr_block_digest, adjacency),
        feature_header=f"features:{features.dtype.str}:{features.shape};".encode(),
        feature_blocks=_block_digests(dense_block_digest, features),
        label_digest=_array_digest_bytes("labels", graph.labels),
        mask_digests={
            name: _array_digest_bytes(name, getattr(graph, name))
            for name in MASK_FIELDS
        },
    )


def graph_fingerprint(graph) -> str:
    """Hex digest of everything a ``preprocess()`` call can observe.

    The adjacency is canonicalised first (see :func:`canonical_csr`), so
    representation-equivalent graphs — duplicate COO entries, unsorted or
    int32 indices, stored explicit zeros — share one fingerprint and hence
    one set of cache entries.
    """
    return fingerprint_state(graph).digest()


def model_fingerprint(model_name: str, model_kwargs: Optional[Dict] = None) -> str:
    """Hex digest of a model configuration (registry name + kwargs).

    Kwargs are serialised through canonical JSON so dict ordering cannot
    change the key; non-JSON values fall back to ``repr`` (stable for the
    scalar types the model zoo uses).
    """
    payload = json.dumps(
        {"name": model_name.lower(), "kwargs": model_kwargs or {}},
        sort_keys=True,
        default=repr,
    )
    hasher = _hasher()
    hasher.update(payload.encode())
    return hasher.hexdigest()


def state_fingerprint(state: Dict[str, np.ndarray]) -> str:
    """Hex digest of a model *state dict* (parameter and buffer values).

    Unlike :func:`model_fingerprint` — which identifies a model's
    configuration and is stable across retraining — this digest changes
    whenever any weight changes, so the serving layer can use it as a
    weights-version field in logit-cache keys: two artifacts of the same
    architecture trained to different weights never share a cache entry.
    """
    hasher = _hasher()
    for name in sorted(state):
        _update_with_array(hasher, name, np.asarray(state[name]))
    return hasher.hexdigest()


def preprocess_key(model, graph) -> str:
    """Cache key joining a model's signature with a graph's fingerprint."""
    return f"{model.signature()}/{graph.fingerprint()}"
