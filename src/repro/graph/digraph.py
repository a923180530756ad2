"""The :class:`DirectedGraph` container used throughout the reproduction.

A :class:`DirectedGraph` bundles everything the semi-supervised node
classification paradigm needs (Sec. II-A of the paper):

* a sparse, possibly asymmetric adjacency matrix ``A_d``;
* a dense node feature matrix ``X``;
* integer node labels ``Y``;
* boolean train / validation / test masks.

The class is deliberately immutable-ish: transformations such as
``to_undirected`` return new graphs (see :mod:`repro.graph.transforms`),
which keeps experiment code free of aliasing surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..fingerprint import GraphFingerprint, fingerprint_state

if False:  # pragma: no cover - import cycle guard, typing only
    from .delta import GraphDelta


@dataclass
class DirectedGraph:
    """A directed attributed graph with semi-supervised splits.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` sparse matrix where ``adjacency[u, v] = 1`` iff the edge
        ``u -> v`` exists.  Stored as CSR; weights are allowed but every
        generator in this repository produces binary adjacencies.
    features:
        ``(n, f)`` dense node feature matrix ``X``.
    labels:
        ``(n,)`` integer class labels ``Y``.
    train_mask / val_mask / test_mask:
        Boolean masks over nodes.  They may be ``None`` for graphs that have
        not been split yet.
    name:
        Human-readable dataset name (used in benchmark reports).
    meta:
        Free-form metadata (e.g. generator parameters), carried along by
        transforms so experiment reports can cite provenance.
    """

    adjacency: sp.spmatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = sp.csr_matrix(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if self.features.shape[0] != n:
            raise ValueError(
                f"feature matrix has {self.features.shape[0]} rows but the graph has {n} nodes"
            )
        if self.labels.shape[0] != n:
            raise ValueError(
                f"label vector has {self.labels.shape[0]} entries but the graph has {n} nodes"
            )
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, mask_name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape[0] != n:
                    raise ValueError(f"{mask_name} has wrong length {mask.shape[0]} != {n}")
                setattr(self, mask_name, mask)
        # Pin the class count at construction so mutations or subgraphs
        # that drop the highest class cannot silently shrink logit shapes.
        # ``meta["num_classes"]`` overrides (and is carried by every
        # transform); labels outside the pinned range still grow it.
        derived = int(self.labels.max()) + 1 if self.labels.size else 0
        pinned = max(int(self.meta.get("num_classes", derived)), derived)
        if pinned != self.meta.get("num_classes"):
            self.meta = {**self.meta, "num_classes": pinned}
        self._num_classes = pinned

    # -------------------------------------------------------------- #
    # Basic properties
    # -------------------------------------------------------------- #
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges, self-loops included if present."""
        return int(self.adjacency.nnz)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        """Class count pinned at construction (see ``__post_init__``).

        Stable under mutations/subgraphs that drop the highest class, so
        logit shapes cannot silently shrink; overridable via
        ``meta["num_classes"]``.
        """
        return self._num_classes

    @property
    def has_splits(self) -> bool:
        return self.train_mask is not None and self.val_mask is not None and self.test_mask is not None

    def is_directed(self) -> bool:
        """True if the adjacency matrix is not symmetric."""
        difference = self.adjacency - self.adjacency.T
        return bool(np.abs(difference.data).sum() > 0)

    def in_degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=0)).ravel()

    def out_degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def edge_list(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (sources, targets) arrays of the stored edges."""
        coo = self.adjacency.tocoo()
        return coo.row.copy(), coo.col.copy()

    def label_distribution(self) -> np.ndarray:
        """Fraction of nodes in each class."""
        counts = np.bincount(self.labels, minlength=self.num_classes)
        return counts / max(self.labels.size, 1)

    def fingerprint(self) -> str:
        """Content hash of the graph (CSR structure, features, labels, splits).

        Two graphs with identical arrays share a fingerprint regardless of
        ``name``/``meta``, which is what makes the serving-layer operator
        cache (:mod:`repro.serving.cache`) safe: any array change — an edge,
        a weight, a feature value, a split flip — yields a new key.  Graphs
        are treated as immutable after construction, so the digest is cached
        on first use; call :meth:`with_` / :meth:`copy` rather than mutating
        arrays in place.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is None:
            cached = self.fingerprint_state().digest()
            object.__setattr__(self, "_fingerprint_cache", cached)
        return cached

    def fingerprint_state(self) -> GraphFingerprint:
        """Block fingerprint state backing :meth:`fingerprint`.

        One digest per :data:`~repro.fingerprint.BLOCK_ROWS` adjacency rows
        and per as many feature rows, plus whole-array label and mask
        digests, combined under the ``graph-v3`` tag.  Computed lazily and
        cached; :meth:`apply_delta` derives the mutated graph's state from
        it by re-hashing only the blocks that hold an edited row.
        """
        state = getattr(self, "_fingerprint_state", None)
        if state is None:
            state = fingerprint_state(self, adjacency=self.canonical_adjacency())
            object.__setattr__(self, "_fingerprint_state", state)
        return state

    def canonical_adjacency(self) -> sp.csr_matrix:
        """The canonicalised (sorted, deduplicated, int64/float64) CSR.

        Cached on first use; :meth:`apply_delta` edits this form directly so
        chained live updates skip re-canonicalisation.
        """
        from ..fingerprint import canonical_csr

        cached = getattr(self, "_canonical_adjacency", None)
        if cached is None:
            cached = canonical_csr(self.adjacency)
            object.__setattr__(self, "_canonical_adjacency", cached)
        return cached

    def apply_delta(self, delta: "GraphDelta", *, validate: bool = False) -> "DirectedGraph":
        """Apply a live :class:`~repro.graph.delta.GraphDelta`.

        Returns the mutated graph (this one is untouched) with its content
        fingerprint maintained incrementally — only the blocks holding a
        touched row, and the touched arrays, are re-hashed.  See
        :func:`repro.graph.delta.apply_delta`.
        """
        from .delta import apply_delta as _apply_delta

        return _apply_delta(self, delta, validate=validate)

    # -------------------------------------------------------------- #
    # Derived views
    # -------------------------------------------------------------- #
    def with_(self, **changes) -> "DirectedGraph":
        """Return a copy with the given fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)

    def copy(self) -> "DirectedGraph":
        return DirectedGraph(
            adjacency=self.adjacency.copy(),
            features=self.features.copy(),
            labels=self.labels.copy(),
            train_mask=None if self.train_mask is None else self.train_mask.copy(),
            val_mask=None if self.val_mask is None else self.val_mask.copy(),
            test_mask=None if self.test_mask is None else self.test_mask.copy(),
            name=self.name,
            meta=dict(self.meta),
        )

    def summary(self) -> Dict[str, object]:
        """Compact statistics used by the Table II benchmark."""
        return {
            "name": self.name,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "features": self.num_features,
            "classes": self.num_classes,
            "directed": self.is_directed(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectedGraph(name={self.name!r}, n={self.num_nodes}, m={self.num_edges}, "
            f"f={self.num_features}, c={self.num_classes}, directed={self.is_directed()})"
        )


def from_edge_list(
    edges: np.ndarray,
    num_nodes: int,
    features: np.ndarray,
    labels: np.ndarray,
    **kwargs,
) -> DirectedGraph:
    """Build a :class:`DirectedGraph` from an ``(m, 2)`` array of directed edges."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of (source, target) pairs")
    data = np.ones(edges.shape[0])
    adjacency = sp.csr_matrix(
        (data, (edges[:, 0], edges[:, 1])), shape=(num_nodes, num_nodes)
    )
    # Collapse duplicate edges to binary weights.
    adjacency.data = np.ones_like(adjacency.data)
    return DirectedGraph(adjacency=adjacency, features=features, labels=labels, **kwargs)
