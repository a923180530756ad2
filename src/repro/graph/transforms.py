"""Graph transformations used by the data-engineering experiments.

The paper's experiments repeatedly move graphs between representations:

* *coarse undirected transformation* (``to_undirected``) — the ambiguous
  data-engineering step AMUD replaces with a principled decision;
* self-loop handling and feature row-normalisation;
* the three sparsity injectors of Fig. 7 (feature / edge / label sparsity).

Every transform returns a **new** :class:`DirectedGraph`, leaving the input
untouched, so experiment sweeps can reuse a cached dataset safely.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from .digraph import DirectedGraph
from .operators import drop_diagonal


def to_undirected(graph: DirectedGraph) -> DirectedGraph:
    """Coarse undirected transformation: add the reverse of every edge."""
    symmetric = graph.adjacency + graph.adjacency.T
    symmetric = sp.csr_matrix(symmetric)
    symmetric.data = np.ones_like(symmetric.data)
    return graph.with_(adjacency=symmetric, meta={**graph.meta, "undirected_transform": True})


def remove_self_loops(graph: DirectedGraph) -> DirectedGraph:
    """Drop diagonal entries from the adjacency."""
    return graph.with_(adjacency=drop_diagonal(graph.adjacency))


def add_self_loops(graph: DirectedGraph) -> DirectedGraph:
    """Add a self-loop to every node (idempotent thanks to binarisation)."""
    n = graph.num_nodes
    adjacency = sp.csr_matrix(graph.adjacency + sp.identity(n, format="csr"))
    adjacency.data = np.ones_like(adjacency.data)
    return graph.with_(adjacency=adjacency)


def row_normalize_features(graph: DirectedGraph) -> DirectedGraph:
    """Scale each node's feature vector to unit L1 norm (standard for citation data)."""
    features = graph.features.copy()
    norms = np.abs(features).sum(axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return graph.with_(features=features / norms)


def standardize_features(graph: DirectedGraph, eps: float = 1e-8) -> DirectedGraph:
    """Zero-mean / unit-variance feature columns."""
    features = graph.features.copy()
    mean = features.mean(axis=0, keepdims=True)
    std = features.std(axis=0, keepdims=True)
    return graph.with_(features=(features - mean) / (std + eps))


# ---------------------------------------------------------------------- #
# Sparsity injectors (Fig. 7)
# ---------------------------------------------------------------------- #
def sparsify_features(
    graph: DirectedGraph,
    missing_rate: float,
    rng: Optional[np.random.Generator] = None,
    protect_train: bool = True,
) -> DirectedGraph:
    """Zero out the feature vectors of a random fraction of nodes.

    Mirrors the paper's feature-sparsity setting: "the feature
    representation of unlabeled nodes is partially missing", so training
    nodes keep their features when ``protect_train`` is set and a train
    mask exists.
    """
    if not 0.0 <= missing_rate <= 1.0:
        raise ValueError(f"missing_rate must be in [0, 1], got {missing_rate}")
    rng = rng if rng is not None else np.random.default_rng()
    features = graph.features.copy()
    candidates = np.arange(graph.num_nodes)
    if protect_train and graph.train_mask is not None:
        candidates = candidates[~graph.train_mask]
    num_missing = int(round(missing_rate * candidates.size))
    if num_missing > 0:
        missing = rng.choice(candidates, size=num_missing, replace=False)
        features[missing] = 0.0
    meta = {**graph.meta, "feature_missing_rate": missing_rate}
    return graph.with_(features=features, meta=meta)


def sparsify_edges(
    graph: DirectedGraph,
    drop_rate: float,
    rng: Optional[np.random.Generator] = None,
) -> DirectedGraph:
    """Randomly remove a fraction of directed edges (Fig. 7 edge sparsity)."""
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
    rng = rng if rng is not None else np.random.default_rng()
    coo = graph.adjacency.tocoo()
    num_edges = coo.nnz
    keep_count = num_edges - int(round(drop_rate * num_edges))
    keep = rng.choice(num_edges, size=keep_count, replace=False)
    adjacency = sp.csr_matrix(
        (np.ones(keep_count), (coo.row[keep], coo.col[keep])),
        shape=graph.adjacency.shape,
    )
    meta = {**graph.meta, "edge_drop_rate": drop_rate}
    return graph.with_(adjacency=adjacency, meta=meta)


def sparsify_labels(
    graph: DirectedGraph,
    labels_per_class: int,
    rng: Optional[np.random.Generator] = None,
) -> DirectedGraph:
    """Shrink the training set to ``labels_per_class`` nodes per class.

    The validation and test masks are preserved; only the training mask
    shrinks, reproducing the paper's label-sparsity sweep.
    """
    if labels_per_class < 1:
        raise ValueError(f"labels_per_class must be >= 1, got {labels_per_class}")
    if graph.train_mask is None:
        raise ValueError("graph has no train mask to sparsify")
    rng = rng if rng is not None else np.random.default_rng()
    new_train = np.zeros(graph.num_nodes, dtype=bool)
    train_indices = np.flatnonzero(graph.train_mask)
    for cls in range(graph.num_classes):
        cls_train = train_indices[graph.labels[train_indices] == cls]
        if cls_train.size == 0:
            continue
        chosen = rng.choice(cls_train, size=min(labels_per_class, cls_train.size), replace=False)
        new_train[chosen] = True
    meta = {**graph.meta, "labels_per_class": labels_per_class}
    return graph.with_(train_mask=new_train, meta=meta)


def largest_connected_component(graph: DirectedGraph) -> DirectedGraph:
    """Restrict the graph to its largest weakly connected component."""
    import networkx as nx

    nx_graph = nx.from_scipy_sparse_array(graph.adjacency, create_using=nx.DiGraph)
    components = list(nx.weakly_connected_components(nx_graph))
    if not components:
        return graph.copy()
    largest = np.array(sorted(max(components, key=len)))
    adjacency = graph.adjacency[largest][:, largest]
    return DirectedGraph(
        adjacency=adjacency,
        features=graph.features[largest],
        labels=graph.labels[largest],
        train_mask=None if graph.train_mask is None else graph.train_mask[largest],
        val_mask=None if graph.val_mask is None else graph.val_mask[largest],
        test_mask=None if graph.test_mask is None else graph.test_mask[largest],
        name=graph.name,
        meta={**graph.meta, "largest_component": True},
    )
