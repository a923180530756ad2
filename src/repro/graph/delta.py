"""Live graph mutation: :class:`GraphDelta` and its incremental application.

A :class:`GraphDelta` is a batch of edits against one
:class:`~repro.graph.digraph.DirectedGraph` — edge inserts/deletes,
feature-row replacements, label updates and split-mask flips.
:func:`apply_delta` (also exposed as ``DirectedGraph.apply_delta``)
returns the mutated graph *with its content fingerprint maintained
incrementally*: only the :data:`~repro.fingerprint.BLOCK_ROWS`-row blocks
holding an edited adjacency or feature row are re-hashed against the
canonicalised baseline and recombined, which is bit-identical to a full
rehash by construction (the digest is built from block sub-digests, see
:mod:`repro.fingerprint`).  A delta costs one block hash per touched
block, not a pass over every row.

The adjacency edit itself is CSR row surgery: untouched row segments are
bulk-copied, touched rows rebuilt (removals applied first, then inserts,
last-wins on duplicates, columns re-sorted), so the result is already in
canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..fingerprint import (
    _array_digest_bytes,
    blocks_of,
    csr_block_digest,
    dense_block_digest,
    fingerprint_state,
)
from .digraph import DirectedGraph

EdgeLike = Union[Tuple[int, int], Sequence[int]]

#: mask aliases accepted by ``set_masks`` → DirectedGraph attribute names.
_MASK_ATTRS = {"train": "train_mask", "val": "val_mask", "test": "test_mask"}


@dataclass(frozen=True)
class GraphDelta:
    """A batch of live edits to apply against one graph.

    Parameters
    ----------
    add_edges:
        ``(m, 2)`` array-like of directed ``(source, target)`` pairs to
        insert (or re-weight when the edge already exists).
    add_weights:
        Optional weights for ``add_edges`` (scalar or ``(m,)``); defaults
        to 1.0.  Zero weights are rejected — use ``remove_edges``.
    remove_edges:
        ``(m, 2)`` array-like of directed pairs to delete.  Removing an
        absent edge is a no-op.  Removals are applied before inserts, so a
        pair present in both ends up inserted.
    set_features:
        ``{node: row}`` feature-row replacements.
    set_labels:
        ``{node: label}`` label updates.
    set_masks:
        ``{"train"|"val"|"test": {node: bool}}`` split-mask flips.
    """

    add_edges: Optional[np.ndarray] = None
    add_weights: Optional[np.ndarray] = None
    remove_edges: Optional[np.ndarray] = None
    set_features: Mapping[int, np.ndarray] = field(default_factory=dict)
    set_labels: Mapping[int, int] = field(default_factory=dict)
    set_masks: Mapping[str, Mapping[int, bool]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_edges", _as_edge_array(self.add_edges, "add_edges"))
        object.__setattr__(
            self, "remove_edges", _as_edge_array(self.remove_edges, "remove_edges")
        )
        if self.add_edges is None:
            if self.add_weights is not None:
                raise ValueError("add_weights given without add_edges")
            weights = None
        else:
            weights = np.broadcast_to(
                np.asarray(
                    1.0 if self.add_weights is None else self.add_weights,
                    dtype=np.float64,
                ),
                (self.add_edges.shape[0],),
            ).copy()
            if np.any(weights == 0.0):
                raise ValueError(
                    "zero-weight edge insert would store an explicit zero; "
                    "use remove_edges to delete edges"
                )
        object.__setattr__(self, "add_weights", weights)
        object.__setattr__(
            self,
            "set_features",
            {
                int(node): np.asarray(row, dtype=np.float64).ravel()
                for node, row in dict(self.set_features).items()
            },
        )
        object.__setattr__(
            self,
            "set_labels",
            {int(node): int(label) for node, label in dict(self.set_labels).items()},
        )
        masks: Dict[str, Dict[int, bool]] = {}
        for raw_name, flips in dict(self.set_masks).items():
            name = str(raw_name)
            key = name[: -len("_mask")] if name.endswith("_mask") else name
            if key not in _MASK_ATTRS:
                raise ValueError(
                    f"unknown mask {raw_name!r}; expected one of {sorted(_MASK_ATTRS)}"
                )
            masks[key] = {int(node): bool(value) for node, value in dict(flips).items()}
        object.__setattr__(self, "set_masks", masks)

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    def edge_endpoints(self) -> np.ndarray:
        """Sorted unique node ids appearing as either endpoint of an edge edit."""
        nodes = [
            edges.ravel()
            for edges in (self.add_edges, self.remove_edges)
            if edges is not None
        ]
        if not nodes:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(nodes))

    def feature_rows(self) -> np.ndarray:
        """Sorted unique feature rows this delta replaces."""
        return np.array(sorted(self.set_features), dtype=np.int64)

    def touches_topology(self) -> bool:
        return self.add_edges is not None or self.remove_edges is not None

    def validate(self, graph: DirectedGraph) -> None:
        """Raise ``ValueError`` if any edit is out of bounds for ``graph``."""
        n = graph.num_nodes
        endpoints = self.edge_endpoints()
        if endpoints.size and (endpoints[0] < 0 or endpoints[-1] >= n):
            raise ValueError(f"edge endpoint out of range for a {n}-node graph")
        for node, row in self.set_features.items():
            if not 0 <= node < n:
                raise ValueError(f"feature row {node} out of range for a {n}-node graph")
            if row.shape[0] != graph.num_features:
                raise ValueError(
                    f"feature row for node {node} has {row.shape[0]} values, "
                    f"graph has {graph.num_features} features"
                )
        for node, label in self.set_labels.items():
            if not 0 <= node < n:
                raise ValueError(f"label node {node} out of range for a {n}-node graph")
            if label < 0:
                raise ValueError(f"label for node {node} must be non-negative")
        for key, flips in self.set_masks.items():
            if getattr(graph, _MASK_ATTRS[key]) is None:
                raise ValueError(
                    f"cannot flip {key!r} mask: graph {graph.name!r} has no such split"
                )
            for node in flips:
                if not 0 <= node < n:
                    raise ValueError(f"mask node {node} out of range for a {n}-node graph")

    def describe(self) -> str:
        parts = []
        if self.add_edges is not None:
            parts.append(f"+{self.add_edges.shape[0]} edges")
        if self.remove_edges is not None:
            parts.append(f"-{self.remove_edges.shape[0]} edges")
        if self.set_features:
            parts.append(f"{len(self.set_features)} feature rows")
        if self.set_labels:
            parts.append(f"{len(self.set_labels)} labels")
        if self.set_masks:
            parts.append(f"{sum(len(f) for f in self.set_masks.values())} mask flips")
        return "GraphDelta(" + (", ".join(parts) if parts else "empty") + ")"


def _as_edge_array(edges, name: str) -> Optional[np.ndarray]:
    if edges is None:
        return None
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return None
    if array.ndim == 1 and array.shape[0] == 2:
        array = array[None, :]
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"{name} must be an (m, 2) array of (source, target) pairs")
    return array


# ------------------------------------------------------------------ #
# Application
# ------------------------------------------------------------------ #
def _edited_adjacency(
    adjacency: sp.csr_matrix, delta: GraphDelta
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """CSR row surgery: return (new canonical adjacency, edited row ids)."""
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    n = adjacency.shape[0]

    removals: Dict[int, set] = {}
    if delta.remove_edges is not None:
        for u, v in delta.remove_edges:
            removals.setdefault(int(u), set()).add(int(v))
    additions: Dict[int, Dict[int, float]] = {}
    if delta.add_edges is not None:
        for (u, v), w in zip(delta.add_edges, delta.add_weights):
            additions.setdefault(int(u), {})[int(v)] = float(w)  # last wins

    touched = np.unique(np.array(sorted(set(removals) | set(additions)), dtype=np.int64))
    new_rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    lengths = np.diff(indptr)
    for row in touched:
        start, end = indptr[row], indptr[row + 1]
        cols, vals = indices[start:end], data[start:end]
        removed = removals.get(int(row))
        if removed:
            keep = np.isin(cols, np.fromiter(removed, np.int64, len(removed)), invert=True)
            cols, vals = cols[keep], vals[keep]
        added = additions.get(int(row))
        if added:
            add_cols = np.fromiter(added.keys(), np.int64, len(added))
            add_vals = np.fromiter(added.values(), np.float64, len(added))
            keep = np.isin(cols, add_cols, invert=True)  # re-weight existing edges
            cols = np.concatenate([cols[keep], add_cols])
            vals = np.concatenate([vals[keep], add_vals])
            order = np.argsort(cols, kind="stable")
            cols, vals = cols[order], vals[order]
        new_rows[int(row)] = (
            np.ascontiguousarray(cols, dtype=np.int64),
            np.ascontiguousarray(vals, dtype=np.float64),
        )
        lengths[row] = cols.size

    new_indptr = np.empty(n + 1, dtype=np.int64)
    new_indptr[0] = 0
    np.cumsum(lengths, out=new_indptr[1:])
    new_indices = np.empty(new_indptr[-1], dtype=np.int64)
    new_data = np.empty(new_indptr[-1], dtype=np.float64)
    previous = 0
    for row in touched:
        row = int(row)
        # Bulk-copy the untouched block [previous, row), then the new row.
        new_indices[new_indptr[previous] : new_indptr[row]] = indices[
            indptr[previous] : indptr[row]
        ]
        new_data[new_indptr[previous] : new_indptr[row]] = data[
            indptr[previous] : indptr[row]
        ]
        cols, vals = new_rows[row]
        new_indices[new_indptr[row] : new_indptr[row + 1]] = cols
        new_data[new_indptr[row] : new_indptr[row + 1]] = vals
        previous = row + 1
    new_indices[new_indptr[previous] :] = indices[indptr[previous] :]
    new_data[new_indptr[previous] :] = data[indptr[previous] :]
    return (
        sp.csr_matrix((new_data, new_indices, new_indptr), shape=adjacency.shape),
        touched,
    )


def apply_delta(
    graph: DirectedGraph, delta: GraphDelta, *, validate: bool = False
) -> DirectedGraph:
    """Apply ``delta`` to ``graph``, maintaining the fingerprint incrementally.

    Returns a new :class:`DirectedGraph` (the input is never mutated) whose
    cached fingerprint state was produced by re-hashing only the adjacency
    and feature blocks that hold an edited row, and the touched whole
    arrays, against the canonicalised baseline.  With ``validate=True`` the
    incremental digest is checked against a full rehash of the mutated
    arrays (bit-identity guard; used by the test-suite and the delta
    benchmark).
    """
    delta.validate(graph)
    state = graph.fingerprint_state().copy()
    adjacency = graph.canonical_adjacency()

    if delta.touches_topology():
        adjacency, edited_rows = _edited_adjacency(adjacency, delta)
    else:
        edited_rows = np.empty(0, dtype=np.int64)

    features = graph.features
    if delta.set_features:
        features = np.ascontiguousarray(features).copy()
        for node, row in delta.set_features.items():
            features[node] = row

    labels = graph.labels
    if delta.set_labels:
        labels = labels.copy()
        for node, label in delta.set_labels.items():
            labels[node] = label

    masks = {name: getattr(graph, name) for name in _MASK_ATTRS.values()}
    for key, flips in delta.set_masks.items():
        attr = _MASK_ATTRS[key]
        mask = masks[attr].copy()
        for node, value in flips.items():
            mask[node] = value
        masks[attr] = mask

    updated = DirectedGraph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        name=graph.name,
        meta=dict(graph.meta),
        **masks,
    )

    # Incremental fingerprint: re-hash only the blocks the delta touched.
    for block in blocks_of(edited_rows):
        state.adjacency_blocks[block] = csr_block_digest(adjacency, block)
    if delta.set_features:
        contiguous = np.ascontiguousarray(updated.features)
        for block in blocks_of(delta.set_features):
            state.feature_blocks[block] = dense_block_digest(contiguous, block)
    if delta.set_labels:
        state.label_digest = _array_digest_bytes("labels", updated.labels)
    for key in delta.set_masks:
        attr = _MASK_ATTRS[key]
        state.mask_digests[attr] = _array_digest_bytes(attr, getattr(updated, attr))

    incremental = state.digest()
    if validate:
        full = fingerprint_state(updated).digest()
        if incremental != full:
            raise RuntimeError(
                f"incremental fingerprint {incremental} diverged from full rehash {full}"
            )
    object.__setattr__(updated, "_fingerprint_state", state)
    object.__setattr__(updated, "_fingerprint_cache", incremental)
    # Row surgery preserves canonical form, so chained deltas skip the
    # canonicalisation pass entirely.
    object.__setattr__(updated, "_canonical_adjacency", adjacency)
    return updated
