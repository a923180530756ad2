"""SGC (Wu et al., 2019) — simplified graph convolution.

The K-step symmetric propagation is collapsed into preprocessing
(``X' = ÃᴷX``) and only a linear classifier is trained.  SGC is both a
baseline in Tables III/IV and the ancestor of ADPA's decoupled design.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import scipy.sparse as sp

from ..graph.digraph import DirectedGraph
from ..graph.operators import _safe_inverse_power, add_self_loops, symmetric_normalized_adjacency
from ..graph.transforms import to_undirected
from ..nn import Dropout, Linear, Tensor
from .base import NodeClassifier

#: Above this many edited edge pairs a delta is no longer "small"; the
#: pair-by-pair support patch would crawl, so fall back to a full
#: re-preprocess instead.
_MAX_PATCH_PAIRS = 4096


class SGC(NodeClassifier):
    """Simplified graph convolution: pre-propagation + logistic regression."""

    directed = False

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        num_steps: int = 2,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(num_features, num_classes)
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        rng = np.random.default_rng(seed)
        self.num_steps = num_steps
        self.linear = Linear(num_features, num_classes, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        symmetric = to_undirected(graph).adjacency
        adjacency = symmetric_normalized_adjacency(symmetric)
        # ``support`` is the self-looped binary symmetrisation Ã is built
        # from: entry (i, j) of Ã is (d_i^-1/2 * s_ij) * d_j^-1/2, which
        # is what lets update_preprocess() re-derive only dirty rows.
        support = add_self_loops(symmetric)
        degrees = np.asarray(support.sum(axis=1)).ravel()
        propagated = graph.features
        steps = []
        for _ in range(self.num_steps):
            propagated = adjacency @ propagated
            steps.append(propagated)
        # ``operator``/``steps``/``support`` are what update_preprocess()
        # needs to patch only the touched rows after a live GraphDelta;
        # forward() reads only ``x``.
        return {
            "x": Tensor(propagated),
            "operator": adjacency,
            "steps": steps,
            "support": support,
            "degrees": degrees,
            "dinv_sqrt": _safe_inverse_power(degrees, 0.5),
        }

    def update_preprocess(self, old_graph, new_graph, delta, cache):
        """Patch the K-step propagation for only the rows a delta touches.

        Bit-identical to ``preprocess(new_graph)``: support degrees are
        small integers (exact under any summation order), each operator
        entry is the same three-factor product ``(d_i^-1/2 * s_ij) *
        d_j^-1/2`` scipy's diagonal products evaluate, and affected dense
        rows are recomputed with the same ``csr[rows] @ dense`` kernel the
        full product uses (identical per-row accumulation order).  Every
        row outside the dirty frontier — edited endpoints, neighbours of
        degree-changed nodes, and the K-hop expansion of changed rows —
        is copied from the old result untouched.
        """
        operator = cache["operator"]
        support = cache["support"]
        degrees = cache["degrees"]
        dinv_sqrt = cache["dinv_sqrt"]
        dirty = np.empty(0, dtype=np.int64)
        if delta.touches_topology():
            edits = _support_edits(support, new_graph, delta)
            if edits is None:
                return None
            if edits:
                support = _replace_rows(support, edits)
                edited = np.fromiter(sorted(edits), count=len(edits), dtype=np.int64)
                degrees = degrees.copy()
                for row in edited:
                    start, end = support.indptr[row], support.indptr[row + 1]
                    degrees[row] = np.add.reduce(support.data[start:end])
                deg_changed = edited[degrees[edited] != cache["degrees"][edited]]
                dinv_sqrt = dinv_sqrt.copy()
                dinv_sqrt[deg_changed] = _safe_inverse_power(degrees[deg_changed], 0.5)
                # A row of Ã changes iff its support row was edited or it
                # contains a degree-changed column; Ã is symmetric, so
                # "rows containing column u" are exactly u's neighbours.
                dirty = np.unique(
                    np.concatenate([edited, _neighbours(support, deg_changed)])
                )
                operator = _replace_rows(
                    operator,
                    {
                        row: _operator_row(support, dinv_sqrt, row)
                        for row in dirty
                    },
                )

        changed = delta.feature_rows()
        propagated = new_graph.features
        steps = []
        for old_step in cache["steps"]:
            if dirty.size == 0 and changed.size == 0:
                steps.append(old_step)
                propagated = old_step
                continue
            affected = np.unique(np.concatenate([dirty, _neighbours(operator, changed)]))
            new_step = old_step.copy()
            if affected.size:
                new_step[affected] = operator[affected] @ propagated
            steps.append(new_step)
            propagated = new_step
            changed = affected
        return {
            "x": Tensor(propagated),
            "operator": operator,
            "steps": steps,
            "support": support,
            "degrees": degrees,
            "dinv_sqrt": dinv_sqrt,
        }

    def forward(self, cache: Dict[str, object]) -> Tensor:
        return self.linear(self.dropout(cache["x"]))

    def row_cache(self, cache: Dict[str, object], rows: np.ndarray) -> Dict[str, object]:
        return {"x": Tensor(cache["x"].data[rows])}


def _neighbours(operator, rows: np.ndarray) -> np.ndarray:
    """Columns stored in the given rows of a (symmetric) CSR operator."""
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    csr = operator.tocsr()
    chunks = [
        csr.indices[csr.indptr[row] : csr.indptr[row + 1]] for row in rows
    ]
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chunks)).astype(np.int64, copy=False)


def _row_contains(matrix: sp.csr_matrix, row: int, col: int) -> bool:
    start, end = matrix.indptr[row], matrix.indptr[row + 1]
    position = np.searchsorted(matrix.indices[start:end], col)
    return bool(position < end - start and matrix.indices[start + position] == col)


def _support_edits(support, new_graph, delta):
    """Per-row column edits turning the old support into the new one.

    Returns ``{row: {col: value-or-None}}`` (``None`` drops the entry),
    covering only the entries that actually change, or ``None`` when the
    delta is too large for pairwise patching.
    """
    edges = [
        array for array in (delta.add_edges, delta.remove_edges) if array is not None
    ]
    pairs = {
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v in (np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64))
    }
    if len(pairs) > _MAX_PATCH_PAIRS:
        return None
    adjacency = new_graph.adjacency.tocsr()
    if not adjacency.has_sorted_indices:
        adjacency = adjacency.sorted_indices()
    edits: Dict[int, Dict[int, object]] = {}
    for u, v in pairs:
        present = _row_contains(adjacency, u, v) or _row_contains(adjacency, v, u)
        if u == v:
            # The diagonal always keeps the identity's 1.0; a surviving
            # self-edge stacks on top of it (A_sym + I puts 2.0 there).
            value = 2.0 if present else 1.0
            if support[u, u] != value:
                edits.setdefault(u, {})[u] = value
        elif present != _row_contains(support, u, v):
            edits.setdefault(u, {})[v] = 1.0 if present else None
            edits.setdefault(v, {})[u] = 1.0 if present else None
    return edits


def _operator_row(support, dinv_sqrt, row: int):
    """One bit-exact row of ``D^-1/2 (A_sym + I) D^-1/2``."""
    start, end = support.indptr[row], support.indptr[row + 1]
    cols = support.indices[start:end]
    return cols, (dinv_sqrt[row] * support.data[start:end]) * dinv_sqrt[cols]


def _replace_rows(matrix: sp.csr_matrix, edits) -> sp.csr_matrix:
    """New CSR with the given rows replaced, all other rows shared bytes.

    ``edits`` maps a row either to ``(cols, values)`` replacing the row
    outright, or to a ``{col: value-or-None}`` patch merged into it.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    index_chunks, data_chunks, lengths = [], [], np.diff(indptr).astype(np.int64)
    cursor = 0
    for row in sorted(edits):
        start, end = int(indptr[row]), int(indptr[row + 1])
        edit = edits[row]
        if isinstance(edit, dict):
            cols = indices[start:end]
            vals = data[start:end].copy()
            keep = np.ones(cols.size, dtype=bool)
            added_cols, added_vals = [], []
            for col, value in edit.items():
                position = np.searchsorted(cols, col)
                hit = position < cols.size and cols[position] == col
                if value is None:
                    if hit:
                        keep[position] = False
                elif hit:
                    vals[position] = value
                else:
                    added_cols.append(col)
                    added_vals.append(value)
            new_cols = cols[keep]
            new_vals = vals[keep]
            if added_cols:
                new_cols = np.concatenate([new_cols, np.asarray(added_cols, dtype=indices.dtype)])
                new_vals = np.concatenate([new_vals, np.asarray(added_vals, dtype=data.dtype)])
                order = np.argsort(new_cols, kind="stable")
                new_cols, new_vals = new_cols[order], new_vals[order]
        else:
            new_cols = np.asarray(edit[0], dtype=indices.dtype)
            new_vals = np.asarray(edit[1], dtype=data.dtype)
        index_chunks += [indices[cursor:start], new_cols]
        data_chunks += [data[cursor:start], new_vals]
        lengths[row] = new_cols.size
        cursor = end
    index_chunks.append(indices[cursor:])
    data_chunks.append(data[cursor:])
    new_indptr = np.zeros(matrix.shape[0] + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=new_indptr[1:])
    return sp.csr_matrix(
        (np.concatenate(data_chunks), np.concatenate(index_chunks), new_indptr),
        shape=matrix.shape,
    )
