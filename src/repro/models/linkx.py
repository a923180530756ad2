"""LINKX (Lim et al., 2021) — separate encoders for topology and features.

``Z = MLP_f( W [ MLP_A(A) ‖ MLP_X(X) ] + MLP_A(A) + MLP_X(X) )``

The adjacency rows themselves are embedded by a linear map, so the model
sidesteps message passing entirely — the design the paper discusses as
robust to edge sparsity but unable to recover from feature sparsity
(Fig. 7 analysis).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.transforms import to_undirected
from ..nn import MLP, Linear, Tensor, concatenate, sparse_matmul
from .base import NodeClassifier, check_num_nodes


class LINKX(NodeClassifier):
    """Decoupled adjacency + feature encoder for non-homophilous graphs."""

    directed = False

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        num_nodes: int,
        hidden: int = 64,
        dropout: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_features, num_classes)
        rng = np.random.default_rng(seed)
        self.num_nodes = num_nodes
        self.feature_encoder = MLP(num_features, hidden, hidden, num_layers=1, dropout=dropout, rng=rng)
        self.combiner = Linear(2 * hidden, hidden, rng=rng)
        self.final = MLP(hidden, hidden, num_classes, num_layers=2, dropout=dropout, rng=rng)
        # A linear map from R^n embeds each adjacency row.
        self._adjacency_encoder = Linear(num_nodes, hidden, rng=rng)

    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        check_num_nodes(self, graph)
        undirected = to_undirected(graph)
        return {
            "x": Tensor(graph.features),
            "adj": undirected.adjacency.tocsr(),
        }

    def forward(self, cache: Dict[str, object]) -> Tensor:
        # Embed adjacency rows: A @ W_A, computed as a sparse-dense product.
        adjacency_embedding = sparse_matmul(cache["adj"], self._adjacency_encoder.weight)
        if self._adjacency_encoder.bias is not None:
            adjacency_embedding = adjacency_embedding + self._adjacency_encoder.bias
        feature_embedding = self.feature_encoder(cache["x"])
        combined = self.combiner(concatenate([adjacency_embedding, feature_embedding], axis=1))
        combined = (combined + adjacency_embedding + feature_embedding).relu()
        return self.final(combined)
