"""A2DUG (Maekawa et al., 2023) — aggregated features and adjacency lists,
from both the directed and undirected views.

A2DUG concatenates, for every node, (1) MLP-encoded raw features,
(2) propagated features under the undirected adjacency, (3) propagated
features under the directed adjacency and its transpose, and (4) linear
embeddings of the (un)directed adjacency rows, then trains a joint MLP.
The model "lets the data decide" which view matters — but, as the paper
argues, collapsing the directed patterns into whole-adjacency embeddings
obscures the per-pattern homophily/heterophily distinctions ADPA exploits.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.operators import add_self_loops, row_normalized, symmetric_normalized_adjacency
from ..graph.transforms import to_undirected
from ..nn import MLP, Linear, Tensor, concatenate, sparse_matmul
from .base import NodeClassifier, check_num_nodes


class A2DUG(NodeClassifier):
    """Combined aggregated-feature / adjacency-list model over both views."""

    directed = True

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        num_nodes: int,
        hidden: int = 64,
        num_steps: int = 2,
        dropout: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_features, num_classes)
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        rng = np.random.default_rng(seed)
        self.num_nodes = num_nodes
        self.num_steps = num_steps
        self.feature_encoder = MLP(num_features, hidden, hidden, num_layers=1, dropout=dropout, rng=rng)
        self.undirected_encoder = MLP(num_features, hidden, hidden, num_layers=1, dropout=dropout, rng=rng)
        self.directed_encoder = MLP(2 * num_features, hidden, hidden, num_layers=1, dropout=dropout, rng=rng)
        self.classifier = MLP(5 * hidden, hidden, num_classes, num_layers=2, dropout=dropout, rng=rng)
        # Linear maps from R^n embed the undirected and directed adjacency rows.
        self._undirected_adj_encoder = Linear(num_nodes, hidden, rng=rng)
        self._directed_adj_encoder = Linear(num_nodes, hidden, rng=rng)

    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        check_num_nodes(self, graph)
        undirected = to_undirected(graph)
        undirected_norm = symmetric_normalized_adjacency(undirected.adjacency)
        out_norm = row_normalized(add_self_loops(graph.adjacency))
        in_norm = row_normalized(add_self_loops(graph.adjacency.T.tocsr()))

        undirected_features = graph.features
        out_features = graph.features
        in_features = graph.features
        for _ in range(self.num_steps):
            undirected_features = undirected_norm @ undirected_features
            out_features = out_norm @ out_features
            in_features = in_norm @ in_features

        return {
            "x": Tensor(graph.features),
            "undirected_propagated": Tensor(undirected_features),
            "directed_propagated": Tensor(np.concatenate([out_features, in_features], axis=1)),
            "undirected_adj": undirected.adjacency.tocsr(),
            "directed_adj": graph.adjacency.tocsr(),
        }

    def forward(self, cache: Dict[str, object]) -> Tensor:
        feature_part = self.feature_encoder(cache["x"])
        undirected_part = self.undirected_encoder(cache["undirected_propagated"])
        directed_part = self.directed_encoder(cache["directed_propagated"])
        undirected_rows = sparse_matmul(cache["undirected_adj"], self._undirected_adj_encoder.weight)
        undirected_rows = undirected_rows + self._undirected_adj_encoder.bias
        directed_rows = sparse_matmul(cache["directed_adj"], self._directed_adj_encoder.weight)
        directed_rows = directed_rows + self._directed_adj_encoder.bias
        combined = concatenate(
            [feature_part, undirected_part, directed_part, undirected_rows, directed_rows], axis=1
        ).relu()
        return self.classifier(combined)
