"""Graph-agnostic MLP baseline.

The weakest baseline in every table of the paper: it ignores the topology
entirely and classifies nodes from their feature vectors alone.  It also
doubles as a sanity check for the training harness — on feature-informative
synthetic datasets it must beat random guessing by a wide margin.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..graph.digraph import DirectedGraph
from ..nn import MLP, Tensor
from .base import NodeClassifier


class MLPClassifier(NodeClassifier):
    """Plain multi-layer perceptron on raw node features."""

    directed = False

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden: int = 64,
        num_layers: int = 2,
        dropout: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_features, num_classes)
        rng = np.random.default_rng(seed)
        self.mlp = MLP(
            in_features=num_features,
            hidden_features=hidden,
            out_features=num_classes,
            num_layers=num_layers,
            dropout=dropout,
            rng=rng,
        )

    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        return {"x": Tensor(graph.features)}

    def update_preprocess(self, old_graph, new_graph, delta, cache):
        # Structure-free: the cache is the feature matrix, so any delta is
        # absorbed by rebuilding the (zero-cost) wrapper around it.
        return {"x": Tensor(new_graph.features)}

    def forward(self, cache: Dict[str, object]) -> Tensor:
        return self.mlp(cache["x"])

    def row_cache(self, cache: Dict[str, object], rows: np.ndarray) -> Dict[str, object]:
        return {"x": Tensor(cache["x"].data[rows])}
