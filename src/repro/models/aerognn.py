"""AERO-GNN (Lee et al., 2023) — deep attentive propagation, simplified.

AERO-GNN addresses the degeneration of attention in deep GNNs with
edge/hop-level attention that stays expressive as depth grows.  The
reproduction keeps the two ingredients that matter for the paper's
comparisons: (1) many propagation steps over the symmetric adjacency, and
(2) a learnable per-hop attention vector that mixes the intermediate states
per node, so the effective receptive field adapts instead of oversmoothing.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.operators import symmetric_normalized_adjacency
from ..graph.transforms import to_undirected
from ..nn import MLP, Linear, Tensor, concatenate, sparse_matmul, weighted_sum
from .base import NodeClassifier


class AeroGNN(NodeClassifier):
    """Hop-attentive deep propagation model."""

    directed = False

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden: int = 64,
        num_steps: int = 6,
        dropout: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_features, num_classes)
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        rng = np.random.default_rng(seed)
        self.num_steps = num_steps
        self.encoder = MLP(num_features, hidden, hidden, num_layers=1, dropout=dropout, rng=rng)
        self.hop_score = Linear(hidden, 1, rng=rng)
        self.classifier = MLP(hidden, hidden, num_classes, num_layers=2, dropout=dropout, rng=rng)

    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        return {
            "x": Tensor(graph.features),
            "adj": symmetric_normalized_adjacency(to_undirected(graph).adjacency),
        }

    def forward(self, cache: Dict[str, object]) -> Tensor:
        adjacency = cache["adj"]
        state = self.encoder(cache["x"]).relu()
        hops: List[Tensor] = [state]
        for _ in range(self.num_steps):
            state = sparse_matmul(adjacency, state)
            hops.append(state)
        scores = [self.hop_score(hop.tanh()) for hop in hops]
        weights = concatenate(scores, axis=1).leaky_relu(0.2).softmax(axis=1)
        return self.classifier(weighted_sum(hops, weights))
