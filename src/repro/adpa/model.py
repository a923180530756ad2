"""ADPA: Adaptive Directed Pattern Aggregation (paper Sec. IV, Alg. 1 lines 10-16).

The model is fully decoupled:

1. :meth:`ADPA.preprocess` instantiates the k-order DP operators, optionally
   keeps the ``max_operators`` with the strongest label correlation
   (Sec. IV-B), and runs the K-step weight-free propagation of Eq. (9).
   The result is cached.
2. :meth:`ADPA.forward` applies, per propagation step, the node-wise DP
   attention (Eq. 10), then fuses the K step representations with the
   node-wise hop attention (Eq. 11) and classifies with an MLP.

Setting ``dp_attention="none"`` / ``hop_attention="none"`` reproduces the
ablation rows of Table VII; ``order`` reproduces the k-order sweep of
Table VI; ``num_steps`` the K sweep of Fig. 6.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.operators import num_patterns_for_order
from ..models.base import NodeClassifier
from ..nn import MLP, Dropout, Tensor
from ..nn import functional as F
from .attention import DirectedPatternAttention, HopAttention
from .propagation import build_dp_operators, propagate_features, select_operators


class ADPA(NodeClassifier):
    """Adaptive Directed Pattern Aggregation node classifier.

    Parameters
    ----------
    num_features, num_classes:
        Input feature dimensionality and number of target classes.
    hidden:
        Width of the fused representations and MLP hidden layers.
    num_steps:
        Propagation depth ``K`` (Eq. 9).
    order:
        DP operator order; ``order=2`` yields the six operators
        ``A, Aᵀ, AA, AᵀAᵀ, AAᵀ, AᵀA`` the paper defaults to.
    dp_attention / hop_attention:
        Attention families for the two hierarchical levels (Table VII).
    max_operators:
        Optional correlation-guided operator pruning (Sec. IV-B): keep the
        ``max_operators`` DP operators whose label correlation on the
        training nodes is strongest.  The count, not the graph, fixes the
        architecture: ``min(k, max_operators) + 1`` blocks per step.
    residual_alpha:
        Per-step initial-residual (APPNP-style) propagation strength; ``0``
        keeps the plain Eq. (9) propagation.  This is the "well-designed
        propagation strategies" extension discussed in Sec. IV-A.
    mlp_layers, dropout:
        Classifier depth and dropout rate.
    seed:
        Seed for parameter initialisation and dropout masks.
    """

    directed = True

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden: int = 64,
        num_steps: int = 3,
        order: int = 2,
        dp_attention: str = "original",
        hop_attention: str = "softmax",
        max_operators: Optional[int] = None,
        residual_alpha: float = 0.0,
        mlp_layers: int = 2,
        dropout: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(num_features, num_classes)
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if max_operators is not None and max_operators < 0:
            raise ValueError(f"max_operators must be >= 0, got {max_operators}")
        self.num_steps = num_steps
        self.order = order
        self.max_operators = max_operators
        self.residual_alpha = residual_alpha

        rng = np.random.default_rng(seed)
        self.input_dropout = Dropout(dropout, rng=rng)
        self.classifier = MLP(
            in_features=hidden,
            hidden_features=hidden,
            out_features=num_classes,
            num_layers=mlp_layers,
            dropout=dropout,
            rng=rng,
        )
        num_operators = num_patterns_for_order(order)
        if max_operators is not None:
            num_operators = min(num_operators, max_operators)
        self.dp_attention = DirectedPatternAttention(
            in_features=num_features,
            hidden_features=hidden,
            num_blocks=num_operators + 1,
            kind=dp_attention,
            rng=rng,
        )
        self.hop_attention = HopAttention(
            hidden_features=hidden,
            num_hops=num_steps,
            kind=hop_attention,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Preprocessing (training independent, Fig. 4a)
    # ------------------------------------------------------------------ #
    def preprocess(self, graph: DirectedGraph) -> Dict[str, object]:
        operators = build_dp_operators(graph, order=self.order)
        names = select_operators(graph, operators, max_operators=self.max_operators)
        propagation = propagate_features(
            graph,
            num_steps=self.num_steps,
            operators=operators,
            operator_names=names,
            residual_alpha=self.residual_alpha,
        )
        steps: List[List[Tensor]] = []
        initial = Tensor(propagation.initial)
        for step in range(propagation.num_steps):
            blocks = [initial] + [
                Tensor(propagation.steps[step][name]) for name in propagation.operator_names
            ]
            steps.append(blocks)
        return {"steps": steps, "operator_names": propagation.operator_names}

    # ------------------------------------------------------------------ #
    # Forward pass (Fig. 4b)
    # ------------------------------------------------------------------ #
    def forward(self, cache: Dict[str, object]) -> Tensor:
        steps: List[List[Tensor]] = cache["steps"]
        rows: Optional[np.ndarray] = cache.get("rows")
        dropout = self.input_dropout
        hop_representations = []
        for blocks in steps:
            # One mask per block, step-major, as dropping each block out in
            # turn would draw them.
            shape = (blocks[0].shape[0] if rows is None else len(rows), blocks[0].shape[1])
            keeps = [F.dropout_mask(shape, dropout.p, dropout.training, dropout.rng) for _ in blocks]
            hop_representations.append(self.dp_attention(blocks, rows, keeps, dropout.p))
        fused = self.hop_attention(hop_representations)
        return self.classifier(fused)

    def row_cache(self, cache: Dict[str, object], rows: np.ndarray) -> Dict[str, object]:
        """The preprocess cache's own blocks and ``rows``: both attentions act per node.

        Nothing is copied.  :meth:`forward` reads rows ``rows`` of each
        block inside its projections (:func:`repro.nn.dropout_linear`), so a
        fit holds no per-row copy of the blocks and its tape holds one
        boolean dropout mask per block instead of the dropped-out rows.
        """
        return {
            "steps": cache["steps"],
            "rows": rows,
            "operator_names": cache["operator_names"],
        }

    # ------------------------------------------------------------------ #
    # Introspection helpers used by the analysis benchmarks
    # ------------------------------------------------------------------ #
    def hop_weights(self, cache: Dict[str, object]) -> np.ndarray:
        """Per-node hop attention weights for a preprocessed graph."""
        steps: List[List[Tensor]] = cache["steps"]
        hop_representations = [self.dp_attention(blocks, cache.get("rows")) for blocks in steps]
        return self.hop_attention.attention_weights(hop_representations)
