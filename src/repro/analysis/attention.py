"""Post-hoc inspection of ADPA's learned attention (paper Sec. IV-C analysis).

The two attention mechanisms are the interpretable part of ADPA: the DP
attention reveals which directed patterns each node relies on, the hop
attention reveals each node's effective receptive-field depth.  These
helpers extract those distributions from a trained model so they can be
summarised per class or per dataset, mirroring the qualitative analysis in
the paper's ablation discussion.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..adpa.model import ADPA
from ..graph.digraph import DirectedGraph
from ..nn import concatenate


def hop_attention_distribution(
    model: ADPA, cache: Dict[str, object], per_class: bool = False, labels: Optional[np.ndarray] = None
) -> np.ndarray:
    """Average hop-attention weights, overall or per class.

    Returns an array of shape ``(K,)`` or ``(num_classes, K)``.
    """
    weights = model.hop_weights(cache)  # (n, K)
    if not per_class:
        return weights.mean(axis=0)
    if labels is None:
        raise ValueError("per_class=True requires the label vector")
    labels = np.asarray(labels)
    return np.stack(
        [weights[labels == cls].mean(axis=0) for cls in range(int(labels.max()) + 1)]
    )


def dp_attention_distribution(model: ADPA, cache: Dict[str, object]) -> Dict[str, float]:
    """Average per-operator DP-attention weight at the first propagation step.

    Only meaningful for the softmax-based families (original / gate /
    recursive); for ``jk`` and ``none`` a uniform distribution is returned
    since those variants have no explicit per-operator weights.
    """
    operator_names = ["initial"] + list(cache["operator_names"])
    if model.dp_attention.kind in ("jk", "none"):
        uniform = 1.0 / len(operator_names)
        return {name: uniform for name in operator_names}

    blocks = cache["steps"][0]
    attention = model.dp_attention
    projected = [projection(block) for projection, block in zip(attention.projections, blocks)]
    if attention.kind == "original":
        scores = [attention.score(block.tanh()) for block in projected]
    elif attention.kind == "gate":
        scores = [attention.gate_transform(block).tanh() @ attention.context for block in projected]
    else:  # recursive
        aggregate = projected[0]
        scores = [attention.score(concatenate([projected[0], projected[0]], axis=1))]
        for block in projected[1:]:
            scores.append(attention.score(concatenate([block, aggregate], axis=1)))
            aggregate = aggregate + block
    weights = concatenate(scores, axis=1).leaky_relu(0.2).softmax(axis=1).numpy()
    averaged = weights.mean(axis=0)
    return {name: float(value) for name, value in zip(operator_names, averaged)}


def effective_receptive_depth(model: ADPA, cache: Dict[str, object]) -> np.ndarray:
    """Per-node expected propagation depth under the hop-attention weights."""
    weights = model.hop_weights(cache)  # (n, K)
    depths = np.arange(1, weights.shape[1] + 1)
    return weights @ depths


def summarize_attention(model: ADPA, graph: DirectedGraph, cache: Dict[str, object]) -> Dict[str, object]:
    """One-call summary used by the analysis example and tests."""
    return {
        "hop_distribution": hop_attention_distribution(model, cache),
        "hop_distribution_per_class": hop_attention_distribution(
            model, cache, per_class=True, labels=graph.labels
        ),
        "dp_distribution": dp_attention_distribution(model, cache),
        "mean_receptive_depth": float(effective_receptive_depth(model, cache).mean()),
    }
