"""The two hierarchical node-adaptive attention mechanisms of ADPA (Sec. IV-C).

Level 1 — *node-wise DP attention* (Eq. 10) fuses, at each propagation step,
the initial residual with the k operator-specific feature blocks into a
single ``(n, hidden)`` representation.  The paper notes the concrete
attention family is swappable; four families are provided and ablated in
Table VII:

* ``original`` — softmax attention over operators, scores computed from a
  per-operator linear projection of the node's block;
* ``gate``      — gate attention (tanh projection followed by a context
  vector, GATE-style);
* ``recursive`` — recursive attention where each operator is scored against
  the running aggregate (GAMLP-style);
* ``jk``        — jumping-knowledge fusion: plain concatenation followed by
  a linear map (no explicit per-operator weights).

Level 2 — *node-wise hop attention* (Eq. 11) fuses the K per-step outputs
into the final node representation, with per-node softmax weights computed
from the concatenation of all hop representations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import (
    Linear,
    Module,
    Parameter,
    Tensor,
    concatenate,
    dropout_linear,
    dropped_rows,
    weighted_sum,
)
from ..nn import init

DP_ATTENTION_KINDS = ("original", "gate", "recursive", "jk", "none")
HOP_ATTENTION_KINDS = ("softmax", "mean", "none")


def _softmax_weights(scores: List[Tensor]) -> Tensor:
    """Per-node softmax over ``(n, 1)`` scores: the ``(n, len(scores))`` weights."""
    return concatenate(scores, axis=1).leaky_relu(0.2).softmax(axis=1)


class DirectedPatternAttention(Module):
    """Node-wise DP attention (level 1, Eq. 10).

    Parameters
    ----------
    in_features:
        Dimensionality of each incoming block (the raw feature size ``f``).
    hidden_features:
        Output dimensionality of the fused representation.
    num_blocks:
        ``k + 1``: the initial residual plus one block per DP operator.
    kind:
        One of :data:`DP_ATTENTION_KINDS`.  ``"none"`` averages the blocks,
        matching the "w/o DP attention" ablation row of Table VII.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_blocks: int,
        kind: str = "original",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kind not in DP_ATTENTION_KINDS:
            raise ValueError(f"unknown DP attention kind {kind!r}; expected one of {DP_ATTENTION_KINDS}")
        rng = rng if rng is not None else np.random.default_rng()
        self.kind = kind
        self.num_blocks = num_blocks
        # Per-block projections implement the concatenation-then-MLP of
        # Eq. (10): a linear layer applied to the concatenation of k+1 blocks
        # is exactly the sum of k+1 block-specific linear maps, and keeping
        # them separate lets the attention reweight each operator's
        # contribution per node.
        self.projections = [Linear(in_features, hidden_features, rng=rng) for _ in range(num_blocks)]
        if kind == "jk":
            self.fuse = Linear(num_blocks * hidden_features, hidden_features, rng=rng)
        elif kind == "original":
            self.score = Linear(hidden_features, 1, rng=rng)
        elif kind == "gate":
            self.gate_transform = Linear(hidden_features, hidden_features, rng=rng)
            self.context = Parameter(init.normal((hidden_features, 1), rng, std=0.1))
        elif kind == "recursive":
            self.score = Linear(2 * hidden_features, 1, rng=rng)

    def forward(
        self,
        blocks: Sequence[Tensor],
        rows: Optional[np.ndarray] = None,
        keeps: Optional[Sequence[Optional[np.ndarray]]] = None,
        p: float = 0.0,
    ) -> Tensor:
        """Fuse ``[X^(0), X_G1, …, X_Gk]`` (each ``(n, f)``) into ``(n, hidden)``.

        The blocks are constants, such as ADPA's preprocessed features.  The
        attention reads rows ``rows`` of each (every row when ``None``),
        after an input dropout of rate ``p`` that kept ``keeps[i]`` of block
        ``i`` (``None`` drops nothing).  Each projection is one
        :func:`~repro.nn.tensor.dropout_linear` node, so the tape holds the
        boolean masks, not the rows or their dropped-out copies.
        """
        if len(blocks) != self.num_blocks:
            raise ValueError(
                f"expected {self.num_blocks} blocks, got {len(blocks)}"
            )
        keeps = keeps if keeps is not None else [None] * len(blocks)
        if self.kind == "none":
            # Ablation: average the raw blocks and use a single shared
            # projection — no per-operator weighting at all.
            total = dropped_rows(blocks[0].data, rows, keeps[0], p)
            for block, keep in zip(blocks[1:], keeps[1:]):
                total = total + dropped_rows(block.data, rows, keep, p)
            return self.projections[0](Tensor(total * (1.0 / len(blocks))))
        projected = [
            dropout_linear(block.data, projection.weight, projection.bias, rows, keep, p)
            for projection, block, keep in zip(self.projections, blocks, keeps)
        ]
        if self.kind == "jk":
            return self.fuse(concatenate(projected, axis=1))
        if self.kind == "original":
            scores = [self.score(block.tanh()) for block in projected]  # each (n, 1)
        elif self.kind == "gate":
            scores = [self.gate_transform(block).tanh() @ self.context for block in projected]
        else:
            # recursive: score each block against the running aggregate.
            aggregate = projected[0]
            scores = [self.score(concatenate([projected[0], projected[0]], axis=1))]
            for block in projected[1:]:
                scores.append(self.score(concatenate([block, aggregate], axis=1)))
                aggregate = aggregate + block
        return weighted_sum(projected, _softmax_weights(scores))


class HopAttention(Module):
    """Node-wise hop attention (level 2, Eq. 11).

    Computes per-node, per-hop weights ``W_hop^(l) = softmax_l(δ(E^(l)))``
    from the concatenation of all hop representations and returns the
    weighted sum ``X* = Σ_l W_hop^(l) X̄^(l)``.
    """

    def __init__(
        self,
        hidden_features: int,
        num_hops: int,
        kind: str = "softmax",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kind not in HOP_ATTENTION_KINDS:
            raise ValueError(f"unknown hop attention kind {kind!r}; expected one of {HOP_ATTENTION_KINDS}")
        rng = rng if rng is not None else np.random.default_rng()
        self.kind = kind
        self.num_hops = num_hops
        if kind == "softmax":
            self.summary = Linear(num_hops * hidden_features, hidden_features, rng=rng)
            self.score = Linear(2 * hidden_features, 1, rng=rng)

    def forward(self, hops: Sequence[Tensor]) -> Tensor:
        """Fuse the K per-step representations (each ``(n, hidden)``)."""
        if len(hops) != self.num_hops:
            raise ValueError(f"expected {self.num_hops} hop representations, got {len(hops)}")
        if self.kind == "none":
            return hops[-1]
        if self.kind == "mean":
            total = hops[0]
            for hop in hops[1:]:
                total = total + hop
            return total * (1.0 / len(hops))
        return weighted_sum(hops, self._weights(hops))

    def _weights(self, hops: Sequence[Tensor]) -> Tensor:
        summary = self.summary(concatenate(list(hops), axis=1)).tanh()  # E_i, (n, hidden)
        scores = [self.score(concatenate([hop, summary], axis=1)) for hop in hops]
        return _softmax_weights(scores)  # (n, K)

    def attention_weights(self, hops: Sequence[Tensor]) -> np.ndarray:
        """Return the per-node hop weights (useful for analysis plots)."""
        if self.kind != "softmax":
            uniform = np.full((hops[0].shape[0], len(hops)), 1.0 / len(hops))
            return uniform
        return self._weights(hops).numpy()
