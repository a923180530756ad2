"""Directed-pattern guided, training-free feature propagation (Eq. 9).

ADPA first instantiates the k-order DP operators
``G_d = {A, Aᵀ, AA, AᵀAᵀ, AAᵀ, AᵀA, …}`` and propagates the raw features K
steps under each operator *before* training starts:

``X^(l)_{G_g} = G_g X^(l-1)_{G_g}``  for every operator ``g`` and step ``l``,

keeping the initial residual ``X^(0) = X`` alongside.  The result is the
3-level cache ``propagated[step][operator] -> (n, f)`` consumed by the two
attention mechanisms.  Because the operators are constant sparse matrices
the whole procedure is a handful of sparse·dense products, which is exactly
the paper's complexity argument (O(kKmf) preprocessing, nothing at train
time).

This module also implements the correlation-guided operator selection
recommended in Sec. IV-B: only the operators whose ``r(G_d, N)`` on the
*training* labels is strongest are kept, to save computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..amud.correlation import pattern_profile_correlation
from ..graph.digraph import DirectedGraph
from ..graph.operators import (
    add_self_loops,
    directed_pattern_operators,
    row_normalized,
)


@dataclass
class PropagationResult:
    """Output of :func:`propagate_features`.

    Attributes
    ----------
    initial:
        The residual ``X^(0)`` (raw features), shape ``(n, f)``.
    steps:
        ``steps[l][name]`` is the feature matrix after ``l+1`` propagation
        steps under DP operator ``name``; every entry has shape ``(n, f)``.
    operator_names:
        Operator order used consistently across steps (defines the layout
        the attention mechanisms expect).
    """

    initial: np.ndarray
    steps: List[Dict[str, np.ndarray]]
    operator_names: List[str]

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_operators(self) -> int:
        return len(self.operator_names)

    def step_block(self, step: int) -> np.ndarray:
        """Concatenate ``[X^(0) | X^(step)_{G_1} | … | X^(step)_{G_k}]`` (Eq. 9)."""
        blocks = [self.initial] + [self.steps[step][name] for name in self.operator_names]
        return np.concatenate(blocks, axis=1)

    def stacked(self) -> np.ndarray:
        """All step blocks stacked as ``(K, n, (k+1) f)``; used by tests."""
        return np.stack([self.step_block(step) for step in range(self.num_steps)], axis=0)


def build_dp_operators(
    graph: DirectedGraph,
    order: int = 2,
    self_loops: bool = True,
    normalize: bool = True,
) -> Dict[str, sp.csr_matrix]:
    """Instantiate and normalise the k-order DP operators for propagation.

    Names that share one matrix (every word of one length, on an
    undirected graph) share its one normalised matrix too.
    """
    operators = directed_pattern_operators(graph.adjacency, order=order, binarize=True)
    normalised: Dict[int, sp.csr_matrix] = {}
    prepared: Dict[str, sp.csr_matrix] = {}
    for name, matrix in operators.items():
        if id(matrix) not in normalised:
            ready = add_self_loops(matrix) if self_loops else matrix
            normalised[id(matrix)] = row_normalized(ready) if normalize else ready
        prepared[name] = normalised[id(matrix)]
    return prepared


def select_operators(
    graph: DirectedGraph,
    operators: Dict[str, sp.csr_matrix],
    max_operators: Optional[int] = None,
    train_only: bool = True,
) -> List[str]:
    """Rank DP operators by ``r(G_d, N)`` and keep the ``max_operators`` strongest.

    Implements the efficiency recommendation of Sec. IV-B: when labels are
    (partially) known, operators with a higher positive correlation to the
    label-agreement structure are preferred.  The correlation is evaluated
    on the training subgraph only (``train_only=True``) so no test
    information leaks into model construction.
    """
    if max_operators is None:
        return list(operators)
    if train_only and graph.train_mask is not None:
        nodes = np.flatnonzero(graph.train_mask)
    else:
        nodes = np.arange(graph.num_nodes)
    labels = graph.labels[nodes]
    ranked = []
    for name, matrix in operators.items():
        submatrix = sp.csr_matrix(matrix)[nodes][:, nodes]
        correlation = pattern_profile_correlation(submatrix, labels)
        ranked.append((name, correlation))
    ranked.sort(key=lambda item: item[1], reverse=True)
    kept = {name for name, _ in ranked[:max_operators]}
    # Preserve the canonical operator ordering for reproducibility.
    return [name for name in operators if name in kept]


def propagate_features(
    graph: DirectedGraph,
    num_steps: int,
    operators: Optional[Dict[str, sp.csr_matrix]] = None,
    order: int = 2,
    operator_names: Optional[Sequence[str]] = None,
    residual_alpha: float = 0.0,
) -> PropagationResult:
    """Run the K-step weight-free propagation of Eq. (9).

    Parameters
    ----------
    graph:
        Input graph (directed or undirected — in the undirected case
        ``A = Aᵀ`` and the DP operators collapse pairwise, which is exactly
        the behaviour the paper describes for AMUndirected inputs).
    num_steps:
        The paper's ``K`` (number of propagation steps).
    operators:
        Pre-built operators (from :func:`build_dp_operators`); built on the
        fly when omitted.
    order:
        DP order used when operators are built here.
    operator_names:
        Optional subset/order of operators to use (output of
        :func:`select_operators`).
    residual_alpha:
        Optional per-step initial residual (the "well-designed propagation
        strategies" extension discussed in Sec. IV-A): each step becomes
        ``X^(l) = (1 - α) G X^(l-1) + α X^(0)``, i.e. an APPNP-style
        personalised-PageRank propagation per DP operator.  ``0`` recovers
        the plain Eq. (9) behaviour.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if not 0.0 <= residual_alpha < 1.0:
        raise ValueError(f"residual_alpha must be in [0, 1), got {residual_alpha}")
    if operators is None:
        operators = build_dp_operators(graph, order=order)
    if operator_names is None:
        operator_names = list(operators)
    else:
        missing = [name for name in operator_names if name not in operators]
        if missing:
            raise KeyError(f"unknown DP operators requested: {missing}")

    features = graph.features
    current = {name: features for name in operator_names}
    steps: List[Dict[str, np.ndarray]] = []
    for _ in range(num_steps):
        # Names sharing one operator (the aliases of an undirected graph)
        # also share their input, since every name starts from X, so they
        # share one product.
        products: Dict[int, np.ndarray] = {}
        next_step: Dict[str, np.ndarray] = {}
        for name in operator_names:
            operator = operators[name]
            if id(operator) not in products:
                propagated = operator @ current[name]
                if residual_alpha > 0.0:
                    propagated = (1.0 - residual_alpha) * propagated + residual_alpha * features
                products[id(operator)] = propagated
            next_step[name] = products[id(operator)]
        steps.append(next_step)
        current = next_step
    return PropagationResult(initial=features, steps=steps, operator_names=list(operator_names))
