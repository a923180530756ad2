"""Graph propagation operators.

This module implements every matrix operator the paper manipulates:

* the normalized (undirected) adjacency family of Eq. (1):
  random-walk ``A D^-1``, symmetric ``D^-1/2 A D^-1/2`` and reverse
  transition ``D^-1 A``, all with optional self-loops;
* the *directed pattern* (DP) operators of Sec. IV-B: for order 1 the set
  ``{A, Aᵀ}``, for order 2 additionally ``{AA, AᵀAᵀ, AAᵀ, AᵀA}``, and so on
  for higher orders (``k = 2¹ + … + 2ᴺ`` operators for an N-hop
  neighbourhood);
* the row-normalisation used by ADPA's weight-free propagation; and
* the magnetic Laplacian used by the MagNet baseline.

All operators are returned as ``scipy.sparse.csr_matrix`` so they can be
cached once per dataset and reused by every model (the decoupled design the
paper's complexity analysis relies on).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp


# ---------------------------------------------------------------------- #
# Normalised adjacency family (Eq. 1)
# ---------------------------------------------------------------------- #
def add_self_loops(adjacency: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` as CSR."""
    n = adjacency.shape[0]
    return (sp.csr_matrix(adjacency) + weight * sp.identity(n, format="csr")).tocsr()


def _safe_inverse_power(degrees: np.ndarray, power: float) -> np.ndarray:
    """Compute ``degrees ** -power`` treating zero degrees as zero."""
    inverse = np.zeros_like(degrees, dtype=np.float64)
    positive = degrees > 0
    inverse[positive] = np.power(degrees[positive], -power)
    return inverse


def normalized_adjacency(
    adjacency: sp.spmatrix,
    r: float = 0.5,
    self_loops: bool = True,
) -> sp.csr_matrix:
    """Generalised normalisation ``D^{r-1} A D^{-r}`` from Eq. (1).

    ``r = 0.5`` gives the symmetric GCN normalisation, ``r = 1`` the
    random-walk (row-stochastic) normalisation ``D^{-1} A`` applied from the
    left, and ``r = 0`` the reverse-transition normalisation ``A D^{-1}``.
    For directed inputs the out-degree is used on the right and the
    in-degree on the left, which reduces to the usual formula for
    undirected graphs.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"convolution coefficient r must lie in [0, 1], got {r}")
    matrix = add_self_loops(adjacency) if self_loops else sp.csr_matrix(adjacency)
    out_degrees = np.asarray(matrix.sum(axis=1)).ravel()
    in_degrees = np.asarray(matrix.sum(axis=0)).ravel()
    left = sp.diags(_safe_inverse_power(out_degrees, 1.0 - r))
    right = sp.diags(_safe_inverse_power(in_degrees, r))
    return (left @ matrix @ right).tocsr()


def symmetric_normalized_adjacency(adjacency: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """``D^{-1/2} (A + I) D^{-1/2}`` — the GCN propagation matrix."""
    return normalized_adjacency(adjacency, r=0.5, self_loops=self_loops)


def row_normalized(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Row-stochastic normalisation ``D^{-1} M`` (zero rows stay zero)."""
    matrix = sp.csr_matrix(matrix)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    inverse = _safe_inverse_power(row_sums, 1.0)
    return (sp.diags(inverse) @ matrix).tocsr()


def normalized_laplacian(adjacency: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """``I - D^{-1/2} A D^{-1/2}``, used by the spectral baselines."""
    n = adjacency.shape[0]
    return (sp.identity(n, format="csr") - symmetric_normalized_adjacency(adjacency, self_loops)).tocsr()


# ---------------------------------------------------------------------- #
# Directed pattern (DP) operators — Sec. IV-B
# ---------------------------------------------------------------------- #
#: Names of the six 2-order DP operators in the order used by the paper's
#: Fig. 4: A, Aᵀ, AA, AᵀAᵀ, AAᵀ, AᵀA.
SECOND_ORDER_PATTERN_NAMES: Tuple[str, ...] = ("A", "At", "AA", "AtAt", "AAt", "AtA")


def drop_diagonal(matrix: sp.spmatrix) -> sp.csr_matrix:
    """``matrix`` without its diagonal and explicit zeros, as canonical CSR.

    Duplicate entries are summed first (on a copy); one vectorised mask
    then keeps the entries off the diagonal whose value is non-zero.
    """
    matrix = sp.csr_matrix(matrix, copy=True)
    matrix.sum_duplicates()
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    keep = (rows != matrix.indices) & (matrix.data != 0)
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return sp.csr_matrix(
        (matrix.data[keep], matrix.indices[keep], kept_before[matrix.indptr]),
        shape=matrix.shape,
    )


def _binarize(matrix: sp.spmatrix, remove_self_loops: bool = True) -> sp.csr_matrix:
    """Clip weights to {0, 1} and optionally drop the diagonal.

    Composite patterns such as ``AA`` count paths; the paper treats the DP
    operator as a reachability indicator (``G_d(u, v) = 1`` if u, v are
    high-order neighbours), so we binarise before normalisation.
    """
    matrix = sp.csr_matrix(matrix)
    matrix.data = np.ones_like(matrix.data)
    return drop_diagonal(matrix) if remove_self_loops else matrix


def directed_pattern_operators(
    adjacency: sp.spmatrix,
    order: int = 2,
    binarize: bool = True,
) -> Dict[str, sp.csr_matrix]:
    """Generate the k-order DP operator dictionary.

    Parameters
    ----------
    adjacency:
        The (possibly asymmetric) adjacency ``A_d``.
    order:
        Maximum composition length N.  The number of returned operators is
        ``2 + 4 + 8 + … = 2¹ + … + 2ᴺ`` (the paper's ``k``): each pattern is
        a word over the alphabet ``{A, Aᵀ}`` of length ≤ N.
    binarize:
        Whether to binarise composite patterns into reachability indicators.

    Returns
    -------
    dict
        Ordered mapping from pattern name (e.g. ``"AAt"``) to CSR matrix.
        First-order patterns come first, then second order, and so on, so
        truncating the dict by prefix reproduces lower-order ablations.
        When ``A`` and ``Aᵀ`` are stored identically (an undirected
        graph), every word of one length is the same product ``Aᴸ``: it is
        computed once, and its names share one matrix object.  Otherwise a
        binarised composite word whose dual (the word reversed, with ``A``
        and ``Aᵀ`` swapped) is already built is that dual's transpose, as
        ``AᵀAᵀ = (AA)ᵀ``; a transpose replaces the sparse product.
    """
    if order < 1:
        raise ValueError(f"DP order must be >= 1, got {order}")
    base = {"A": sp.csr_matrix(adjacency), "At": sp.csr_matrix(adjacency).T.tocsr()}
    symmetric = _same_csr(base["A"], base["At"])
    # A word's product and its dual's hold the same terms per entry, summed
    # in other orders; without negative weights no sum cancels to zero, so
    # both binarise to the same pattern.
    transposable = binarize and not (base["A"].data < 0).any()
    built: Dict[Tuple[str, ...], sp.csr_matrix] = {}
    operators: Dict[str, sp.csr_matrix] = {}
    for length in range(1, order + 1):
        for word in itertools.product(("A", "At"), repeat=length):
            # Reading every At as A changes no operand's bytes when the two
            # are stored identically, so the product is bitwise the same.
            canonical = ("A",) * length if symmetric else word
            if canonical not in built:
                dual = _dual(canonical)
                if transposable and length > 1 and dual in built:
                    # Binarising and dropping the diagonal commute with the
                    # transpose, which is canonical CSR like drop_diagonal's
                    # output, so this is bitwise the product's binarisation.
                    matrix = built[dual].T.tocsr()
                else:
                    matrix = base[canonical[0]].copy()
                    for symbol in canonical[1:]:
                        matrix = (matrix @ base[symbol]).tocsr()
                    if binarize:
                        matrix = _binarize(matrix, remove_self_loops=(length > 1))
                built[canonical] = matrix
            operators["".join(word)] = built[canonical]
    return operators


def _dual(word: Tuple[str, ...]) -> Tuple[str, ...]:
    """The word of the transposed product: reversed, with ``A`` and ``At`` swapped."""
    return tuple("At" if symbol == "A" else "A" for symbol in reversed(word))


def _same_csr(first: sp.csr_matrix, second: sp.csr_matrix) -> bool:
    """Whether two CSR matrices store the same rows, columns and values."""
    return (
        first.shape == second.shape
        and np.array_equal(first.indptr, second.indptr)
        and np.array_equal(first.indices, second.indices)
        and np.array_equal(first.data, second.data)
    )


def num_patterns_for_order(order: int) -> int:
    """The paper's ``k`` for an N-hop neighbourhood: ``2 + 4 + … + 2ᴺ``."""
    if order < 1:
        raise ValueError(f"DP order must be >= 1, got {order}")
    return sum(2 ** i for i in range(1, order + 1))


# ---------------------------------------------------------------------- #
# Directed spectral operators
# ---------------------------------------------------------------------- #
def magnetic_laplacian(
    adjacency: sp.spmatrix,
    q: float = 0.25,
    normalized: bool = True,
) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """The q-parameterised magnetic Laplacian used by MagNet.

    Returns the real and imaginary parts ``(L_re, L_im)`` of the complex
    Hermitian Laplacian ``L = I - D_s^{-1/2} H D_s^{-1/2}`` where
    ``H = A_s ⊙ exp(i 2π q (A - Aᵀ))``, ``A_s`` is the symmetrised adjacency
    and ``D_s`` its degree matrix.  Splitting into real/imaginary parts lets
    the MagNet baseline run on the real-valued autograd substrate.
    """
    adjacency = sp.csr_matrix(adjacency)
    symmetric = ((adjacency + adjacency.T) > 0).astype(np.float64) * 0.5 * 2.0
    symmetric = sp.csr_matrix(symmetric)
    theta = 2.0 * np.pi * q * (adjacency - adjacency.T)
    theta = sp.csr_matrix(theta)
    # Hadamard product with the symmetrised support.
    cos_part = symmetric.multiply(_elementwise_cos(theta, symmetric))
    sin_part = symmetric.multiply(_elementwise_sin(theta, symmetric))
    degrees = np.asarray(symmetric.sum(axis=1)).ravel()
    n = adjacency.shape[0]
    if normalized:
        d_inv_sqrt = sp.diags(_safe_inverse_power(degrees, 0.5))
        norm_cos = d_inv_sqrt @ cos_part @ d_inv_sqrt
        norm_sin = d_inv_sqrt @ sin_part @ d_inv_sqrt
        laplacian_re = sp.identity(n, format="csr") - norm_cos
        laplacian_im = -norm_sin
    else:
        degree_matrix = sp.diags(degrees)
        laplacian_re = degree_matrix - cos_part
        laplacian_im = -sin_part
    return sp.csr_matrix(laplacian_re), sp.csr_matrix(laplacian_im)


def _elementwise_cos(theta: sp.spmatrix, support: sp.spmatrix) -> sp.csr_matrix:
    """cos(theta) evaluated on the support pattern (cos(0)=1 on support)."""
    support = sp.csr_matrix(support)
    theta = sp.csr_matrix(theta)
    result = support.copy()
    result.data = np.ones_like(result.data)
    theta_dense_on_support = np.asarray(theta[support.nonzero()]).ravel()
    result.data = np.cos(theta_dense_on_support)
    return result


def _elementwise_sin(theta: sp.spmatrix, support: sp.spmatrix) -> sp.csr_matrix:
    """sin(theta) evaluated on the support pattern."""
    support = sp.csr_matrix(support)
    theta = sp.csr_matrix(theta)
    result = support.copy()
    theta_dense_on_support = np.asarray(theta[support.nonzero()]).ravel()
    result.data = np.sin(theta_dense_on_support)
    return result


def personalized_pagerank_adjacency(
    adjacency: sp.spmatrix,
    alpha: float = 0.1,
    num_iterations: int = 10,
) -> sp.csr_matrix:
    """Approximate PPR-based symmetric digraph adjacency (DiGCN, Eq. 3 family).

    Follows DiGCN's construction: the random-walk transition matrix of the
    digraph is combined with a teleport term, the stationary distribution is
    estimated by power iteration, and a symmetric Laplacian-like operator
    ``(Π^{1/2} P Π^{-1/2} + Π^{-1/2} Pᵀ Π^{1/2}) / 2`` is returned.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"teleport probability alpha must be in (0, 1), got {alpha}")
    transition = row_normalized(add_self_loops(adjacency))
    n = adjacency.shape[0]
    pi = np.full(n, 1.0 / n)
    dense_transition = transition
    for _ in range(num_iterations):
        pi = (1 - alpha) * (dense_transition.T @ pi) + alpha / n
        total = pi.sum()
        if total > 0:
            pi = pi / total
    pi = np.maximum(pi, 1e-12)
    pi_sqrt = sp.diags(np.sqrt(pi))
    pi_inv_sqrt = sp.diags(1.0 / np.sqrt(pi))
    symmetric = 0.5 * (pi_sqrt @ dense_transition @ pi_inv_sqrt + pi_inv_sqrt @ dense_transition.T @ pi_sqrt)
    return sp.csr_matrix(symmetric)
