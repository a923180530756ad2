"""Tests for adjacency normalisations, DP operators and spectral operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    add_self_loops,
    directed_pattern_operators,
    magnetic_laplacian,
    normalized_adjacency,
    normalized_laplacian,
    num_patterns_for_order,
    personalized_pagerank_adjacency,
    row_normalized,
    symmetric_normalized_adjacency,
    SECOND_ORDER_PATTERN_NAMES,
)
from repro.graph.operators import drop_diagonal


@pytest.fixture()
def line_digraph():
    """0 -> 1 -> 2 -> 3 (a directed path)."""
    dense = np.zeros((4, 4))
    for i in range(3):
        dense[i, i + 1] = 1.0
    return sp.csr_matrix(dense)


@pytest.fixture()
def random_digraph():
    rng = np.random.default_rng(0)
    dense = (rng.random((20, 20)) < 0.15).astype(float)
    np.fill_diagonal(dense, 0)
    return sp.csr_matrix(dense)


class TestNormalisations:
    def test_add_self_loops(self, line_digraph):
        looped = add_self_loops(line_digraph)
        np.testing.assert_allclose(looped.diagonal(), np.ones(4))

    def test_symmetric_normalization_row_sums(self, random_digraph):
        symmetric_input = sp.csr_matrix(
            ((random_digraph + random_digraph.T) > 0).astype(float)
        )
        normalized = symmetric_normalized_adjacency(symmetric_input)
        eigenvalues = np.linalg.eigvalsh(normalized.toarray())
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_row_normalized_rows_sum_to_one(self, random_digraph):
        normalized = row_normalized(add_self_loops(random_digraph))
        np.testing.assert_allclose(np.asarray(normalized.sum(axis=1)).ravel(), 1.0)

    def test_row_normalized_keeps_zero_rows(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        normalized = row_normalized(matrix)
        assert normalized[1].nnz == 0

    def test_normalized_adjacency_r_bounds(self, random_digraph):
        with pytest.raises(ValueError):
            normalized_adjacency(random_digraph, r=1.5)

    def test_random_walk_variant(self, random_digraph):
        rw = normalized_adjacency(random_digraph, r=1.0)
        # D^0 A D^-1: columns of the result sum to 1 for columns with in-edges.
        column_sums = np.asarray(rw.sum(axis=0)).ravel()
        in_degree = np.asarray(add_self_loops(random_digraph).sum(axis=0)).ravel()
        np.testing.assert_allclose(column_sums[in_degree > 0], 1.0)

    def test_normalized_laplacian_psd(self, random_digraph):
        symmetric_input = sp.csr_matrix(
            ((random_digraph + random_digraph.T) > 0).astype(float)
        )
        laplacian = normalized_laplacian(symmetric_input)
        eigenvalues = np.linalg.eigvalsh(laplacian.toarray())
        assert eigenvalues.min() >= -1e-9
        assert eigenvalues.max() <= 2.0 + 1e-9


class TestDirectedPatterns:
    def test_pattern_count_by_order(self):
        assert num_patterns_for_order(1) == 2
        assert num_patterns_for_order(2) == 6
        assert num_patterns_for_order(3) == 14
        with pytest.raises(ValueError):
            num_patterns_for_order(0)

    def test_second_order_names(self, line_digraph):
        patterns = directed_pattern_operators(line_digraph, order=2)
        assert set(SECOND_ORDER_PATTERN_NAMES) == set(patterns)

    def test_transpose_relationship(self, random_digraph):
        patterns = directed_pattern_operators(random_digraph, order=2)
        np.testing.assert_array_equal(
            patterns["A"].toarray(), patterns["At"].T.toarray()
        )
        np.testing.assert_array_equal(
            patterns["AA"].toarray(), patterns["AtAt"].T.toarray()
        )

    def test_line_graph_second_order_reachability(self, line_digraph):
        patterns = directed_pattern_operators(line_digraph, order=2)
        # AA: two-step forward reachability 0->2, 1->3.
        aa = patterns["AA"].toarray()
        assert aa[0, 2] == 1 and aa[1, 3] == 1
        assert aa.sum() == 2
        # AAt: nodes sharing an out-neighbour; a path graph has none.
        assert patterns["AAt"].nnz == 0
        # AtA: nodes sharing an in-neighbour; also none on a path.
        assert patterns["AtA"].nnz == 0

    def test_shared_target_pattern(self):
        # 0 -> 2 <- 1: AAt must connect 0 and 1.
        dense = np.zeros((3, 3))
        dense[0, 2] = dense[1, 2] = 1.0
        patterns = directed_pattern_operators(sp.csr_matrix(dense), order=2)
        aat = patterns["AAt"].toarray()
        assert aat[0, 1] == 1 and aat[1, 0] == 1

    def test_binarize_and_no_self_loops(self, random_digraph):
        patterns = directed_pattern_operators(random_digraph, order=2, binarize=True)
        for name, matrix in patterns.items():
            assert np.all(np.isin(matrix.data, [1.0])), name
            if len(name.replace("At", "B")) > 1:
                assert matrix.diagonal().sum() == 0, name

    def test_invalid_order(self, line_digraph):
        with pytest.raises(ValueError):
            directed_pattern_operators(line_digraph, order=0)

    def test_undirected_input_collapses_pairs(self):
        dense = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        patterns = directed_pattern_operators(sp.csr_matrix(dense), order=2)
        np.testing.assert_array_equal(patterns["A"].toarray(), patterns["At"].toarray())
        np.testing.assert_array_equal(patterns["AA"].toarray(), patterns["AAt"].toarray())

    def test_drop_diagonal_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        saw_duplicates = False
        for _ in range(60):
            n, m = rng.integers(1, 12, size=2)
            rows = np.sort(rng.integers(0, n, size=int(rng.integers(0, 4 * n))))
            cols = rng.integers(0, m, size=rows.size)
            values = rng.choice([0.0, 1.0, -1.0, 2.0], size=rows.size)
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
            # Built from raw arrays, so duplicates and explicit zeros survive.
            matrix = sp.csr_matrix((values, cols, indptr), shape=(n, m))
            saw_duplicates |= np.unique(rows * m + cols).size < rows.size
            expected = matrix.toarray()
            np.fill_diagonal(expected, 0.0)
            dropped = drop_diagonal(matrix)
            np.testing.assert_array_equal(dropped.toarray(), expected)
            assert dropped.has_canonical_format
            assert np.all(dropped.data != 0)
        assert saw_duplicates


class TestSpectralOperators:
    def test_magnetic_laplacian_hermitian(self, random_digraph):
        laplacian_re, laplacian_im = magnetic_laplacian(random_digraph, q=0.25)
        # Real part symmetric, imaginary part antisymmetric.
        np.testing.assert_allclose(
            laplacian_re.toarray(), laplacian_re.T.toarray(), atol=1e-10
        )
        np.testing.assert_allclose(
            laplacian_im.toarray(), -laplacian_im.T.toarray(), atol=1e-10
        )

    def test_magnetic_laplacian_q_zero_matches_symmetric(self, random_digraph):
        laplacian_re, laplacian_im = magnetic_laplacian(random_digraph, q=0.0)
        assert np.abs(laplacian_im.toarray()).max() < 1e-12

    def test_magnetic_laplacian_eigenvalues_bounded(self, random_digraph):
        laplacian_re, laplacian_im = magnetic_laplacian(random_digraph, q=0.25)
        hermitian = laplacian_re.toarray() + 1j * laplacian_im.toarray()
        eigenvalues = np.linalg.eigvalsh(hermitian)
        assert eigenvalues.min() >= -1e-8
        assert eigenvalues.max() <= 2.0 + 1e-8

    def test_ppr_adjacency_symmetric(self, random_digraph):
        operator = personalized_pagerank_adjacency(random_digraph, alpha=0.1)
        np.testing.assert_allclose(operator.toarray(), operator.T.toarray(), atol=1e-10)

    def test_ppr_invalid_alpha(self, random_digraph):
        with pytest.raises(ValueError):
            personalized_pagerank_adjacency(random_digraph, alpha=1.5)
