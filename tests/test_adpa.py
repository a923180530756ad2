"""Tests for ADPA: propagation, the two attention levels, and the full model."""

import numpy as np
import pytest

from repro.adpa import (
    ADPA,
    DirectedPatternAttention,
    HopAttention,
    PropagationResult,
    build_dp_operators,
    propagate_features,
    select_operators,
)
from repro.nn import Tensor
from repro.training import Trainer


class TestPropagation:
    def test_operator_dictionary(self, heterophilous_graph):
        operators = build_dp_operators(heterophilous_graph, order=2)
        assert set(operators) == {"A", "At", "AA", "AtAt", "AAt", "AtA"}
        for matrix in operators.values():
            np.testing.assert_allclose(np.asarray(matrix.sum(axis=1)).ravel(), 1.0)

    def test_propagation_shapes(self, heterophilous_graph):
        result = propagate_features(heterophilous_graph, num_steps=3)
        assert isinstance(result, PropagationResult)
        assert result.num_steps == 3
        assert result.num_operators == 6
        n, f = heterophilous_graph.features.shape
        assert result.initial.shape == (n, f)
        for step in result.steps:
            for matrix in step.values():
                assert matrix.shape == (n, f)

    def test_step_block_concatenation(self, heterophilous_graph):
        result = propagate_features(heterophilous_graph, num_steps=2)
        n, f = heterophilous_graph.features.shape
        block = result.step_block(0)
        assert block.shape == (n, (result.num_operators + 1) * f)
        stacked = result.stacked()
        assert stacked.shape == (2, n, (result.num_operators + 1) * f)

    def test_propagation_is_iterative(self, heterophilous_graph):
        """Step l must equal the operator applied to step l-1 (Eq. 9)."""
        operators = build_dp_operators(heterophilous_graph, order=2)
        result = propagate_features(heterophilous_graph, num_steps=2, operators=operators)
        for name, operator in operators.items():
            expected = operator @ result.steps[0][name]
            np.testing.assert_allclose(result.steps[1][name], expected)

    def test_invalid_steps(self, heterophilous_graph):
        with pytest.raises(ValueError):
            propagate_features(heterophilous_graph, num_steps=0)

    def test_unknown_operator_name(self, heterophilous_graph):
        with pytest.raises(KeyError):
            propagate_features(heterophilous_graph, num_steps=1, operator_names=["bogus"])

    def test_operator_subset_respected(self, heterophilous_graph):
        result = propagate_features(heterophilous_graph, num_steps=1, operator_names=["A", "AAt"])
        assert result.operator_names == ["A", "AAt"]
        assert set(result.steps[0]) == {"A", "AAt"}

    def test_selection_keeps_canonical_order(self, heterophilous_graph):
        operators = build_dp_operators(heterophilous_graph, order=2)
        kept = select_operators(heterophilous_graph, operators, max_operators=3)
        assert len(kept) == 3
        positions = [list(operators).index(name) for name in kept]
        assert positions == sorted(positions)

    def test_selection_prefers_informative_patterns(self, heterophilous_graph):
        """On cyclic heterophilous digraphs AAᵀ/AᵀA carry the homophily signal."""
        operators = build_dp_operators(heterophilous_graph, order=2)
        kept = select_operators(heterophilous_graph, operators, max_operators=2)
        assert set(kept) & {"AAt", "AtA"}


def _per_word_blocks(graph, order, num_steps):
    """ADPA's step blocks with every DP word built, normalised and propagated alone."""
    import itertools

    import scipy.sparse as sp

    from repro.graph.operators import _binarize, add_self_loops, row_normalized

    base = {"A": sp.csr_matrix(graph.adjacency), "At": sp.csr_matrix(graph.adjacency).T.tocsr()}
    operators = {}
    for length in range(1, order + 1):
        for word in itertools.product(("A", "At"), repeat=length):
            matrix = base[word[0]].copy()
            for symbol in word[1:]:
                matrix = (matrix @ base[symbol]).tocsr()
            matrix = _binarize(matrix, remove_self_loops=length > 1)
            operators["".join(word)] = row_normalized(add_self_loops(matrix))
    current = {name: graph.features for name in operators}
    steps = []
    for _ in range(num_steps):
        current = {name: operator @ current[name] for name, operator in operators.items()}
        steps.append([graph.features] + [current[name] for name in operators])
    return steps


class TestOperatorAliasing:
    """On A = Aᵀ every DP word of one length is one matrix, built and propagated once."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("view", ["natural", "undirected"])
    @pytest.mark.parametrize("dataset", ["texas", "chameleon", "coraml"])
    def test_cache_is_bitwise_the_per_word_construction(self, dataset, view, order):
        from repro.datasets import load_dataset
        from repro.graph.transforms import to_undirected

        graph = load_dataset(dataset)
        if view == "undirected":
            graph = to_undirected(graph)
        model = ADPA.from_graph(graph, hidden=8, num_steps=3, order=order)
        cache = model.preprocess(graph)
        expected = _per_word_blocks(graph, order, num_steps=3)
        for blocks, reference in zip(cache["steps"], expected):
            assert len(blocks) == len(reference)
            for block, array in zip(blocks, reference):
                assert block.data.dtype == array.dtype
                np.testing.assert_array_equal(block.data, array)
        distinct = {id(block.data) for blocks in cache["steps"] for block in blocks}
        words = sum(2 ** length for length in range(1, order + 1))
        # X, then per step one block per word (directed) or per length.
        per_step = order if view == "undirected" else words
        assert len(distinct) == 1 + 3 * per_step

    def test_symmetric_words_share_one_matrix(self, homophilous_graph):
        from repro.graph.operators import directed_pattern_operators
        from repro.graph.transforms import to_undirected

        symmetric = to_undirected(homophilous_graph)
        operators = build_dp_operators(symmetric, order=2)
        assert operators["A"] is operators["At"]
        assert operators["AA"] is operators["AtAt"] is operators["AAt"] is operators["AtA"]
        raw = directed_pattern_operators(symmetric.adjacency, order=2)
        assert raw["AA"] is raw["AtA"] and raw["A"] is not raw["AA"]
        directed = build_dp_operators(homophilous_graph, order=2)
        assert len({id(matrix) for matrix in directed.values()}) == 6

    def test_a_symmetric_matrix_stored_out_of_order_keeps_every_word(self, homophilous_graph):
        import scipy.sparse as sp

        from repro.graph.transforms import to_undirected

        # A = Aᵀ in value, but each row's entries are stored in reverse, so
        # A's bytes differ from Aᵀ's (sorted) and aliasing would change the
        # summation order of the propagation.
        adjacency = to_undirected(homophilous_graph).adjacency.tocsr()
        indices, data = adjacency.indices.copy(), adjacency.data.copy()
        for row in range(adjacency.shape[0]):
            span = slice(adjacency.indptr[row], adjacency.indptr[row + 1])
            indices[span], data[span] = indices[span][::-1], data[span][::-1]
        reversed_rows = sp.csr_matrix((data, indices, adjacency.indptr), shape=adjacency.shape)
        graph = homophilous_graph.with_(adjacency=reversed_rows)
        assert not graph.adjacency.has_sorted_indices
        operators = build_dp_operators(graph, order=2)
        assert operators["A"] is not operators["At"]
        model = ADPA.from_graph(graph, hidden=8, num_steps=3)
        cache = model.preprocess(graph)
        for blocks, reference in zip(cache["steps"], _per_word_blocks(graph, 2, num_steps=3)):
            for block, array in zip(blocks, reference):
                np.testing.assert_array_equal(block.data, array)

    @pytest.mark.parametrize("view", ["natural", "undirected"])
    def test_row_cache_copies_nothing(self, homophilous_graph, view):
        from repro.graph.transforms import to_undirected
        from repro.nn import row_subset

        graph = to_undirected(homophilous_graph) if view == "undirected" else homophilous_graph
        rows = np.flatnonzero(graph.train_mask)
        models = [ADPA.from_graph(graph, hidden=8, num_steps=3, seed=5) for _ in range(2)]
        cache = models[0].preprocess(graph)
        sliced = models[0].row_cache(cache, rows)
        for blocks, full in zip(sliced["steps"], cache["steps"]):
            for block, whole in zip(blocks, full):
                assert block.data is whole.data
        # The blocks cut to the rows, as a row cache used to hold them.
        copies = {
            "steps": [[Tensor(block.data[rows]) for block in blocks] for blocks in cache["steps"]],
            "operator_names": cache["operator_names"],
        }
        served = [models[0].predict_logits(graph, sliced), models[1].predict_logits(graph, copies)]
        assert served[0].tobytes() == served[1].tobytes()
        trained = []
        for model, row_cache in zip(models, (sliced, copies)):
            model.train()
            with row_subset(rows, graph.num_nodes):
                trained.append(model.forward(row_cache).data)
        assert trained[0].tobytes() == trained[1].tobytes()


class TestTrainingMemory:
    #: Floats a training forward leaves on the tape per DP block and
    #: training row on the ogbn-arxiv stand-in (f = 96, hidden 64, 21
    #: blocks).  Each block keeps its boolean dropout mask (f/8) and its
    #: projection and score outputs (2·hidden); the hop attention and the
    #: classifier add about 1·hidden per block.  Measured: 206 floats, and
    #: 295 when the tape held each block's dropped-out rows (f) instead.
    TAPE_FLOATS_PER_BLOCK_ROW = 225

    def test_training_tape_holds_masks_not_rows(self):
        import tracemalloc

        from repro.datasets import load_dataset
        from repro.nn import row_subset

        graph = load_dataset("ogbn-arxiv")
        model = ADPA.from_graph(graph, hidden=64, num_steps=3, seed=0)
        cache = model.preprocess(graph)
        rows = np.flatnonzero(graph.train_mask)
        blocks = sum(len(step) for step in cache["steps"])
        model.train()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with row_subset(rows, graph.num_nodes):
                logits = model.forward(model.row_cache(cache, rows))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert logits.requires_grad
        assert held / 8 / blocks / len(rows) < self.TAPE_FLOATS_PER_BLOCK_ROW


class TestAttentionModules:
    def _blocks(self, num_blocks=3, n=10, f=8, seed=0):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(n, f))) for _ in range(num_blocks)]

    @pytest.mark.parametrize("kind", ["original", "gate", "recursive", "jk", "none"])
    def test_dp_attention_output_shape(self, kind):
        attention = DirectedPatternAttention(8, 16, num_blocks=3, kind=kind, rng=np.random.default_rng(0))
        out = attention(self._blocks())
        assert out.shape == (10, 16)

    def test_dp_attention_rejects_wrong_block_count(self):
        attention = DirectedPatternAttention(8, 16, num_blocks=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            attention(self._blocks(num_blocks=2))

    def test_dp_attention_unknown_kind(self):
        with pytest.raises(ValueError):
            DirectedPatternAttention(8, 16, num_blocks=3, kind="bogus")

    def test_dp_attention_gradients_flow(self):
        attention = DirectedPatternAttention(8, 16, num_blocks=3, rng=np.random.default_rng(0))
        blocks = self._blocks()
        attention(blocks).sum().backward()
        for parameter in attention.parameters():
            assert parameter.grad is not None

    @pytest.mark.parametrize("kind", ["softmax", "mean", "none"])
    def test_hop_attention_output_shape(self, kind):
        attention = HopAttention(16, num_hops=4, kind=kind, rng=np.random.default_rng(0))
        hops = [Tensor(np.random.default_rng(i).normal(size=(10, 16))) for i in range(4)]
        assert attention(hops).shape == (10, 16)

    def test_hop_attention_weights_sum_to_one(self):
        attention = HopAttention(16, num_hops=3, kind="softmax", rng=np.random.default_rng(0))
        hops = [Tensor(np.random.default_rng(i).normal(size=(7, 16))) for i in range(3)]
        weights = attention.attention_weights(hops)
        assert weights.shape == (7, 3)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0)

    def test_hop_attention_rejects_wrong_hop_count(self):
        attention = HopAttention(16, num_hops=3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            attention([Tensor(np.zeros((5, 16)))])

    def test_hop_attention_unknown_kind(self):
        with pytest.raises(ValueError):
            HopAttention(16, num_hops=2, kind="bogus")


class TestADPAModel:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ADPA(num_features=8, num_classes=3, num_steps=0)
        with pytest.raises(ValueError):
            ADPA(num_features=8, num_classes=3, order=0)
        with pytest.raises(ValueError):
            ADPA(num_features=0, num_classes=3)

    def test_preprocess_and_forward_shapes(self, heterophilous_graph):
        model = ADPA.from_graph(heterophilous_graph, hidden=16, num_steps=2, seed=0)
        cache = model.preprocess(heterophilous_graph)
        logits = model.forward(cache)
        assert logits.shape == (heterophilous_graph.num_nodes, heterophilous_graph.num_classes)
        assert set(cache["operator_names"]) == {"A", "At", "AA", "AtAt", "AAt", "AtA"}

    def test_forward_before_preprocess_raises(self, heterophilous_graph):
        model = ADPA.from_graph(heterophilous_graph, hidden=16)
        with pytest.raises(ValueError, match="hop representations"):
            model.forward({"steps": []})

    def test_operator_pruning(self, heterophilous_graph):
        model = ADPA.from_graph(heterophilous_graph, hidden=16, num_steps=2, max_operators=3, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert len(cache["operator_names"]) == 3
        assert model.forward(cache).shape[0] == heterophilous_graph.num_nodes

    def test_hop_weights_shape(self, heterophilous_graph):
        model = ADPA.from_graph(heterophilous_graph, hidden=16, num_steps=3, seed=0)
        cache = model.preprocess(heterophilous_graph)
        weights = model.hop_weights(cache)
        assert weights.shape == (heterophilous_graph.num_nodes, 3)

    def test_training_beats_majority_class(self, heterophilous_graph, fast_trainer):
        model = ADPA.from_graph(heterophilous_graph, hidden=32, num_steps=2, seed=0)
        result = fast_trainer.fit(model, heterophilous_graph)
        majority = heterophilous_graph.label_distribution().max()
        assert result.test_accuracy > majority + 0.05

    def test_predict_returns_classes(self, heterophilous_graph, fast_trainer):
        model = ADPA.from_graph(heterophilous_graph, hidden=16, num_steps=2, seed=0)
        fast_trainer.fit(model, heterophilous_graph)
        predictions = model.predict(heterophilous_graph)
        assert predictions.shape == (heterophilous_graph.num_nodes,)
        assert set(np.unique(predictions)) <= set(range(heterophilous_graph.num_classes))

    @pytest.mark.parametrize("dp_kind", ["original", "gate", "recursive", "jk", "none"])
    def test_all_dp_attention_variants_train(self, heterophilous_graph, dp_kind):
        trainer = Trainer(epochs=10, patience=5)
        model = ADPA.from_graph(
            heterophilous_graph, hidden=16, num_steps=2, dp_attention=dp_kind, seed=0
        )
        result = trainer.fit(model, heterophilous_graph)
        assert 0.0 <= result.test_accuracy <= 1.0

    @pytest.mark.parametrize("hop_kind", ["softmax", "mean", "none"])
    def test_all_hop_attention_variants_train(self, heterophilous_graph, hop_kind):
        trainer = Trainer(epochs=10, patience=5)
        model = ADPA.from_graph(
            heterophilous_graph, hidden=16, num_steps=2, hop_attention=hop_kind, seed=0
        )
        result = trainer.fit(model, heterophilous_graph)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_works_on_undirected_input(self, homophilous_graph, fast_trainer):
        """ADPA must accept AMUndirected graphs too (paper Sec. V-B)."""
        from repro.graph import to_undirected

        undirected = to_undirected(homophilous_graph)
        model = ADPA.from_graph(undirected, hidden=16, num_steps=2, seed=0)
        result = fast_trainer.fit(model, undirected)
        majority = undirected.label_distribution().max()
        assert result.test_accuracy > majority
