"""Behavioural tests for specific model mechanisms (beyond shape/smoke checks)."""

import numpy as np
import pytest

from repro.adpa import ADPA
from repro.models import (
    A2DUG,
    BernNet,
    DIMPA,
    GCNII,
    GPRGNN,
    LINKX,
    MagNet,
    SGC,
)
from repro.api.experiment import execute_single
from repro.training import Trainer


class TestSpectralMechanisms:
    def test_bernnet_filter_coefficients_nonnegative_in_forward(self, heterophilous_graph):
        model = BernNet.from_graph(heterophilous_graph, hidden=8, seed=0)
        # Force some negative raw coefficients; the forward pass must clamp them.
        model.theta.data = np.array([-1.0, 0.5, -0.2, 0.3, 1.0])
        cache = model.preprocess(heterophilous_graph)
        logits = model.forward(cache)
        assert np.all(np.isfinite(logits.numpy()))

    def test_magnet_q_zero_ignores_direction(self, heterophilous_graph):
        """With q = 0 the magnetic Laplacian degenerates to the symmetric one,
        so the imaginary operator must vanish."""
        model = MagNet.from_graph(heterophilous_graph, hidden=8, q=0.0, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert np.abs(cache["operator_im"].toarray()).max() < 1e-12

    def test_magnet_q_positive_uses_direction(self, heterophilous_graph):
        model = MagNet.from_graph(heterophilous_graph, hidden=8, q=0.25, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert np.abs(cache["operator_im"].toarray()).max() > 0

    def test_gprgnn_weights_adapt_during_training(self, heterophilous_graph):
        model = GPRGNN.from_graph(heterophilous_graph, hidden=16, seed=0)
        initial = model.gammas.data.copy()
        Trainer(epochs=20, patience=20).fit(model, heterophilous_graph)
        assert not np.allclose(model.gammas.data, initial)


class TestDecoupledPropagation:
    def test_sgc_more_steps_smooths_features(self, homophilous_graph):
        """Each SGC propagation step reduces total feature variance (smoothing)."""
        shallow = SGC.from_graph(homophilous_graph, num_steps=1, seed=0)
        deep = SGC.from_graph(homophilous_graph, num_steps=5, seed=0)
        var_shallow = shallow.preprocess(homophilous_graph)["x"].numpy().var()
        var_deep = deep.preprocess(homophilous_graph)["x"].numpy().var()
        assert var_deep < var_shallow

    def test_dimpa_uses_distinct_source_target_views(self, heterophilous_graph):
        model = DIMPA.from_graph(heterophilous_graph, hidden=8, num_hops=2, seed=0)
        cache = model.preprocess(heterophilous_graph)
        source_hop = cache["source_hops"][1].numpy()
        target_hop = cache["target_hops"][1].numpy()
        assert not np.allclose(source_hop, target_hop)

    def test_a2dug_propagates_both_views(self, heterophilous_graph):
        model = A2DUG.from_graph(heterophilous_graph, hidden=8, num_steps=2, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert cache["directed_propagated"].shape[1] == 2 * heterophilous_graph.num_features
        assert cache["undirected_propagated"].shape == heterophilous_graph.features.shape

    def test_gcnii_deeper_does_not_collapse(self, homophilous_graph, fast_trainer):
        """Initial residual + identity mapping keep the deep variant trainable:
        an 8-layer GCNII must still clearly beat the majority-class baseline
        under the short smoke-test budget (a plain deep GCN would oversmooth)."""
        deep = execute_single(
            "GCNII", homophilous_graph, seed=0, trainer=fast_trainer,
            model_kwargs={"hidden": 16, "num_layers": 8},
        )
        majority = homophilous_graph.label_distribution().max()
        assert deep.test_accuracy > majority + 0.2

    def test_linkx_adjacency_encoder_rebuilt_per_graph_size(self, homophilous_graph, heterophilous_graph):
        """Never rebuilt: the encoder is built for one node count, and another is refused."""
        model = LINKX.from_graph(homophilous_graph, hidden=8, seed=0)
        encoder = model._adjacency_encoder
        weights = encoder.weight.data.copy()
        assert weights.shape == (homophilous_graph.num_nodes, 8)
        model.preprocess(heterophilous_graph.with_(name="other"))  # same node count
        import scipy.sparse as sp

        shrunk = heterophilous_graph.copy()
        smaller = shrunk.with_(
            adjacency=sp.csr_matrix(shrunk.adjacency[:100, :100]),
            features=shrunk.features[:100],
            labels=shrunk.labels[:100],
            train_mask=None, val_mask=None, test_mask=None,
        )
        with pytest.raises(ValueError, match="100"):
            model.preprocess(smaller)
        assert model._adjacency_encoder is encoder
        np.testing.assert_array_equal(encoder.weight.data, weights)


class TestADPABehaviours:
    def test_adpa_deterministic_given_seed(self, heterophilous_graph):
        trainer = Trainer(epochs=10, patience=10)
        first = execute_single("ADPA", heterophilous_graph, seed=7, trainer=trainer,
                               model_kwargs={"hidden": 16, "num_steps": 2})
        second = execute_single("ADPA", heterophilous_graph, seed=7, trainer=trainer,
                                model_kwargs={"hidden": 16, "num_steps": 2})
        assert first.test_accuracy == pytest.approx(second.test_accuracy)

    def test_adpa_order_controls_operator_count(self, heterophilous_graph):
        model = ADPA.from_graph(heterophilous_graph, hidden=8, num_steps=2, order=1, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert len(cache["operator_names"]) == 2
        model3 = ADPA.from_graph(heterophilous_graph, hidden=8, num_steps=2, order=3, seed=0)
        cache3 = model3.preprocess(heterophilous_graph)
        assert len(cache3["operator_names"]) == 14

    def test_adpa_dp_attention_prefers_informative_patterns(self, heterophilous_graph):
        """After training on the cyclic heterophilous graph, the average DP
        attention on AAᵀ/AᵀA should exceed the attention on AA/AᵀAᵀ."""
        from repro.analysis import dp_attention_distribution

        model = ADPA.from_graph(heterophilous_graph, hidden=32, num_steps=2, seed=0)
        Trainer(epochs=40, patience=40).fit(model, heterophilous_graph)
        cache = model.preprocess(heterophilous_graph)
        weights = dp_attention_distribution(model, cache)
        informative = weights["AAt"] + weights["AtA"]
        misleading = weights["AA"] + weights["AtAt"]
        assert informative > misleading - 0.05
