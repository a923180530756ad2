"""Tests for the baseline model zoo: construction, forward shapes, training."""

import numpy as np
import pytest

from repro.models import (
    A2DUG,
    AeroGNN,
    BernNet,
    DGCN,
    DiGCN,
    DIMPA,
    DirGNN,
    GCN,
    GCNII,
    GloGNN,
    GPRGNN,
    GRAND,
    JacobiConv,
    LINKX,
    MagNet,
    MLPClassifier,
    NSTE,
    SGC,
    available_models,
    create_model,
    directed_models,
    get_spec,
    undirected_models,
)
from repro.datasets import load_dataset
from repro.models.base import NodeClassifier
from repro.training import Trainer

ALL_MODEL_CLASSES = [
    MLPClassifier,
    GCN,
    SGC,
    GCNII,
    GPRGNN,
    GRAND,
    LINKX,
    GloGNN,
    AeroGNN,
    BernNet,
    JacobiConv,
    DGCN,
    DirGNN,
    NSTE,
    DIMPA,
    A2DUG,
    DiGCN,
    MagNet,
]


class TestRegistry:
    def test_all_paper_baselines_registered(self):
        names = {name.lower() for name in available_models()}
        expected = {
            "mlp", "gcn", "sgc", "gcnii", "grand", "linkx", "glognn", "aerognn",
            "gprgnn", "bernnet", "jacobiconv", "dgcn", "nste", "dimpa", "dirgnn",
            "a2dug", "digcn", "magnet", "adpa",
        }
        assert expected <= names

    def test_directed_undirected_partition(self):
        directed = set(directed_models())
        undirected = set(undirected_models())
        assert not directed & undirected
        assert "DirGNN" in directed
        assert "GCN" in undirected

    def test_get_spec_case_insensitive(self):
        assert get_spec("gcn").name == "GCN"
        assert get_spec("GCN").category == "undirected-spatial"

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_spec("not-a-model")

    def test_create_model_infers_dimensions(self, heterophilous_graph):
        model = create_model("GCN", heterophilous_graph, hidden=8)
        assert isinstance(model, NodeClassifier)
        assert model.num_features == heterophilous_graph.num_features
        assert model.num_classes == heterophilous_graph.num_classes

    def test_create_adpa_through_registry(self, heterophilous_graph):
        model = create_model("ADPA", heterophilous_graph, hidden=8, num_steps=2)
        assert model.num_classes == heterophilous_graph.num_classes


def _build(model_class, graph, **extra):
    """Construct a model, passing ``hidden`` only to models that take it."""
    kwargs = {"seed": 0, **extra}
    if model_class is not SGC:
        kwargs.setdefault("hidden", 8)
    return model_class.from_graph(graph, **kwargs)


@pytest.fixture(scope="module")
def texas():
    return load_dataset("texas", seed=0)


class TestTapeOffInference:
    @pytest.mark.parametrize("name", available_models())
    def test_tape_off_logits_bit_identical_to_taped(self, name, texas):
        model = create_model(name, texas, seed=0)
        cache = model.preprocess(texas)
        taped = model.eval().forward(cache)
        assert taped.requires_grad  # the reference really recorded a tape
        assert np.array_equal(model.predict_logits(texas, cache), taped.numpy())


class TestForwardShapes:
    @pytest.mark.parametrize("model_class", ALL_MODEL_CLASSES)
    def test_forward_produces_logits(self, model_class, heterophilous_graph):
        model = _build(model_class, heterophilous_graph)
        cache = model.preprocess(heterophilous_graph)
        logits = model.forward(cache)
        assert logits.shape == (
            heterophilous_graph.num_nodes,
            heterophilous_graph.num_classes,
        )
        assert np.all(np.isfinite(logits.numpy()))

    @pytest.mark.parametrize("model_class", ALL_MODEL_CLASSES)
    def test_gradients_reach_every_parameter(self, model_class, heterophilous_graph):
        model = _build(model_class, heterophilous_graph)
        cache = model.preprocess(heterophilous_graph)
        model.forward(cache).sum().backward()
        grads = [param.grad is not None for param in model.parameters()]
        assert len(grads) > 0
        # At least 80% of parameters receive gradient (attention gates may be
        # dead for specific inputs, but the bulk of the model must train).
        assert np.mean(grads) > 0.8

    @pytest.mark.parametrize("model_class", ALL_MODEL_CLASSES)
    def test_predict_api(self, model_class, heterophilous_graph):
        model = _build(model_class, heterophilous_graph)
        predictions = model.predict(heterophilous_graph)
        assert predictions.shape == (heterophilous_graph.num_nodes,)

    def test_base_class_contract_enforced(self):
        with pytest.raises(ValueError):
            MLPClassifier(num_features=4, num_classes=1)


class TestConstructorValidation:
    def test_gcn_invalid_layers(self):
        with pytest.raises(ValueError):
            GCN(num_features=4, num_classes=2, num_layers=0)

    def test_sgc_invalid_steps(self):
        with pytest.raises(ValueError):
            SGC(num_features=4, num_classes=2, num_steps=-1)

    def test_dirgnn_invalid_alpha(self):
        with pytest.raises(ValueError):
            DirGNN(num_features=4, num_classes=2, alpha=2.0)

    def test_magnet_invalid_q(self):
        with pytest.raises(ValueError):
            MagNet(num_features=4, num_classes=2, q=0.9)

    def test_bernnet_invalid_order(self):
        with pytest.raises(ValueError):
            BernNet(num_features=4, num_classes=2, poly_order=0)

    def test_grand_invalid_tau(self):
        with pytest.raises(ValueError):
            GRAND(num_features=4, num_classes=2, tau=0.0)


class TestTrainingBehaviour:
    """Each family is trained briefly and must beat the majority-class baseline."""

    def _majority(self, graph):
        return graph.label_distribution().max()

    @pytest.mark.parametrize("name", ["MLP", "GCN", "SGC", "GPRGNN", "LINKX"])
    def test_undirected_models_learn_homophilous(self, name, homophilous_graph, fast_trainer):
        from repro.graph import to_undirected

        graph = to_undirected(homophilous_graph)
        kwargs = {"seed": 0} if name == "SGC" else {"hidden": 16, "seed": 0}
        model = create_model(name, graph, **kwargs)
        result = fast_trainer.fit(model, graph)
        assert result.test_accuracy > self._majority(graph) + 0.05

    @pytest.mark.parametrize("name", ["DirGNN", "DGCN", "MagNet", "DIMPA"])
    def test_directed_models_learn_heterophilous(self, name, heterophilous_graph, fast_trainer):
        model = create_model(name, heterophilous_graph, hidden=16, seed=0)
        result = fast_trainer.fit(model, heterophilous_graph)
        assert result.test_accuracy > self._majority(heterophilous_graph) + 0.05

    def test_gcn_undirects_its_input(self, heterophilous_graph):
        """Undirected models symmetrise the adjacency inside preprocess."""
        model = GCN.from_graph(heterophilous_graph, hidden=8, seed=0)
        cache = model.preprocess(heterophilous_graph)
        adjacency = cache["adj"]
        difference = adjacency - adjacency.T
        assert np.abs(difference.toarray()).max() < 1e-10

    def test_dirgnn_uses_both_directions(self, heterophilous_graph):
        model = DirGNN.from_graph(heterophilous_graph, hidden=8, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert (cache["out_adj"] != cache["in_adj"]).nnz > 0

    def test_sgc_zero_steps_equals_feature_model(self, heterophilous_graph):
        model = SGC.from_graph(heterophilous_graph, num_steps=0, seed=0)
        cache = model.preprocess(heterophilous_graph)
        np.testing.assert_allclose(cache["x"].numpy(), heterophilous_graph.features)

    def test_directed_flag_consistency(self):
        assert DirGNN.directed and MagNet.directed and DGCN.directed
        assert not GCN.directed and not SGC.directed and not LINKX.directed
