"""The end-to-end AMUD workflow (paper Fig. 1) through ``repro.api``."""

import numpy as np
import pytest

from repro.api import AmudConfig, Session, TrainConfig

QUICK = TrainConfig(epochs=20, patience=10)
SGC_OR_DIRGNN = AmudConfig(undirected_model="SGC", directed_model="DirGNN")


class TestWorkflowConfiguration:
    def test_rejects_unknown_models(self):
        with pytest.raises(KeyError):
            AmudConfig(undirected_model="nope")
        with pytest.raises(KeyError):
            AmudConfig(directed_model="nope")

    def test_fit_rejects_unknown_model_names(self, homophilous_graph):
        with pytest.raises(KeyError):
            Session(train=QUICK).from_graph(homophilous_graph).fit("nope")


class TestWorkflowBranches:
    def test_homophilous_graph_takes_undirected_branch(self, homophilous_graph):
        model = (
            Session(train=QUICK, amud=SGC_OR_DIRGNN)
            .from_graph(homophilous_graph)
            .amud()
            .fit()
        )
        assert not model.decision.keep_directed
        assert model.model_name == "SGC"
        assert not model.graph.is_directed()
        assert 0.0 <= model.test_accuracy <= 1.0

    def test_heterophilous_graph_takes_directed_branch(self, heterophilous_graph):
        model = (
            Session(train=QUICK, amud=SGC_OR_DIRGNN)
            .from_graph(heterophilous_graph)
            .amud()
            .fit()
        )
        assert model.decision.keep_directed
        assert model.model_name == "DirGNN"
        assert model.graph is heterophilous_graph

    def test_threshold_flips_branch(self, heterophilous_graph):
        forced = SGC_OR_DIRGNN.replace(threshold=10.0)
        model = (
            Session(train=QUICK, amud=forced)
            .from_graph(heterophilous_graph)
            .amud()
            .fit()
        )
        assert model.model_name == "SGC"

    def test_branch_specific_kwargs(self, heterophilous_graph):
        amud = AmudConfig(undirected_model="SGC", directed_model="ADPA")
        handle = Session(train=QUICK, amud=amud).from_graph(heterophilous_graph).amud()
        model = handle.fit(hidden=16, num_steps=2)
        assert model.model_name == "ADPA"

    def test_predict_after_fit(self, heterophilous_graph):
        model = (
            Session(train=QUICK, amud=SGC_OR_DIRGNN)
            .from_graph(heterophilous_graph)
            .amud()
            .fit()
        )
        predictions = model.predict()
        assert predictions.shape == (heterophilous_graph.num_nodes,)

    def test_workflow_beats_majority_class(self, heterophilous_graph):
        amud = AmudConfig(undirected_model="GPRGNN", directed_model="DirGNN")
        model = Session(train=QUICK, amud=amud).from_graph(heterophilous_graph).amud().fit()
        majority = heterophilous_graph.label_distribution().max()
        assert model.test_accuracy > majority

    def test_amud_guidance_helps_on_directed_data(self, heterophilous_graph):
        """Following AMUD (directed branch) beats forcing the undirected branch.

        This is the workflow-level version of the paper's 4.57% claim.
        """
        guided = (
            Session(train=QUICK, amud=SGC_OR_DIRGNN)
            .from_graph(heterophilous_graph)
            .amud()
            .fit()
        )
        forced = (
            Session(train=QUICK, amud=SGC_OR_DIRGNN.replace(threshold=10.0))
            .from_graph(heterophilous_graph)
            .amud()
            .fit()
        )
        assert guided.test_accuracy > forced.test_accuracy

    def test_session_predictions_are_deterministic(self, heterophilous_graph):
        # Same seeds, same order of operations, same predictions.
        first = Session(train=QUICK, amud=SGC_OR_DIRGNN).from_graph(
            heterophilous_graph
        ).amud().fit()
        second = Session(train=QUICK, amud=SGC_OR_DIRGNN).from_graph(
            heterophilous_graph
        ).amud().fit()
        np.testing.assert_array_equal(first.predict(), second.predict())
