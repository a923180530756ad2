"""Integration tests spanning datasets → AMUD → models → training.

These are the paper's headline claims at miniature scale:

* Proposition 1 — undirected GNNs win on AMUndirected data, directed GNNs
  win on AMDirected data;
* Proposition 2 — undirected augmentation helps directed models on
  homophilous digraphs and hurts on heterophilous directional ones;
* ADPA is competitive in both regimes.
"""

import numpy as np
import pytest

from repro.amud import amud_decide
from repro.datasets import load_dataset
from repro.graph import to_undirected
from repro.api.experiment import execute_single
from repro.training import Trainer


@pytest.fixture(scope="module")
def trainer():
    return Trainer(epochs=60, patience=20)


@pytest.fixture(scope="module")
def chameleon():
    return load_dataset("chameleon", seed=0)


@pytest.fixture(scope="module")
def citeseer():
    return load_dataset("citeseer", seed=0)


class TestPaperPropositions:
    def test_amud_separates_the_two_benchmark_groups(self, citeseer, chameleon):
        assert amud_decide(citeseer).modeling == "undirected"
        assert amud_decide(chameleon).modeling == "directed"

    def test_proposition1_directed_gnn_wins_on_amdirected(self, chameleon, trainer):
        """On a heterophilous directional digraph DirGNN must beat GCN clearly."""
        gcn = execute_single("GCN", to_undirected(chameleon), seed=0, trainer=trainer)
        dirgnn = execute_single("DirGNN", chameleon, seed=0, trainer=trainer)
        assert dirgnn.test_accuracy > gcn.test_accuracy + 0.03

    def test_proposition1_undirected_gnn_wins_on_amundirected(self, citeseer, trainer):
        """On a homophilous graph the undirected model must be at least on par."""
        gcn = execute_single("GCN", to_undirected(citeseer), seed=0, trainer=trainer)
        dirgnn = execute_single("DirGNN", citeseer, seed=0, trainer=trainer)
        assert gcn.test_accuracy >= dirgnn.test_accuracy - 0.02

    def test_proposition2_undirected_augmentation_hurts_directional_data(self, chameleon, trainer):
        """Feeding the undirected transform to a directed GNN loses accuracy (O2)."""
        directed_input = execute_single("DirGNN", chameleon, seed=0, trainer=trainer)
        undirected_input = execute_single(
            "DirGNN", to_undirected(chameleon), seed=0, trainer=trainer
        )
        assert directed_input.test_accuracy > undirected_input.test_accuracy

    def test_adpa_competitive_on_amdirected(self, chameleon, trainer):
        adpa = execute_single(
            "ADPA", chameleon, seed=0, trainer=trainer, model_kwargs={"num_steps": 2, "hidden": 32}
        )
        gcn = execute_single("GCN", to_undirected(chameleon), seed=0, trainer=trainer)
        assert adpa.test_accuracy > gcn.test_accuracy

    def test_adpa_competitive_on_amundirected(self, citeseer, trainer):
        """ADPA on the AMUndirected output stays within a few points of GPR-GNN."""
        undirected = to_undirected(citeseer)
        adpa = execute_single(
            "ADPA", undirected, seed=0, trainer=trainer, model_kwargs={"num_steps": 2, "hidden": 32}
        )
        gpr = execute_single("GPRGNN", undirected, seed=0, trainer=trainer)
        assert adpa.test_accuracy > gpr.test_accuracy - 0.1


class TestEndToEndWorkflow:
    def test_full_workflow_on_both_regimes(self, citeseer, chameleon):
        from repro.api import AmudConfig, Session, TrainConfig

        session = Session(
            train=TrainConfig(epochs=40, patience=15),
            amud=AmudConfig(undirected_model="GPRGNN", directed_model="ADPA"),
        )
        homophilous = session.from_graph(citeseer).amud().fit()
        assert homophilous.model_name == "GPRGNN"

        heterophilous = session.from_graph(chameleon).amud().fit(num_steps=2, hidden=32)
        assert heterophilous.model_name == "ADPA"

        for model in (homophilous, heterophilous):
            majority = model.graph.label_distribution().max()
            assert model.test_accuracy > majority

    def test_training_reproducibility_end_to_end(self, chameleon):
        trainer = Trainer(epochs=20, patience=10)
        first = execute_single("DirGNN", chameleon, seed=3, trainer=trainer)
        second = execute_single("DirGNN", chameleon, seed=3, trainer=trainer)
        assert first.test_accuracy == pytest.approx(second.test_accuracy)
        np.testing.assert_allclose(first.history["loss"], second.history["loss"])
