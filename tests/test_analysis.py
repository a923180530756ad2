"""Tests for the analysis utilities (efficiency profiling, attention inspection)."""

import numpy as np
import pytest

from repro.adpa import ADPA
from repro.analysis import (
    dp_attention_distribution,
    effective_receptive_depth,
    efficiency_report,
    format_efficiency_table,
    hop_attention_distribution,
    profile_model,
    summarize_attention,
)
from repro.models.mlp import MLPClassifier
from repro.models.sgc import SGC
from repro.training import Trainer


class TestEfficiencyProfiling:
    def test_profile_model_fields(self, heterophilous_graph):
        profile = profile_model("SGC", heterophilous_graph, num_epochs=2)
        assert profile.model == "SGC"
        assert profile.dataset == heterophilous_graph.name
        assert profile.preprocess_seconds >= 0
        assert profile.seconds_per_epoch > 0
        assert profile.num_parameters > 0
        row = profile.as_row()
        assert row["parameters"] == profile.num_parameters

    def test_profile_invalid_epochs(self, heterophilous_graph):
        with pytest.raises(ValueError):
            profile_model("SGC", heterophilous_graph, num_epochs=0)

    def test_efficiency_report_and_table(self, heterophilous_graph):
        profiles = efficiency_report(
            ["MLP", "GCN"], heterophilous_graph, num_epochs=2, model_kwargs={"GCN": {"hidden": 8}}
        )
        assert [profile.model for profile in profiles] == ["MLP", "GCN"]
        table = format_efficiency_table(profiles)
        assert "MLP" in table and "GCN" in table

    @pytest.mark.parametrize(
        "name, model_class, kwargs",
        [
            ("MLP", MLPClassifier, {"hidden": 8}),
            ("SGC", SGC, {}),
            ("ADPA", ADPA, {"hidden": 8, "num_steps": 2}),
        ],
    )
    def test_profiled_training_forwards_cover_only_train_rows(
        self, heterophilous_graph, monkeypatch, name, model_class, kwargs
    ):
        """The profiled epoch is Trainer.fit's: row-slicing models train on train rows."""
        graph = heterophilous_graph
        forward, taped_rows = model_class.forward, []

        def counting_forward(self, cache):
            logits = forward(self, cache)
            if logits.requires_grad:
                taped_rows.append(logits.shape[0])
            return logits

        monkeypatch.setattr(model_class, "forward", counting_forward)
        profile_model(name, graph, num_epochs=3, model_kwargs=kwargs)
        assert taped_rows == [int(graph.train_mask.sum())] * 3
        assert taped_rows[0] < graph.num_nodes

    def test_decoupled_model_has_cheaper_epochs_than_coupled(self, heterophilous_graph):
        """The Sec. IV-D claim in miniature: SGC epochs are cheaper than GCN epochs."""
        sgc = profile_model("SGC", heterophilous_graph, num_epochs=3)
        gcn = profile_model("GCN", heterophilous_graph, num_epochs=3, model_kwargs={"hidden": 64})
        assert sgc.seconds_per_epoch < gcn.seconds_per_epoch


class TestAttentionAnalysis:
    @pytest.fixture(scope="class")
    def trained_adpa(self, heterophilous_graph):
        model = ADPA.from_graph(heterophilous_graph, hidden=16, num_steps=3, seed=0)
        trainer = Trainer(epochs=15, patience=15)
        trainer.fit(model, heterophilous_graph)
        cache = model.preprocess(heterophilous_graph)
        return model, cache

    def test_hop_distribution_sums_to_one(self, trained_adpa):
        model, cache = trained_adpa
        distribution = hop_attention_distribution(model, cache)
        assert distribution.shape == (3,)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-6)

    def test_hop_distribution_per_class(self, trained_adpa, heterophilous_graph):
        model, cache = trained_adpa
        per_class = hop_attention_distribution(
            model, cache, per_class=True, labels=heterophilous_graph.labels
        )
        assert per_class.shape == (heterophilous_graph.num_classes, 3)
        np.testing.assert_allclose(per_class.sum(axis=1), 1.0, atol=1e-6)

    def test_hop_distribution_per_class_requires_labels(self, trained_adpa):
        model, cache = trained_adpa
        with pytest.raises(ValueError):
            hop_attention_distribution(model, cache, per_class=True)

    def test_dp_distribution_sums_to_one(self, trained_adpa):
        model, cache = trained_adpa
        distribution = dp_attention_distribution(model, cache)
        assert set(distribution) == {"initial", "A", "At", "AA", "AAt", "AtA", "AtAt"}
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-6)

    def test_dp_distribution_uniform_for_jk(self, heterophilous_graph):
        model = ADPA.from_graph(
            heterophilous_graph, hidden=16, num_steps=2, dp_attention="jk", seed=0
        )
        cache = model.preprocess(heterophilous_graph)
        distribution = dp_attention_distribution(model, cache)
        values = list(distribution.values())
        assert all(value == pytest.approx(values[0]) for value in values)

    def test_effective_receptive_depth_in_range(self, trained_adpa, heterophilous_graph):
        model, cache = trained_adpa
        depths = effective_receptive_depth(model, cache)
        assert depths.shape == (heterophilous_graph.num_nodes,)
        assert np.all(depths >= 1.0 - 1e-9)
        assert np.all(depths <= 3.0 + 1e-9)

    def test_summarize_attention(self, trained_adpa, heterophilous_graph):
        model, cache = trained_adpa
        summary = summarize_attention(model, heterophilous_graph, cache)
        assert 1.0 <= summary["mean_receptive_depth"] <= 3.0
        assert "dp_distribution" in summary
