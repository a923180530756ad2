"""Tests for the trainer and the sparsity sweeps."""

import numpy as np
import pytest

from repro.models import create_model
from repro.training import (
    SPARSITY_KINDS,
    Trainer,
    apply_sparsity,
    format_sparsity_table,
    sparsity_sweep,
)


class TestTrainer:
    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            Trainer(epochs=0)
        with pytest.raises(ValueError):
            Trainer(patience=0)
        with pytest.raises(ValueError):
            Trainer(optimizer="rmsprop")

    def test_fit_requires_splits(self, tiny_graph):
        model = create_model("MLP", tiny_graph, hidden=8, seed=0)
        with pytest.raises(ValueError):
            Trainer(epochs=5).fit(model, tiny_graph)

    def test_fit_returns_history(self, homophilous_graph):
        trainer = Trainer(epochs=15, patience=15)
        model = create_model("MLP", homophilous_graph, hidden=16, seed=0)
        result = trainer.fit(model, homophilous_graph)
        assert result.epochs_run == 15
        assert len(result.history["loss"]) == 15
        assert len(result.history["val_acc"]) == 15
        assert result.best_epoch >= 1
        assert 0.0 <= result.test_accuracy <= 1.0
        assert result.fit_seconds > 0
        assert result.preprocess_seconds >= 0

    def test_loss_decreases(self, homophilous_graph):
        trainer = Trainer(epochs=30, patience=30)
        model = create_model("GCN", homophilous_graph, hidden=16, seed=0)
        result = trainer.fit(model, homophilous_graph)
        losses = result.history["loss"]
        assert losses[-1] < losses[0]

    def test_early_stopping_limits_epochs(self, homophilous_graph):
        trainer = Trainer(epochs=500, patience=5)
        model = create_model("SGC", homophilous_graph, seed=0)
        result = trainer.fit(model, homophilous_graph)
        assert result.epochs_run < 500

    def test_best_state_restored(self, homophilous_graph):
        """Final test accuracy must correspond to the best validation epoch."""
        trainer = Trainer(epochs=40, patience=40)
        model = create_model("MLP", homophilous_graph, hidden=16, seed=0)
        result = trainer.fit(model, homophilous_graph)
        assert result.val_accuracy == pytest.approx(max(result.history["val_acc"]))

    def test_sgd_optimizer_path(self, homophilous_graph):
        trainer = Trainer(epochs=10, patience=10, optimizer="sgd", lr=0.1)
        model = create_model("MLP", homophilous_graph, hidden=16, seed=0)
        result = trainer.fit(model, homophilous_graph)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_evaluation_forwards_run_with_the_tape_off(self, homophilous_graph):
        """Only each epoch's training forward records an autograd tape."""
        model = create_model("MLP", homophilous_graph, hidden=16, seed=0)
        forward, taped = model.forward, []

        def counting_forward(cache):
            logits = forward(cache)
            taped.append(logits.requires_grad)
            return logits

        model.forward = counting_forward
        result = Trainer(epochs=12, patience=12).fit(model, homophilous_graph)
        assert sum(taped) == result.epochs_run
        assert len(taped) == 2 * result.epochs_run + 1
        assert not model.training


class TestSparsity:
    def test_kinds_exposed(self):
        assert set(SPARSITY_KINDS) == {"feature", "edge", "label"}

    def test_apply_sparsity_feature(self, homophilous_graph):
        sparsified = apply_sparsity(homophilous_graph, "feature", 0.5)
        zero_rows = np.sum(np.all(sparsified.features == 0, axis=1))
        assert zero_rows > 0

    def test_apply_sparsity_edge(self, homophilous_graph):
        sparsified = apply_sparsity(homophilous_graph, "edge", 0.5)
        assert sparsified.num_edges < homophilous_graph.num_edges

    def test_apply_sparsity_label(self, homophilous_graph):
        sparsified = apply_sparsity(homophilous_graph, "label", 2)
        assert sparsified.train_mask.sum() <= 2 * homophilous_graph.num_classes

    def test_apply_sparsity_unknown_kind(self, homophilous_graph):
        with pytest.raises(ValueError):
            apply_sparsity(homophilous_graph, "bogus", 0.5)

    def test_sparsity_sweep_and_table(self, homophilous_graph, fast_trainer):
        points = sparsity_sweep(
            ["MLP"], homophilous_graph, kind="edge", levels=[0.0, 0.5], seeds=(0,), trainer=fast_trainer
        )
        assert len(points) == 2
        assert {point.level for point in points} == {0.0, 0.5}
        table = format_sparsity_table(points)
        assert "MLP" in table and "edge" in table
