"""Tests for the trainer and the sparsity sweeps."""

import gc
import weakref

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
        """Only each epoch's training forward records an autograd tape.

        The taped forward covers the training rows, each epoch's tape-off
        evaluation the training and validation rows, and the final
        evaluation the whole graph.
        """
        graph = homophilous_graph
        model = create_model("MLP", graph, hidden=16, seed=0)
        forward, taped, rows = model.forward, [], []

        def counting_forward(cache):
            logits = forward(cache)
            taped.append(logits.requires_grad)
            rows.append(logits.shape[0])
            return logits

        model.forward = counting_forward
        result = Trainer(epochs=12, patience=12).fit(model, graph)
        assert sum(taped) == result.epochs_run
        assert len(taped) == 2 * result.epochs_run + 1
        assert not model.training
        num_train = int(graph.train_mask.sum())
        num_eval = int((graph.train_mask | graph.val_mask).sum())
        assert [r for r, t in zip(rows, taped) if t] == [num_train] * result.epochs_run
        assert [r for r, t in zip(rows, taped) if not t] == [num_eval] * result.epochs_run + [
            graph.num_nodes
        ]

    def test_each_epoch_frees_its_tape_before_the_next_forward(self, homophilous_graph):
        graph = homophilous_graph
        model = create_model("MLP", graph, hidden=16, seed=0)
        forward, tapes, alive = model.forward, [], []

        def watching_forward(cache):
            alive.append(sum(tape() is not None for tape in tapes))
            logits = forward(cache)
            if logits.requires_grad:
                tapes.append(weakref.ref(logits.data))
            return logits

        model.forward = watching_forward
        enabled = gc.isenabled()
        gc.disable()  # reference counts alone must free each tape
        try:
            result = Trainer(epochs=5, patience=5).fit(model, graph)
        finally:
            if enabled:
                gc.enable()
        assert len(tapes) == result.epochs_run == 5
        assert alive == [0] * (2 * result.epochs_run + 1)


class TestRowSlicedFits:
    """Decoupled models train on the rows the loss reads, as if on all rows."""

    MODELS = {
        "ADPA": dict(hidden=16, num_steps=2),
        "MLP": dict(hidden=16),
        "SGC": dict(dropout=0.5),
    }

    @classmethod
    def _fit(cls, name, graph, slice_rows):
        model = create_model(name, graph, seed=3, **cls.MODELS[name])
        forward, rows = model.forward, []

        def counting_forward(cache):
            logits = forward(cache)
            if logits.requires_grad:
                rows.append(logits.shape[0])
            return logits

        model.forward = counting_forward
        if not slice_rows:
            model.row_cache = lambda cache, rows: None
        result = Trainer(epochs=25, patience=25).fit(model, graph)
        return result, model.state_dict(), rows

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sliced_fit_matches_whole_graph_fit(self, name, heterophilous_graph):
        graph = heterophilous_graph
        sliced, sliced_state, sliced_rows = self._fit(name, graph, slice_rows=True)
        whole, whole_state, whole_rows = self._fit(name, graph, slice_rows=False)
        assert set(sliced_rows) == {int(graph.train_mask.sum())}
        assert set(whole_rows) == {graph.num_nodes}
        for field in ("train_accuracy", "val_accuracy", "test_accuracy", "best_epoch", "epochs_run"):
            assert getattr(sliced, field) == getattr(whole, field), field
        assert sliced.history["train_acc"] == whole.history["train_acc"]
        assert sliced.history["val_acc"] == whole.history["val_acc"]
        np.testing.assert_allclose(sliced.history["loss"], whole.history["loss"], rtol=0, atol=1e-10)
        assert sliced_state.keys() == whole_state.keys()
        for key in whole_state:
            np.testing.assert_allclose(sliced_state[key], whole_state[key], rtol=0, atol=1e-10)

    def test_row_cache_forwards_only_the_given_rows(self, heterophilous_graph):
        graph = heterophilous_graph
        rows = np.flatnonzero(graph.val_mask)
        for name, kwargs in self.MODELS.items():
            model = create_model(name, graph, seed=0, **kwargs)
            cache = model.preprocess(graph)
            whole = model.predict_logits(graph, cache)
            sliced = model.predict_logits(graph, model.row_cache(cache, rows))
            np.testing.assert_allclose(sliced, whole[rows], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(sliced.argmax(axis=1), whole[rows].argmax(axis=1))

    def test_message_passing_models_forward_the_whole_graph(self, heterophilous_graph):
        model = create_model("GCN", heterophilous_graph, hidden=8, seed=0)
        cache = model.preprocess(heterophilous_graph)
        assert model.row_cache(cache, np.flatnonzero(heterophilous_graph.train_mask)) is None


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
