"""Full-batch semi-supervised training loop with early stopping.

The :class:`Trainer` drives any :class:`repro.models.NodeClassifier`:

1. ``model.preprocess(graph)`` builds the training-independent cache (this
   is where decoupled models do their propagation);
2. each epoch runs a forward pass, cross-entropy on the training nodes,
   backward pass and an Adam/SGD step;
3. validation accuracy is tracked every epoch; the parameters of the best
   validation epoch are restored before the final test evaluation
   (early stopping with patience).  Both evaluations go through
   ``model.predict``, in eval mode with the autograd tape off.

A model whose :meth:`~repro.models.NodeClassifier.row_cache` slices its
cache (MLP, SGC, ADPA) forwards only the rows each step reads: the
training forward covers the training nodes, the per-epoch evaluation the
training and validation nodes.  Every other model forwards the whole
graph.  Dropout masks are drawn for all nodes either way (see
:func:`repro.nn.row_subset`), and the final evaluation always forwards
the whole graph.

The per-epoch history is kept so the convergence-curve benchmark (Fig. 5)
can be regenerated directly from :class:`TrainResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.splits import validate_splits
from ..metrics.classification import accuracy
from ..models.base import NodeClassifier
from ..nn import Adam, SGD, row_subset
from ..nn import functional as F


@dataclass
class TrainResult:
    """Outcome of one training run."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    best_epoch: int
    epochs_run: int
    history: Dict[str, List[float]] = field(default_factory=dict)
    fit_seconds: float = 0.0
    preprocess_seconds: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrainResult(test={self.test_accuracy:.3f}, val={self.val_accuracy:.3f}, "
            f"best_epoch={self.best_epoch}, epochs={self.epochs_run})"
        )


class Trainer:
    """Configurable training harness for node classifiers."""

    def __init__(
        self,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        epochs: int = 200,
        patience: int = 30,
        optimizer: str = "adam",
        verbose: bool = False,
    ) -> None:
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {optimizer!r}; expected 'adam' or 'sgd'")
        self.lr = lr
        self.weight_decay = weight_decay
        self.epochs = epochs
        self.patience = patience
        self.optimizer_name = optimizer
        self.verbose = verbose

    def _build_optimizer(self, model: NodeClassifier):
        parameters = model.parameters()
        if self.optimizer_name == "adam":
            return Adam(parameters, lr=self.lr, weight_decay=self.weight_decay)
        return SGD(parameters, lr=self.lr, weight_decay=self.weight_decay)

    def fit(self, model: NodeClassifier, graph: DirectedGraph) -> TrainResult:
        """Train ``model`` on ``graph`` and return accuracies + history."""
        validate_splits(graph)
        preprocess_start = time.perf_counter()
        cache = model.preprocess(graph)
        preprocess_seconds = time.perf_counter() - preprocess_start

        optimizer = self._build_optimizer(model)
        labels = graph.labels
        train_mask, val_mask, test_mask = graph.train_mask, graph.val_mask, graph.test_mask
        train_rows, train_cache = _rows_and_cache(model, cache, train_mask)
        eval_rows, eval_cache = _rows_and_cache(model, cache, train_mask | val_mask)
        train_labels, eval_labels = labels[train_rows], labels[eval_rows]

        history: Dict[str, List[float]] = {"loss": [], "train_acc": [], "val_acc": []}
        best_val = -1.0
        best_epoch = -1
        best_state: Optional[Dict[str, np.ndarray]] = None
        epochs_without_improvement = 0

        fit_start = time.perf_counter()
        epoch = 0
        for epoch in range(1, self.epochs + 1):
            model.train()
            optimizer.zero_grad()
            with row_subset(train_rows, graph.num_nodes):
                logits = model.forward(train_cache)
            loss = F.cross_entropy(logits, train_labels, train_mask[train_rows])
            loss.backward()
            optimizer.step()
            loss_value = loss.item()
            # Free this epoch's tape now, not once the next forward has
            # built its own: the fit holds one tape at a time.
            del logits, loss

            predictions = model.predict(graph, eval_cache)
            train_acc = accuracy(predictions, eval_labels, train_mask[eval_rows])
            val_acc = accuracy(predictions, eval_labels, val_mask[eval_rows])
            history["loss"].append(loss_value)
            history["train_acc"].append(train_acc)
            history["val_acc"].append(val_acc)
            if self.verbose and epoch % 20 == 0:  # pragma: no cover - console output
                print(f"epoch {epoch:4d}  loss {loss_value:.4f}  val {val_acc:.4f}")

            if val_acc > best_val:
                best_val = val_acc
                best_epoch = epoch
                best_state = model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= self.patience:
                    break
        fit_seconds = time.perf_counter() - fit_start

        if best_state is not None:
            model.load_state_dict(best_state)
        model.eval()
        predictions = model.predict(graph, cache)
        return TrainResult(
            train_accuracy=accuracy(predictions, labels, train_mask),
            val_accuracy=accuracy(predictions, labels, val_mask),
            test_accuracy=accuracy(predictions, labels, test_mask),
            best_epoch=best_epoch,
            epochs_run=epoch,
            history=history,
            fit_seconds=fit_seconds,
            preprocess_seconds=preprocess_seconds,
        )


def _rows_and_cache(model: NodeClassifier, cache: Dict[str, object], mask: np.ndarray):
    """The rows a forward covers and the cache that yields them.

    The rows of ``mask`` and the model's sliced cache, or every row and the
    whole cache when the model does not slice.
    """
    rows = np.flatnonzero(mask)
    sliced = model.row_cache(cache, rows)
    if sliced is None:
        return np.arange(mask.size), cache
    return rows, sliced
