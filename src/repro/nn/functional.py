"""Functional (stateless) neural-network operations.

These helpers mirror ``torch.nn.functional`` for the small subset needed by
the reproduced models: activations, dropout, normalisation and losses all
expressed on :class:`repro.nn.tensor.Tensor`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, as_tensor, current_row_subset, masked_dropout


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return as_tensor(x).leaky_relu(negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    return as_tensor(x).elu(alpha)


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return as_tensor(x).softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return as_tensor(x).log_softmax(axis=axis)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at train time.

    One :func:`repro.nn.tensor.masked_dropout` node over the mask
    :func:`dropout_mask` draws.
    """
    keep = dropout_mask(x.shape, p, training, rng)
    return x if keep is None else masked_dropout(x, keep, p)


def dropout_mask(
    shape: Tuple[int, ...], p: float, training: bool, rng: Optional[np.random.Generator] = None
) -> Optional[np.ndarray]:
    """The boolean keep mask dropout draws for an input of ``shape``.

    ``None`` when dropout keeps everything (eval mode or ``p == 0``).
    Entry ``i`` survives when ``rng.random(shape)[i] >= p``.  Inside
    :func:`repro.nn.tensor.row_subset` the mask is drawn for all
    ``num_rows`` rows and sliced to the forwarded ones, so the generator
    advances exactly as a whole-graph forward's does.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    rng = rng if rng is not None else np.random.default_rng()
    subset = current_row_subset()
    if subset is None:
        return rng.random(shape) >= p
    index, num_rows = subset
    if shape[0] != len(index):
        raise ValueError(
            f"dropout input has {shape[0]} rows inside a row subset of "
            f"{len(index)}; its mask would not match a whole-graph draw"
        )
    keep = rng.random((num_rows,) + tuple(shape[1:])) >= p
    return keep[index] if len(index) < num_rows else keep


def nll_loss(log_probs: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood over (optionally masked) rows.

    Parameters
    ----------
    log_probs:
        ``(n, c)`` log-probabilities (output of :func:`log_softmax`).
    targets:
        ``(n,)`` integer class labels.
    mask:
        Optional boolean/index mask selecting the supervised rows.
    """
    targets = np.asarray(targets)
    n = log_probs.shape[0]
    if mask is None:
        rows = np.arange(n)
    else:
        mask = np.asarray(mask)
        rows = np.flatnonzero(mask) if mask.dtype == bool else mask
    picked = log_probs[(rows, targets[rows])]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax cross-entropy on raw logits."""
    return nll_loss(log_softmax(logits, axis=-1), targets, mask)


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits."""
    targets = np.asarray(targets, dtype=np.float64)
    x = logits
    # log(1 + exp(-|x|)) + max(x, 0) - x * y
    abs_x = x.abs()
    loss = (abs_x * -1.0).exp().__add__(1.0).log() + x.relu() - x * Tensor(targets)
    if mask is not None:
        mask = np.asarray(mask)
        rows = np.flatnonzero(mask) if mask.dtype == bool else mask
        loss = loss[rows]
    return loss.mean()


def l2_regularization(parameters) -> Tensor:
    """Sum of squared parameter entries, used for explicit weight decay."""
    total: Optional[Tensor] = None
    for param in parameters:
        term = (param * param).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total
