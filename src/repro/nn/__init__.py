"""Minimal NumPy-based neural-network substrate (autograd, layers, optimisers).

This package replaces PyTorch for the reproduction: every model is a
composition of :class:`repro.nn.Module` objects whose parameters are
:class:`repro.nn.Tensor` instances trained through reverse-mode autograd.
"""

from . import functional
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    linear,
    no_grad,
    ones,
    row_subset,
    sparse_matmul,
    stack,
    weighted_sum,
    where,
    zeros,
)
from .layers import (
    BatchNorm,
    Dropout,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
)
from .optim import Adam, Optimizer, SGD

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "linear",
    "no_grad",
    "row_subset",
    "stack",
    "sparse_matmul",
    "weighted_sum",
    "where",
    "zeros",
    "ones",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Dropout",
    "LayerNorm",
    "BatchNorm",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
]
