"""Minimal NumPy-based neural-network substrate (autograd, layers, optimisers).

This package replaces PyTorch for the reproduction: every model is a
composition of :class:`repro.nn.Module` objects whose parameters are
:class:`repro.nn.Tensor` instances trained through reverse-mode autograd.
"""

from . import functional
from .tensor import Tensor, as_tensor, concatenate, no_grad, sparse_matmul, stack, where, zeros, ones
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
    "no_grad",
    "stack",
    "sparse_matmul",
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
