"""Weight initialisation schemes.

Every initializer takes an explicit :class:`numpy.random.Generator` so that
model construction is fully deterministic given a seed — a requirement for
the repeated-trial experiment harness.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def glorot_uniform(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Xavier/Glorot uniform initialisation, the default for GCN-style layers."""
    fan_in, fan_out = shape[0], shape[1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Small-variance Gaussian initialisation for attention vectors."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
