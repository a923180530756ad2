"""Training harness: the trainer and the sparsity sweeps of Fig. 7."""

from .sparsity import (
    SPARSITY_KINDS,
    SparsityPoint,
    apply_sparsity,
    format_sparsity_table,
    sparsity_sweep,
)
from .trainer import Trainer, TrainResult

__all__ = [
    "Trainer",
    "TrainResult",
    "SparsityPoint",
    "SPARSITY_KINDS",
    "apply_sparsity",
    "sparsity_sweep",
    "format_sparsity_table",
]
