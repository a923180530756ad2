"""Training harness: trainer, repeated experiments and sparsity sweeps."""

from .experiment import (
    ExperimentResult,
    average_rank,
    format_results_table,
    rank_results,
)
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
    "ExperimentResult",
    "rank_results",
    "average_rank",
    "format_results_table",
    "SparsityPoint",
    "SPARSITY_KINDS",
    "apply_sparsity",
    "sparsity_sweep",
    "format_sparsity_table",
]
