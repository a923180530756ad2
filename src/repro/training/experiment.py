"""Repeated-trial results and the paper's rank/table helpers.

The paper repeats every experiment 10 times and reports mean ± std.  That
protocol lives in the typed :mod:`repro.api` surface —
:meth:`repro.api.GraphHandle.fit_repeated` for one cell and
:meth:`repro.api.Session.experiment` for a full sweep.  The sparsity
sweeps read their cells in the :class:`ExperimentResult` shape, which
carries every run's full :class:`TrainResult`.

The rank/table helpers accept :class:`ExperimentResult` cells and the
typed :class:`repro.api.ExperimentReport` cells alike (same attributes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph.digraph import DirectedGraph
from .trainer import Trainer, TrainResult


@dataclass
class ExperimentResult:
    """Aggregated accuracies of one (model, dataset) cell (legacy shape)."""

    model: str
    dataset: str
    test_mean: float
    test_std: float
    val_mean: float
    runs: List[TrainResult] = field(default_factory=list)

    def as_row(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "test_mean": round(self.test_mean, 4),
            "test_std": round(self.test_std, 4),
            "val_mean": round(self.val_mean, 4),
            "test_accuracies": [round(run.test_accuracy, 4) for run in self.runs],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExperimentResult({self.model} on {self.dataset}: "
            f"{100 * self.test_mean:.1f}±{100 * self.test_std:.1f})"
        )


def _repeated_impl(
    model_name: str,
    graph: DirectedGraph,
    seeds: Sequence[int],
    trainer: Optional[Trainer],
    model_kwargs: Optional[Dict],
) -> ExperimentResult:
    """One repeated cell through :func:`repro.api.experiment.execute_repeated`."""
    # Imported lazily: repro.api sits above the training layer, so a
    # module-level import here would be circular.
    from ..api.experiment import execute_repeated

    report, results = execute_repeated(
        model_name,
        graph,
        seeds=seeds,
        train=trainer if trainer is not None else Trainer(),
        model_kwargs=model_kwargs,
    )
    return ExperimentResult(
        model=report.model,
        dataset=graph.name,
        test_mean=report.test_mean,
        test_std=report.test_std,
        val_mean=report.val_mean,
        runs=list(results),
    )


def rank_results(results: Sequence[ExperimentResult]) -> Dict[str, float]:
    """Rank models by mean test accuracy (1 = best), as in the Rank column."""
    ordered = sorted(results, key=lambda result: result.test_mean, reverse=True)
    return {result.model: float(rank) for rank, result in enumerate(ordered, start=1)}


def average_rank(per_dataset_results: Sequence[Sequence[ExperimentResult]]) -> Dict[str, float]:
    """Average each model's rank across datasets (the paper's Rank column)."""
    accumulator: Dict[str, List[float]] = {}
    for dataset_results in per_dataset_results:
        ranks = rank_results(dataset_results)
        for model, rank in ranks.items():
            accumulator.setdefault(model, []).append(rank)
    return {model: float(np.mean(ranks)) for model, ranks in accumulator.items()}


def format_results_table(
    per_dataset_results: Dict[str, List[ExperimentResult]],
    include_rank: bool = True,
) -> str:
    """Render results as a fixed-width text table (one row per model)."""
    datasets = list(per_dataset_results)
    models: List[str] = []
    for results in per_dataset_results.values():
        for result in results:
            if result.model not in models:
                models.append(result.model)
    lookup = {
        (result.model, dataset): result
        for dataset, results in per_dataset_results.items()
        for result in results
    }
    ranks = (
        average_rank(list(per_dataset_results.values())) if include_rank and datasets else {}
    )

    header = ["Model"] + datasets + (["Rank"] if include_rank else [])
    lines = ["  ".join(f"{column:>16s}" for column in header)]
    for model in models:
        cells = [f"{model:>16s}"]
        for dataset in datasets:
            result = lookup.get((model, dataset))
            if result is None:
                cells.append(f"{'-':>16s}")
            else:
                cells.append(f"{100 * result.test_mean:13.1f}±{100 * result.test_std:.1f}")
        if include_rank:
            cells.append(f"{ranks.get(model, float('nan')):>16.1f}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
