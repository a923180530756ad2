"""Sparsity-scenario runner (paper Fig. 7).

Three kinds of sparsity are injected into a base dataset and a model suite
is retrained at every level:

* feature sparsity — a fraction of (non-training) nodes lose their feature
  vectors entirely;
* edge sparsity — a fraction of directed edges is removed;
* label sparsity — the training set shrinks to a fixed number of labelled
  nodes per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..graph.digraph import DirectedGraph
from ..graph.transforms import sparsify_edges, sparsify_features, sparsify_labels
from .trainer import Trainer

if TYPE_CHECKING:
    from ..api.report import ExperimentReport

SPARSITY_KINDS = ("feature", "edge", "label")


@dataclass
class SparsityPoint:
    """Result of one (model, sparsity-kind, level) cell."""

    kind: str
    level: float
    result: ExperimentReport


def apply_sparsity(
    graph: DirectedGraph,
    kind: str,
    level: float,
    seed: int = 0,
) -> DirectedGraph:
    """Produce the sparsified variant of ``graph`` for one sweep point."""
    if kind not in SPARSITY_KINDS:
        raise ValueError(f"unknown sparsity kind {kind!r}; expected one of {SPARSITY_KINDS}")
    rng = np.random.default_rng(seed)
    if kind == "feature":
        return sparsify_features(graph, missing_rate=level, rng=rng)
    if kind == "edge":
        return sparsify_edges(graph, drop_rate=level, rng=rng)
    return sparsify_labels(graph, labels_per_class=int(level), rng=rng)


def sparsity_sweep(
    model_names: Iterable[str],
    graph: DirectedGraph,
    kind: str,
    levels: Sequence[float],
    seeds: Sequence[int] = (0, 1),
    trainer: Optional[Trainer] = None,
    model_kwargs: Optional[Dict[str, Dict]] = None,
) -> List[SparsityPoint]:
    """Retrain every model at every sparsity level of one kind (serially)."""
    # Imported lazily: repro.api sits above the training layer, so a
    # module-level import here would be circular.
    from ..api.experiment import execute_repeated

    model_kwargs = model_kwargs or {}
    points: List[SparsityPoint] = []
    for level in levels:
        sparsified = apply_sparsity(graph, kind, level, seed=0)
        for name in model_names:
            result, _ = execute_repeated(
                name,
                sparsified,
                seeds=seeds,
                train=trainer,
                model_kwargs=model_kwargs.get(name),
                max_workers=1,
            )
            points.append(SparsityPoint(kind=kind, level=float(level), result=result))
    return points


def format_sparsity_table(points: Sequence[SparsityPoint]) -> str:
    """Render a sweep as ``model x level`` rows of test accuracy."""
    levels = sorted({point.level for point in points})
    models: List[str] = []
    for point in points:
        if point.result.model not in models:
            models.append(point.result.model)
    lookup = {(point.result.model, point.level): point.result for point in points}
    kind = points[0].kind if points else "?"
    header = [f"{kind + ' level':>16s}"] + [f"{level:>10.2f}" for level in levels]
    lines = ["  ".join(header)]
    for model in models:
        cells = [f"{model:>16s}"]
        for level in levels:
            result = lookup.get((model, level))
            cells.append(f"{100 * result.test_mean:>10.1f}" if result else f"{'-':>10s}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
