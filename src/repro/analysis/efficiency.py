"""Runtime breakdown utilities (paper Sec. IV-D complexity analysis).

ADPA's design argument is that all graph-dependent work happens once, before
training (``O(kKmf)`` sparse products), so the per-epoch cost is that of an
MLP.  :func:`profile_model` measures exactly that split — preprocessing
time, per-epoch training time and parameter count — for any registered
model, and :func:`efficiency_report` tabulates it across a model list so the
decoupled-vs-coupled trade-off can be inspected empirically.  The epoch
timed is the one :meth:`repro.training.Trainer.fit` runs, so a model that
slices its cache to the rows a step reads (MLP, SGC, ADPA) is profiled on
those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..graph.digraph import DirectedGraph
from ..models.registry import create_model, get_spec
from ..training.trainer import Trainer


@dataclass
class ModelProfile:
    """Timing and size profile of one model on one graph."""

    model: str
    dataset: str
    preprocess_seconds: float
    seconds_per_epoch: float
    num_parameters: int

    def as_row(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "preprocess_s": round(self.preprocess_seconds, 4),
            "epoch_s": round(self.seconds_per_epoch, 4),
            "parameters": self.num_parameters,
        }


def profile_model(
    model_name: str,
    graph: DirectedGraph,
    num_epochs: int = 5,
    model_kwargs: Optional[Dict] = None,
    seed: int = 0,
) -> ModelProfile:
    """Measure preprocessing time and per-epoch cost of one model.

    Trains ``num_epochs`` epochs through :meth:`Trainer.fit` (patience
    equal to the epoch budget, so early stopping never cuts the run); the
    per-epoch cost is the fit's epoch-loop time over the epochs it ran,
    each a training step plus the tape-off evaluation.
    """
    if num_epochs < 1:
        raise ValueError(f"num_epochs must be >= 1, got {num_epochs}")
    kwargs = dict(model_kwargs or {})
    kwargs.setdefault("seed", seed)
    model = create_model(model_name, graph, **kwargs)
    result = Trainer(epochs=num_epochs, patience=num_epochs).fit(model, graph)
    return ModelProfile(
        model=get_spec(model_name).name,
        dataset=graph.name,
        preprocess_seconds=result.preprocess_seconds,
        seconds_per_epoch=result.fit_seconds / result.epochs_run,
        num_parameters=model.num_parameters(),
    )


def efficiency_report(
    model_names: Iterable[str],
    graph: DirectedGraph,
    num_epochs: int = 5,
    model_kwargs: Optional[Dict[str, Dict]] = None,
) -> List[ModelProfile]:
    """Profile several models on the same graph."""
    model_kwargs = model_kwargs or {}
    return [
        profile_model(name, graph, num_epochs=num_epochs, model_kwargs=model_kwargs.get(name))
        for name in model_names
    ]


def format_efficiency_table(profiles: List[ModelProfile]) -> str:
    """Render profiles as a fixed-width table."""
    lines = [f"{'model':<12s}{'preprocess s':>14s}{'s / epoch':>12s}{'parameters':>12s}"]
    for profile in profiles:
        lines.append(
            f"{profile.model:<12s}{profile.preprocess_seconds:>14.4f}"
            f"{profile.seconds_per_epoch:>12.4f}{profile.num_parameters:>12d}"
        )
    return "\n".join(lines)
