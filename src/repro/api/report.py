"""Typed experiment reports with stable JSON round-trips.

The paper reports every number as mean ± std over repeated seeded trials;
these dataclasses are the typed form of that protocol's output:

* :class:`RunReport` — one (model, dataset, variant, seed) training run;
* :class:`ExperimentReport` — one experiment cell: the aggregated runs of
  one (model, dataset, variant) triple;
* :class:`SweepReport` — every cell of one :class:`repro.api.SweepSpec`,
  with the Rank column (:meth:`SweepReport.ranks`), table rendering
  (:meth:`SweepReport.as_table`) and a versioned JSON form
  (:meth:`SweepReport.to_json` / :meth:`SweepReport.from_json`).

Aggregation is deterministic: runs are ordered by their position in the
config's seed tuple and cells by the spec's canonical order, independent of
how the worker pool scheduled them, so parallel and serial execution emit
byte-identical reports (up to wall-clock timing fields).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..metrics.classification import summarize_runs
from ..training.trainer import TrainResult

PathLike = Union[str, Path]

#: bumped whenever the JSON schema of the report types changes.
REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunReport:
    """One seeded training run of one experiment cell."""

    model: str
    dataset: str
    seed: int
    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    best_epoch: int
    epochs_run: int
    variant: str = ""
    fit_seconds: float = 0.0
    preprocess_seconds: float = 0.0

    @classmethod
    def from_train_result(
        cls,
        result: TrainResult,
        *,
        model: str,
        dataset: str,
        seed: int,
        variant: str = "",
    ) -> "RunReport":
        return cls(
            model=model,
            dataset=dataset,
            seed=int(seed),
            train_accuracy=float(result.train_accuracy),
            val_accuracy=float(result.val_accuracy),
            test_accuracy=float(result.test_accuracy),
            best_epoch=int(result.best_epoch),
            epochs_run=int(result.epochs_run),
            variant=variant,
            fit_seconds=float(result.fit_seconds),
            preprocess_seconds=float(result.preprocess_seconds),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "variant": self.variant,
            "seed": self.seed,
            "train_accuracy": self.train_accuracy,
            "val_accuracy": self.val_accuracy,
            "test_accuracy": self.test_accuracy,
            "best_epoch": self.best_epoch,
            "epochs_run": self.epochs_run,
            "fit_seconds": self.fit_seconds,
            "preprocess_seconds": self.preprocess_seconds,
        }

    def canonical(self) -> "RunReport":
        """This run with its wall-clock fields zeroed.

        Accuracies, epochs and seeds are deterministic functions of the
        spec; ``fit_seconds``/``preprocess_seconds`` are the only fields
        that vary between two executions of the same cell.  The canonical
        form is what distributed sweeps compare and merge bit-identically.
        """
        return replace(self, fit_seconds=0.0, preprocess_seconds=0.0)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunReport":
        return cls(
            model=str(payload["model"]),
            dataset=str(payload["dataset"]),
            seed=int(payload["seed"]),
            train_accuracy=float(payload["train_accuracy"]),
            val_accuracy=float(payload["val_accuracy"]),
            test_accuracy=float(payload["test_accuracy"]),
            best_epoch=int(payload["best_epoch"]),
            epochs_run=int(payload["epochs_run"]),
            variant=str(payload.get("variant", "")),
            fit_seconds=float(payload.get("fit_seconds", 0.0)),
            preprocess_seconds=float(payload.get("preprocess_seconds", 0.0)),
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated runs of one (model, dataset, variant) cell."""

    model: str
    dataset: str
    test_mean: float
    test_std: float
    val_mean: float
    val_std: float
    runs: Tuple[RunReport, ...]
    variant: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))

    @classmethod
    def from_runs(cls, runs: Sequence[RunReport]) -> "ExperimentReport":
        """Aggregate run reports (in seed order) into one cell report."""
        if not runs:
            raise ValueError("an experiment cell needs at least one run")
        first = runs[0]
        for run in runs[1:]:
            if (run.model, run.dataset, run.variant) != (
                first.model, first.dataset, first.variant,
            ):
                raise ValueError(
                    "all runs of one cell must share (model, dataset, variant); "
                    f"got {(run.model, run.dataset, run.variant)} next to "
                    f"{(first.model, first.dataset, first.variant)}"
                )
        test = summarize_runs(run.test_accuracy for run in runs)
        val = summarize_runs(run.val_accuracy for run in runs)
        return cls(
            model=first.model,
            dataset=first.dataset,
            test_mean=test["mean"],
            test_std=test["std"],
            val_mean=val["mean"],
            val_std=val["std"],
            runs=tuple(runs),
            variant=first.variant,
        )

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(run.seed for run in self.runs)

    def as_row(self) -> Dict[str, object]:
        """A self-describing table row: aggregates, val stats, seed list."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "variant": self.variant,
            "test_mean": round(self.test_mean, 4),
            "test_std": round(self.test_std, 4),
            "val_mean": round(self.val_mean, 4),
            "val_std": round(self.val_std, 4),
            "seeds": list(self.seeds),
            "test_accuracies": [round(run.test_accuracy, 4) for run in self.runs],
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "variant": self.variant,
            "test_mean": self.test_mean,
            "test_std": self.test_std,
            "val_mean": self.val_mean,
            "val_std": self.val_std,
            "runs": [run.to_dict() for run in self.runs],
        }

    def canonical(self) -> "ExperimentReport":
        """This cell with every run's wall-clock fields zeroed."""
        return replace(self, runs=tuple(run.canonical() for run in self.runs))

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentReport":
        return cls(
            model=str(payload["model"]),
            dataset=str(payload["dataset"]),
            test_mean=float(payload["test_mean"]),
            test_std=float(payload["test_std"]),
            val_mean=float(payload["val_mean"]),
            val_std=float(payload["val_std"]),
            runs=tuple(RunReport.from_dict(run) for run in payload["runs"]),
            variant=str(payload.get("variant", "")),
        )

    @property
    def label(self) -> str:
        """The table row this cell fills: ``model`` or ``model/variant``."""
        return self.model if not self.variant else f"{self.model}/{self.variant}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExperimentReport({self.label} on {self.dataset}: "
            f"{100 * self.test_mean:.1f}±{100 * self.test_std:.1f})"
        )


@dataclass(frozen=True)
class SweepReport:
    """Every cell of one sweep, in the spec's canonical order."""

    cells: Tuple[ExperimentReport, ...]
    spec: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    # ------------------------------------------------------------------ #
    # Lookup and grouping
    # ------------------------------------------------------------------ #
    def cell(self, model: str, dataset: str, variant: str = "") -> ExperimentReport:
        """The report of one (model, dataset, variant) cell."""
        for cell in self.cells:
            if (
                cell.model.lower() == model.lower()
                and cell.dataset == dataset
                and cell.variant == variant
            ):
                return cell
        raise KeyError(f"no cell for model={model!r} dataset={dataset!r} variant={variant!r}")

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def ranks(self) -> Dict[str, float]:
        """Each row's mean per-dataset rank by test mean (1 = best).

        Rows are labelled as in :meth:`as_table`.  Tied cells share the
        mean of the positions they span (two cells tied for first both
        rank 1.5), so the ranks do not depend on the order of the cells.
        """
        scores: Dict[str, Dict[str, float]] = {}
        for cell in self.cells:
            scores.setdefault(cell.dataset, {})[cell.label] = cell.test_mean
        positions: Dict[str, List[float]] = {}
        for by_label in scores.values():
            values = list(by_label.values())
            for label, value in by_label.items():
                better = sum(other > value for other in values)
                tied = sum(other == value for other in values)
                positions.setdefault(label, []).append(better + (tied + 1) / 2.0)
        return {label: float(np.mean(ranks)) for label, ranks in positions.items()}

    def as_table(self, include_rank: bool = True) -> str:
        """Fixed-width ``row × dataset`` table of ``mean±std`` cells.

        Rows are models, or ``model/variant`` when the sweep has named
        variants; the Rank column is :meth:`ranks`, as in the paper's
        tables.
        """
        datasets: List[str] = []
        labels: List[str] = []
        lookup: Dict[Tuple[str, str], ExperimentReport] = {}
        for cell in self.cells:
            if cell.dataset not in datasets:
                datasets.append(cell.dataset)
            if cell.label not in labels:
                labels.append(cell.label)
            lookup[(cell.label, cell.dataset)] = cell
        ranks = self.ranks() if include_rank else {}

        header = ["Model"] + datasets + (["Rank"] if include_rank else [])
        lines = ["  ".join(f"{column:>16s}" for column in header)]
        for label in labels:
            cells = [f"{label:>16s}"]
            for dataset in datasets:
                cell = lookup.get((label, dataset))
                if cell is None:
                    cells.append(f"{'-':>16s}")
                else:
                    cells.append(f"{100 * cell.test_mean:13.1f}±{100 * cell.test_std:.1f}")
            if include_rank:
                cells.append(f"{ranks[label]:>16.1f}")
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def canonical(self) -> "SweepReport":
        """The report with all wall-clock timing fields zeroed.

        Two executions of the same spec — serial, thread-parallel, or
        sharded across processes and merged — produce byte-identical
        canonical JSON; only the timing fields differ between runs.
        """
        return replace(self, cells=tuple(cell.canonical() for cell in self.cells))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": "sweep-report",
            "spec": self.spec,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepReport":
        version = int(payload.get("format_version", -1))
        if version != REPORT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported report version {version}; expected {REPORT_FORMAT_VERSION}"
            )
        return cls(
            cells=tuple(ExperimentReport.from_dict(cell) for cell in payload["cells"]),
            spec=payload.get("spec"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike, indent: int = 2) -> Path:
        """Write the report JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=indent) + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "SweepReport":
        return cls.from_json(Path(path).read_text())
