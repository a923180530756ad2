"""Execution engine behind ``Session.experiment`` / ``fit_repeated``.

The paper's protocol — repeat every (model, dataset) cell over fixed seeds
and report mean ± std — is implemented here once, for every caller: the
typed handles of :mod:`repro.api.session`, the ``repro experiment`` CLI
sub-command, the benchmark scripts and the sparsity sweeps of
:mod:`repro.training.sparsity`.

Runs execute on a bounded thread pool (training is NumPy-heavy, so worker
threads overlap well).  Determinism is structural, not accidental: every
run is seeded explicitly, no run shares mutable state with another, and
results are aggregated by their position in the seed/cell order — so a
parallel sweep is bit-identical to a serial one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..datasets.synthetic import load_dataset
from ..graph.digraph import DirectedGraph
from ..graph.transforms import to_undirected
from ..models.registry import PROPOSED, create_model, get_spec
from ..training.trainer import Trainer, TrainResult
from .config import ExperimentConfig, SweepSpec, TrainConfig
from .report import ExperimentReport, RunReport, SweepReport

#: upper bound on auto-sized worker pools; training runs are CPU-bound, so
#: more threads than cores only adds scheduler churn.
MAX_AUTO_WORKERS = 16


def resolve_view(
    model_name: str,
    graph: DirectedGraph,
    view: str,
    *,
    undirected: Union[DirectedGraph, Callable[[], DirectedGraph], None] = None,
) -> DirectedGraph:
    """Pick the input view of one cell under a named protocol.

    ``natural`` and ``undirected`` are unconditional.  The two ``paper-*``
    protocols follow Sec. V-A: undirected GNNs always get the coarse
    undirected transformation (U-), directed GNNs the natural digraph (D-),
    and the proposed model (ADPA) the AMUD output — U- under
    ``paper-undirected``, D- under ``paper-directed``.  ``amud`` feeds
    every model the dataset's AMUD-regime view (the Fig. 1 workflow),
    taken from the graph's ``amud_regime`` metadata when present and from a
    fresh AMUD decision otherwise.

    ``undirected`` may pass a precomputed undirected transformation (or a
    zero-arg factory for one) so a sweep symmetrises each dataset once, not
    once per cell.
    """

    def undirected_view() -> DirectedGraph:
        if callable(undirected):
            return undirected()
        return undirected if undirected is not None else to_undirected(graph)

    if view == "natural":
        return graph
    if view == "undirected":
        return undirected_view()
    if view == "amud":
        regime = graph.meta.get("amud_regime")
        if regime is None:
            from ..amud.guidance import amud_decide

            regime = "directed" if amud_decide(graph).keep_directed else "undirected"
        return graph if regime == "directed" else undirected_view()
    if view in ("paper-undirected", "paper-directed"):
        spec = get_spec(model_name)
        if spec.category == PROPOSED:
            return graph if view == "paper-directed" else undirected_view()
        return graph if spec.is_directed else undirected_view()
    raise ValueError(f"unknown view {view!r}")


def execute_single(
    model_name: str,
    graph: DirectedGraph,
    *,
    seed: int = 0,
    trainer: Optional[Trainer] = None,
    model_kwargs: Optional[Dict] = None,
) -> TrainResult:
    """Train one registry model once on one graph (the run primitive)."""
    trainer = trainer if trainer is not None else Trainer()
    kwargs = dict(model_kwargs or {})
    kwargs.setdefault("seed", seed)
    model = create_model(model_name, graph, **kwargs)
    return trainer.fit(model, graph)


def _worker_count(num_tasks: int, max_workers: Optional[int]) -> int:
    if max_workers is None:
        max_workers = min(MAX_AUTO_WORKERS, os.cpu_count() or 1)
    return max(1, min(num_tasks, max_workers))


def execute_runs(
    tasks: Sequence[Callable[[], TrainResult]],
    max_workers: Optional[int] = None,
) -> List[TrainResult]:
    """Run independent tasks on a bounded pool; results keep task order."""
    workers = _worker_count(len(tasks), max_workers)
    if workers == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]


def _resolve_trainer(train: Union[TrainConfig, Trainer, None]) -> Trainer:
    if isinstance(train, Trainer):
        return train
    if isinstance(train, TrainConfig):
        return train.build_trainer()
    if train is None:
        return Trainer()
    raise TypeError(f"train must be a TrainConfig or Trainer, got {type(train).__name__}")


def execute_repeated(
    model_name: str,
    graph: DirectedGraph,
    *,
    seeds: Sequence[int],
    train: Union[TrainConfig, Trainer, None] = None,
    model_kwargs: Optional[Dict] = None,
    max_workers: Optional[int] = 1,
    dataset: Optional[str] = None,
    variant: str = "",
) -> Tuple[ExperimentReport, List[TrainResult]]:
    """Run one cell over its seeds and aggregate.

    Returns both the typed :class:`ExperimentReport` and the raw
    :class:`TrainResult` list (which still carries the per-epoch history
    the convergence benchmarks need).
    """
    seeds = tuple(seeds)
    if model_kwargs and "seed" in model_kwargs:
        # A pinned constructor seed would silently collapse every trial to
        # one run (std = 0) while the report still lists distinct seeds.
        raise ValueError(
            "model_kwargs must not contain 'seed' for repeated runs; the "
            "per-trial seed comes from the seeds list"
        )
    trainer = _resolve_trainer(train)
    tasks = [
        (lambda s=seed: execute_single(
            model_name, graph, seed=s, trainer=trainer, model_kwargs=model_kwargs
        ))
        for seed in seeds
    ]
    results = execute_runs(tasks, max_workers=max_workers)
    label = get_spec(model_name).name
    dataset_label = dataset if dataset is not None else graph.name
    runs = tuple(
        RunReport.from_train_result(
            result, model=label, dataset=dataset_label, seed=seed, variant=variant
        )
        for seed, result in zip(seeds, results)
    )
    return ExperimentReport.from_runs(runs), results


def shard_cells(
    spec: SweepSpec, shard_index: int, shard_count: int
) -> List[int]:
    """Canonical cell indices owned by one shard (round-robin by index).

    The assignment is a pure function of the spec and the shard coordinates
    — cell ``i`` of :meth:`SweepSpec.cells` belongs to shard ``i %
    shard_count`` — so every participant in a distributed sweep computes
    the same partition without coordination, and the merge can verify a
    shard report claims exactly the cells it should.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard index must be in [0, {shard_count}), got {shard_index}"
        )
    return [
        index
        for index in range(len(spec.cells()))
        if index % shard_count == shard_index
    ]


def run_sweep(
    spec: SweepSpec, shard: Optional[Tuple[int, int]] = None
) -> SweepReport:
    """Execute a full models × datasets × variants grid.

    Datasets are loaded (and symmetrised, when a view needs it) once each;
    every (cell, seed) run is an independent task on one shared bounded
    pool, so parallelism crosses cell boundaries.  Cells aggregate in the
    spec's canonical order regardless of scheduling.

    ``shard=(i, n)`` restricts execution to the cells
    :func:`shard_cells` assigns to shard ``i`` of ``n`` (loading only the
    datasets those cells touch).  Each run is an independent deterministic
    function of (model, view, seed, kwargs) and cells are never split
    across shards, so a shard's cell reports are bit-identical to the same
    cells of the serial sweep up to wall-clock timing fields — that is
    what lets ``merge_shard_reports`` reassemble the serial report.
    """
    config = spec.config
    trainer = config.build_trainer()
    all_cells = spec.cells()
    if shard is None:
        owned = list(range(len(all_cells)))
    else:
        owned = shard_cells(spec, *shard)
    needed_datasets = {all_cells[index][0] for index in owned}
    graphs = {
        name: load_dataset(name, seed=spec.dataset_seed)
        for name in spec.datasets
        if name in needed_datasets
    }
    undirected_views: Dict[str, DirectedGraph] = {}

    def undirected_for(name: str) -> DirectedGraph:
        if name not in undirected_views:
            undirected_views[name] = to_undirected(graphs[name])
        return undirected_views[name]

    cells: List[Tuple[str, str, str, DirectedGraph, Dict[str, object]]] = []
    for index in owned:
        dataset, model, variant = all_cells[index]
        view = resolve_view(
            model,
            graphs[dataset],
            spec.view,
            undirected=lambda name=dataset: undirected_for(name),
        )
        cells.append((dataset, model, variant, view, spec.kwargs_for(model, variant)))

    seeds = config.seeds
    tasks: List[Callable[[], TrainResult]] = []
    for _, model, _, view, kwargs in cells:
        for seed in seeds:
            tasks.append(
                lambda m=model, g=view, s=seed, k=kwargs: execute_single(
                    m, g, seed=s, trainer=trainer, model_kwargs=k
                )
            )
    results = execute_runs(tasks, max_workers=config.max_workers)

    reports: List[ExperimentReport] = []
    for index, (dataset, model, variant, _, _) in enumerate(cells):
        cell_results = results[index * len(seeds):(index + 1) * len(seeds)]
        runs = tuple(
            RunReport.from_train_result(
                result,
                model=get_spec(model).name,
                dataset=dataset,
                seed=seed,
                variant=variant,
            )
            for seed, result in zip(seeds, cell_results)
        )
        reports.append(ExperimentReport.from_runs(runs))
    return SweepReport(cells=tuple(reports), spec=spec.as_dict())
