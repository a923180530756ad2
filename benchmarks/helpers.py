"""Shared utilities for the benchmark harness.

The input-view convention follows the paper's experimental setup (Sec. V-A)
and is implemented once, in :func:`repro.api.resolve_view`:

* undirected GNNs are always fed the coarse undirected transformation (U-);
* directed GNNs are fed the natural digraph (D-);
* ADPA is fed the AMUD output — undirected for Table III datasets
  (``view="paper-undirected"``), directed for Table IV datasets
  (``view="paper-directed"``), per-dataset regime under ``view="amud"``.

Every accuracy table is one declarative :class:`repro.api.SweepSpec`
executed by :meth:`repro.api.Session.experiment`, so the benchmark scripts
stay a thin shell over the same surface the CLI and library expose.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.api import Session, SweepReport, SweepSpec

from conftest import bench_experiment_config

#: per-model constructor overrides used across benchmarks (kept small: the
#: defaults already follow each original paper's recommended settings).
DEFAULT_MODEL_KWARGS: Dict[str, Dict] = {
    "ADPA": {"hidden": 64, "num_steps": 3},
}


def paper_table_spec(
    model_names: Sequence[str],
    dataset_names: Sequence[str],
    amud_directed: bool,
) -> SweepSpec:
    """The declarative spec of one Table III/IV-style accuracy table."""
    return SweepSpec(
        models=tuple(model_names),
        datasets=tuple(dataset_names),
        view="paper-directed" if amud_directed else "paper-undirected",
        config=bench_experiment_config(),
        model_kwargs=DEFAULT_MODEL_KWARGS,
    )


def run_accuracy_table(
    model_names: Sequence[str],
    dataset_names: Sequence[str],
    amud_directed: bool,
) -> SweepReport:
    """Fill a full (model × dataset) accuracy table via ``Session.experiment``."""
    return Session().experiment(paper_table_spec(model_names, dataset_names, amud_directed))


def print_banner(title: str) -> None:
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


def write_bench_json(name: str, payload) -> "Path":
    """Persist a benchmark's results as ``BENCH_<name>.json`` next to it.

    The JSON files are the machine-readable trail of the performance
    trajectory: each run overwrites its file, and the git history of the
    numbers is the trend line.
    """
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path
