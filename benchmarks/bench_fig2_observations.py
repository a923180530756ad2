"""Fig. 2 — the two motivating observations (O1, O2).

O1: on CoraML the coarse undirected transformation + undirected GNNs beats
feeding the natural digraph to directed GNNs; on Chameleon the situation is
reversed.

O2: converting directed edges into undirected ones (edge-wise augmentation)
helps directed GNNs on CiteSeer but hurts them on Squirrel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.datasets import load_dataset
from repro.graph import to_undirected

from conftest import bench_seeds, bench_trainer
from helpers import print_banner

UNDIRECTED_MODELS = ("GCN", "GPRGNN")
DIRECTED_MODELS = ("DiGCN", "DirGNN")


def _mean_accuracy(model_names, graph, seeds, trainer):
    handle = Session().from_graph(graph)
    return float(
        np.mean(
            [
                handle.fit_repeated(name, seeds=seeds, train=trainer).test_mean
                for name in model_names
            ]
        )
    )


def build_fig2():
    seeds, trainer = bench_seeds(), bench_trainer()
    results = {}

    # O1: undirected GNNs on U- vs directed GNNs on D-.
    for dataset_name in ("coraml", "chameleon"):
        graph = load_dataset(dataset_name, seed=0)
        results[dataset_name] = {
            "undirected_gnn_on_U": _mean_accuracy(
                UNDIRECTED_MODELS, to_undirected(graph), seeds, trainer
            ),
            "directed_gnn_on_D": _mean_accuracy(DIRECTED_MODELS, graph, seeds, trainer),
        }

    # O2: directed GNNs with vs without undirected edge augmentation.
    for dataset_name in ("citeseer", "squirrel"):
        graph = load_dataset(dataset_name, seed=0)
        results[dataset_name] = {
            "directed_gnn_on_D": _mean_accuracy(DIRECTED_MODELS, graph, seeds, trainer),
            "directed_gnn_on_U": _mean_accuracy(
                DIRECTED_MODELS, to_undirected(graph), seeds, trainer
            ),
        }
    return results


def print_fig2(results):
    print_banner("Fig. 2 — motivating observations O1 / O2")
    print("O1: which modeling wins depends on the dataset")
    for name in ("coraml", "chameleon"):
        row = results[name]
        print(
            f"  {name:<12s} undirected GNNs (U-): {100 * row['undirected_gnn_on_U']:.1f}   "
            f"directed GNNs (D-): {100 * row['directed_gnn_on_D']:.1f}"
        )
    print("O2: undirected augmentation helps or hurts directed GNNs depending on the dataset")
    for name in ("citeseer", "squirrel"):
        row = results[name]
        print(
            f"  {name:<12s} directed GNNs on D-: {100 * row['directed_gnn_on_D']:.1f}   "
            f"directed GNNs on U-: {100 * row['directed_gnn_on_U']:.1f}"
        )


def check_fig2_shape(results):
    # O1: CoraML favours undirected modeling, Chameleon favours directed modeling.
    assert results["coraml"]["undirected_gnn_on_U"] >= results["coraml"]["directed_gnn_on_D"] - 0.02
    assert results["chameleon"]["directed_gnn_on_D"] > results["chameleon"]["undirected_gnn_on_U"]
    # O2: undirected augmentation helps on CiteSeer, hurts on Squirrel.
    assert results["citeseer"]["directed_gnn_on_U"] >= results["citeseer"]["directed_gnn_on_D"] - 0.02
    assert results["squirrel"]["directed_gnn_on_D"] > results["squirrel"]["directed_gnn_on_U"]


@pytest.mark.benchmark(group="fig2")
def test_fig2_observations(benchmark):
    results = benchmark.pedantic(build_fig2, rounds=1, iterations=1)
    print_fig2(results)
    check_fig2_shape(results)
