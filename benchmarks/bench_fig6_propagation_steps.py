"""Fig. 6 — accuracy as a function of the propagation depth K.

The paper's finding: most decoupled/propagation models peak at small K
(2-3) and then degrade from over-smoothing, while ADPA's node-wise hop
attention keeps its accuracy from collapsing as K grows.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.datasets import load_dataset
from repro.graph import to_undirected

from conftest import FULL_PROTOCOL, bench_seeds, bench_trainer
from helpers import print_banner

DATASETS = {"citeseer": False, "chameleon": True} if not FULL_PROTOCOL else {
    "coraml": False, "citeseer": False, "actor": False,
    "cornell": True, "chameleon": True, "squirrel": True,
}
STEPS = (1, 2, 3, 4, 5)

#: (model, kwargs-key controlling the propagation depth)
MODELS = {
    "SGC": "num_steps",
    "GPRGNN": "num_steps",
    "DIMPA": "num_hops",
    "ADPA": "num_steps",
}


def build_fig6():
    seeds, trainer = bench_seeds(), bench_trainer()
    curves = {}
    for dataset_name, amud_directed in DATASETS.items():
        graph = load_dataset(dataset_name, seed=0)
        handle = Session().from_graph(graph if amud_directed else to_undirected(graph))
        per_model = {}
        for model_name, depth_key in MODELS.items():
            series = []
            for depth in STEPS:
                kwargs = {depth_key: depth}
                if model_name == "ADPA":
                    kwargs["hidden"] = 64
                result = handle.fit_repeated(model_name, seeds=seeds, train=trainer, **kwargs)
                series.append(result.test_mean)
            per_model[model_name] = series
        curves[dataset_name] = per_model
    return curves


def print_fig6(curves):
    print_banner("Fig. 6 — test accuracy vs propagation steps K")
    for dataset_name, per_model in curves.items():
        print(f"\n{dataset_name}  (K = {', '.join(map(str, STEPS))})")
        for model_name, series in per_model.items():
            print(f"  {model_name:<8s} " + "  ".join(f"{100 * value:5.1f}" for value in series))


def check_fig6_shape(curves):
    for dataset_name, per_model in curves.items():
        adpa = per_model["ADPA"]
        # ADPA is robust to depth: accuracy at K=5 stays within 8 points of its peak.
        assert adpa[-1] >= max(adpa) - 0.08, dataset_name
        # ADPA is competitive with the strongest sweep baseline at its best K.
        # (On the linear-feature synthetic stand-ins SGC is a very strong
        # baseline for homophilous data, so a small tolerance is allowed.)
        assert max(adpa) >= max(per_model["SGC"]) - 0.06, dataset_name
        # ADPA at depth 1 already beats the coupled DIMPA at depth 1.
        assert adpa[0] >= per_model["DIMPA"][0] - 0.02, dataset_name


@pytest.mark.benchmark(group="fig6")
def test_fig6_propagation_steps(benchmark):
    curves = benchmark.pedantic(build_fig6, rounds=1, iterations=1)
    print_fig6(curves)
    check_fig6_shape(curves)
