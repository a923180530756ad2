"""Table III — accuracy on the homophilous (AMUndirected, Score < 0.5) datasets.

Expected shape (not absolute numbers): undirected GNNs rank above directed
GNNs on average, and ADPA is the best or among the best models.

The table is one declarative sweep through ``Session.experiment``; the
typed report is printed and persisted as ``BENCH_table3.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import TABLE3_DATASETS
from repro.models import get_spec

from conftest import FULL_PROTOCOL, bench_model_subset
from helpers import print_banner, run_accuracy_table, write_bench_json

#: quick protocol uses a representative third of the datasets
DATASETS = TABLE3_DATASETS if FULL_PROTOCOL else ("coraml", "citeseer", "tolokers")


def build_table3():
    models = bench_model_subset(directed=False)
    return run_accuracy_table(models, DATASETS, amud_directed=False)


def check_table3_shape(ranks):
    undirected = [rank for name, rank in ranks.items()
                  if name != "ADPA" and not get_spec(name).is_directed]
    directed = [rank for name, rank in ranks.items()
                if name != "ADPA" and get_spec(name).is_directed]
    # Undirected GNNs should rank better (lower) than directed GNNs on average.
    assert np.mean(undirected) < np.mean(directed) + 1.0
    # ADPA should be competitive: within the top half of the ranking.
    assert ranks["ADPA"] <= (len(ranks) + 1) / 2.0


@pytest.mark.benchmark(group="table3")
def test_table3_homophilous_accuracy(benchmark):
    report = benchmark.pedantic(build_table3, rounds=1, iterations=1)
    print_banner("Table III — accuracy on homophilous (AMUndirected) datasets")
    print(report.as_table())
    write_bench_json("table3", report.as_dict())
    check_table3_shape(report.ranks())
