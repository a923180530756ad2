"""Table IV — accuracy on the heterophilous (AMDirected, Score > 0.5) datasets.

Expected shape: directed GNNs rank above undirected GNNs, and ADPA ranks
first or near-first.

The table is one declarative sweep through ``Session.experiment``; the
typed report is printed and persisted as ``BENCH_table4.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import TABLE4_DATASETS
from repro.models import get_spec

from conftest import FULL_PROTOCOL, bench_model_subset
from helpers import print_banner, run_accuracy_table, write_bench_json

DATASETS = TABLE4_DATASETS if FULL_PROTOCOL else ("texas", "chameleon", "squirrel")


def build_table4():
    models = bench_model_subset(directed=True)
    return run_accuracy_table(models, DATASETS, amud_directed=True)


def check_table4_shape(ranks):
    undirected = [rank for name, rank in ranks.items()
                  if name != "ADPA" and not get_spec(name).is_directed]
    directed = [rank for name, rank in ranks.items()
                if name != "ADPA" and get_spec(name).is_directed]
    # Directed GNNs must rank better (lower) than undirected GNNs on average.
    assert np.mean(directed) < np.mean(undirected)
    # ADPA must be in the top 3 of the ranking on AMDirected data.
    assert ranks["ADPA"] <= 3.0


@pytest.mark.benchmark(group="table4")
def test_table4_heterophilous_accuracy(benchmark):
    report = benchmark.pedantic(build_table4, rounds=1, iterations=1)
    print_banner("Table IV — accuracy on heterophilous (AMDirected) datasets")
    print(report.as_table())
    write_bench_json("table4", report.as_dict())
    check_table4_shape(report.ranks())
