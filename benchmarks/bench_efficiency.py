"""Sec. IV-D — empirical check of the complexity analysis.

ADPA is decoupled: every graph-dependent operation runs once in
preprocessing (O(kKmf) sparse products), so its per-epoch cost should be
comparable to an MLP's and independent of the edge count, while the
coupled directed GNNs (DirGNN, NSTE) touch the adjacency in every epoch.
This benchmark profiles preprocessing time, per-epoch time and parameter
counts across the model families on the squirrel stand-in, then profiles
ADPA and DirGNN on one node set at two edge counts.
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis import efficiency_report, format_efficiency_table, profile_model
from repro.datasets import load_dataset
from repro.graph.generators import DSBMConfig, directed_sbm
from repro.graph.splits import ratio_split

from helpers import print_banner, write_bench_json

MODELS = ["MLP", "SGC", "GCN", "GPRGNN", "DirGNN", "NSTE", "MagNet", "ADPA"]
MODEL_KWARGS = {"ADPA": {"hidden": 64, "num_steps": 3}}

#: the edge-doubling pair: one squirrel-sized node set at two average
#: degrees, the second twice the first.  Each round profiles both models
#: on both graphs back to back; a model's growth is the median over the
#: rounds of its epoch time on the doubled graph over the base graph's.
EDGE_DOUBLING_MODELS = ["ADPA", "DirGNN"]
EDGE_DOUBLING_DEGREES = (32.0, 64.0)
EDGE_DOUBLING_EPOCHS = 10
EDGE_DOUBLING_ROUNDS = 5

#: ADPA's epoch growth at twice the edges stays below this, and DirGNN's
#: rises above it.  In 20 runs on a 2-core host (one BLAS thread),
#: ADPA's growth read 0.86-1.13 and DirGNN's 1.36-1.52.
EPOCH_GROWTH_BOUND = 1.25


def build_efficiency():
    graph = load_dataset("squirrel", seed=0)
    return efficiency_report(MODELS, graph, num_epochs=5, model_kwargs=MODEL_KWARGS)


def edge_doubling_graph(avg_degree: float):
    """The squirrel stand-in's nodes, classes and features at ``avg_degree``."""
    config = DSBMConfig(
        num_nodes=1200,
        num_classes=5,
        avg_degree=avg_degree,
        feature_dim=96,
        homophily=0.22,
        directional_asymmetry=0.88,
        feature_signal=0.08,
        name=f"dsbm-degree-{avg_degree:g}",
    )
    return ratio_split(directed_sbm(config, seed=0), train_ratio=0.48, val_ratio=0.32, seed=0)


def build_edge_doubling():
    """Per round, ``[base profiles, doubled profiles]`` of ADPA and DirGNN."""
    graphs = [edge_doubling_graph(degree) for degree in EDGE_DOUBLING_DEGREES]
    rounds = []
    for round_index in range(EDGE_DOUBLING_ROUNDS):
        # Alternate the graph order, so drift on a busy host hits both.
        order = graphs if round_index % 2 == 0 else graphs[::-1]
        profiles = {
            (graph.name, name): profile_model(
                name, graph, num_epochs=EDGE_DOUBLING_EPOCHS, model_kwargs=MODEL_KWARGS.get(name)
            )
            for name in EDGE_DOUBLING_MODELS
            for graph in order
        }
        rounds.append(
            [[profiles[(graph.name, name)] for name in EDGE_DOUBLING_MODELS] for graph in graphs]
        )
    return rounds


def epoch_growth(rounds):
    """Per model, the median over rounds of doubled-edge over base epoch time."""
    return {
        name: statistics.median(
            doubled[index].seconds_per_epoch / base[index].seconds_per_epoch
            for base, doubled in rounds
        )
        for index, name in enumerate(EDGE_DOUBLING_MODELS)
    }


def check_efficiency_shape(profiles):
    by_name = {profile.model: profile for profile in profiles}
    # ADPA front-loads the graph work: its preprocessing costs more than
    # the coupled models' preprocessing.
    assert by_name["ADPA"].preprocess_seconds > by_name["DirGNN"].preprocess_seconds
    # Its per-epoch cost stays within a bounded multiple of plain feature
    # models and of the coupled directed GNNs.  The factors are deliberately
    # loose: the check is about order of magnitude, not wall-clock jitter.
    assert by_name["ADPA"].seconds_per_epoch < 60 * by_name["MLP"].seconds_per_epoch
    assert by_name["ADPA"].seconds_per_epoch < 20 * by_name["NSTE"].seconds_per_epoch


def check_edge_doubling(rounds):
    """Doubling the edges at a fixed n grows DirGNN's epoch, not ADPA's."""
    growth = epoch_growth(rounds)
    assert growth["ADPA"] < EPOCH_GROWTH_BOUND, growth
    assert growth["DirGNN"] > EPOCH_GROWTH_BOUND, growth


def efficiency_payload(profiles, rounds) -> dict:
    """Machine-readable form of the efficiency tables for trend tracking."""
    return {
        "dataset": profiles[0].dataset if profiles else None,
        "profiles": [profile.as_row() for profile in profiles],
        "edge_doubling": {
            "rounds": [[profile.as_row() for profile in base + doubled] for base, doubled in rounds],
            "epoch_growth": {name: round(ratio, 3) for name, ratio in epoch_growth(rounds).items()},
        },
    }


def report(profiles, rounds) -> None:
    print(format_efficiency_table(profiles))
    low, high = EDGE_DOUBLING_DEGREES
    print(f"\nepoch ms at average degree {low:g} -> {high:g}, per round:")
    growth = epoch_growth(rounds)
    for index, name in enumerate(EDGE_DOUBLING_MODELS):
        pairs = "  ".join(
            f"{1e3 * base[index].seconds_per_epoch:.1f}->{1e3 * doubled[index].seconds_per_epoch:.1f}"
            for base, doubled in rounds
        )
        print(f"{name:<8s}{pairs}   growth {growth[name]:.2f}x")


@pytest.mark.benchmark(group="efficiency")
def test_efficiency_breakdown(benchmark):
    profiles = benchmark.pedantic(build_efficiency, rounds=1, iterations=1)
    rounds = build_edge_doubling()
    print_banner("Sec. IV-D — preprocessing vs per-epoch cost (squirrel stand-in)")
    report(profiles, rounds)
    path = write_bench_json("efficiency", efficiency_payload(profiles, rounds))
    print(f"wrote {path}")
    check_efficiency_shape(profiles)
    check_edge_doubling(rounds)


if __name__ == "__main__":
    rows = build_efficiency()
    rounds = build_edge_doubling()
    report(rows, rounds)
    write_bench_json("efficiency", efficiency_payload(rows, rounds))
    check_efficiency_shape(rows)
    check_edge_doubling(rounds)
