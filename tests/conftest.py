"""Shared fixtures for the test suite.

Small, seeded graphs are built once per session so individual tests stay
fast; anything that mutates a graph must copy it first (the transforms all
return new objects, so this is only a concern for tests poking at arrays
directly).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.digraph import DirectedGraph
from repro.graph.generators import DSBMConfig, directed_sbm
from repro.graph.splits import per_class_split, ratio_split


@pytest.fixture(scope="session")
def tiny_graph() -> DirectedGraph:
    """A 6-node hand-built digraph with known structure (Fig. 3 flavour)."""
    edges = np.array(
        [
            [0, 3],  # 0 -> 3
            [1, 3],  # 1 -> 3
            [2, 3],  # 2 -> 3
            [4, 0],  # 4 -> 0
            [4, 1],  # 4 -> 1
            [4, 2],  # 4 -> 2
            [3, 5],  # 3 -> 5
        ]
    )
    adjacency = sp.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(6, 6)
    )
    rng = np.random.default_rng(0)
    features = rng.normal(size=(6, 4))
    labels = np.array([0, 0, 0, 1, 1, 0])
    return DirectedGraph(adjacency=adjacency, features=features, labels=labels, name="tiny")


@pytest.fixture(scope="session")
def homophilous_graph() -> DirectedGraph:
    """A small homophilous digraph with a planetoid-style split."""
    config = DSBMConfig(
        num_nodes=300,
        num_classes=4,
        avg_degree=4.0,
        feature_dim=16,
        homophily=0.8,
        directional_asymmetry=0.1,
        feature_signal=0.5,
        name="homophilous-test",
    )
    graph = directed_sbm(config, seed=1)
    return per_class_split(graph, train_per_class=10, num_val=60, seed=1)


@pytest.fixture(scope="session")
def heterophilous_graph() -> DirectedGraph:
    """A small heterophilous digraph with strong directional structure."""
    config = DSBMConfig(
        num_nodes=300,
        num_classes=4,
        avg_degree=6.0,
        feature_dim=16,
        homophily=0.15,
        directional_asymmetry=0.9,
        feature_signal=0.3,
        name="heterophilous-test",
    )
    graph = directed_sbm(config, seed=2)
    return ratio_split(graph, train_ratio=0.5, val_ratio=0.25, seed=2)


@pytest.fixture(scope="session")
def fast_trainer():
    """A short training configuration shared by model smoke tests."""
    from repro.training import Trainer

    return Trainer(epochs=30, patience=10)


@pytest.fixture(scope="session")
def make_engine():
    """Build an :class:`InferenceServer` by hand, with its own cache pair.

    A :class:`repro.serving.ShardRouter` hands every engine it builds the
    router's shared operator and logit caches; a test that drives one
    engine directly gives it a fresh pair of the same kinds.
    """
    from repro.serving import InferenceServer, LRUCache, OperatorCache
    from repro.serving.router import DEFAULT_LOGIT_CAPACITY

    def make(model, graph, **kwargs):
        return InferenceServer(
            model,
            graph,
            operator_cache=OperatorCache(),
            logit_cache=LRUCache(DEFAULT_LOGIT_CAPACITY),
            **kwargs,
        )

    return make
