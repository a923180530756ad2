"""Live graph updates through the serving stack, and the exception fan-out fix."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graph import DirectedGraph, GraphDelta, from_edge_list
from repro.models.base import NodeClassifier
from repro.models.mlp import MLPClassifier
from repro.models.sgc import SGC
from repro.serving import (
    GraphSwapTicket,
    LRUCache,
    OperatorCache,
    ShardRouter,
    UnknownShard,
)


def build_graph(seed: int = 0, n: int = 90, name: str = "live") -> DirectedGraph:
    rng = np.random.default_rng(seed)
    return from_edge_list(
        rng.integers(0, n, size=(5 * n, 2)),
        n,
        rng.normal(size=(n, 8)),
        rng.integers(0, 3, size=n),
        train_mask=rng.random(n) < 0.5,
        val_mask=rng.random(n) < 0.25,
        test_mask=rng.random(n) < 0.25,
        name=name,
    )


class TestLRUDiscard:
    def test_discard_and_discard_where(self):
        cache = LRUCache(capacity=8)
        for index in range(4):
            cache.put(f"key-{index}", index)
        assert cache.discard("key-1") is True
        assert cache.discard("key-1") is False
        assert cache.discard_where(lambda key: key.endswith(("2", "3"))) == 2
        assert len(cache) == 1 and "key-0" in cache

    def test_operator_cache_invalidate_graph_is_surgical(self):
        cache = OperatorCache()
        graph_a, graph_b = build_graph(1), build_graph(2)
        model = MLPClassifier(8, 3)
        cache.preprocess(model, graph_a)
        cache.preprocess(model, graph_b)
        assert cache.invalidate_graph(graph_a.fingerprint()) == 1
        assert cache.lookup(model, graph_b) is not None
        assert cache.lookup(model, graph_a) is None


class TestSwapGraph:
    def test_running_swap_matches_fresh_server(self, make_engine):
        graph = build_graph(5)
        delta = GraphDelta(
            add_edges=[[0, 7], [3, 1]], set_features={2: np.ones(8)}
        )
        mutated = graph.apply_delta(delta, validate=True)
        model = SGC(8, 3, num_steps=2)
        server = make_engine(model, graph, max_wait_ms=0.5)
        server.cache.preprocess(model, graph)
        with server:
            before = server.submit().result(timeout=10)
            swap = server.swap_graph(delta)
            swap.result(timeout=10)
            after = server.submit().result(timeout=10)
        assert swap.in_place is True  # SGC patches its propagation in place
        assert swap.old_fingerprint == graph.fingerprint()
        assert swap.new_fingerprint == mutated.fingerprint()
        reference = make_engine(SGC(8, 3, num_steps=2), mutated, max_wait_ms=0.5)
        reference.cache.preprocess(reference.model, mutated)
        with reference:
            expected = reference.submit().result(timeout=10)
        assert np.array_equal(after, expected)
        assert before.shape == after.shape

    def test_swap_invalidates_only_old_fingerprint(self, make_engine):
        graph = build_graph(6)
        other = build_graph(7, name="other")
        model = MLPClassifier(8, 3)
        server = make_engine(model, graph, max_wait_ms=0.5)
        server.cache.preprocess(model, graph)
        server.cache.preprocess(model, other)
        with server:
            server.submit([0, 1]).result(timeout=10)
            server.submit([0], graph=other).result(timeout=10)
            swap = server.swap_graph(GraphDelta(set_labels={0: 1}))
            swap.result(timeout=10)
        assert swap.invalidated["operator"] == 1
        assert swap.invalidated["logits"] == 1
        # The untouched graph and the freshly-warmed successor both survive.
        assert server.cache.lookup(model, other) is not None
        assert server.cache.lookup(model, server.graph) is not None
        assert server.cache.lookup(model, graph) is None

    def test_inline_swap_on_stopped_server(self, make_engine):
        graph = build_graph(8)
        server = make_engine(MLPClassifier(8, 3), graph)
        swap = server.swap_graph(GraphDelta(add_edges=[[1, 2]]))
        assert swap.done()
        assert server.graph.fingerprint() == swap.new_fingerprint
        assert isinstance(swap, GraphSwapTicket)

    def test_empty_delta_keeps_cache_entry(self, make_engine):
        graph = build_graph(9)
        model = MLPClassifier(8, 3)
        server = make_engine(model, graph)
        server.cache.preprocess(model, graph)
        swap = server.swap_graph(GraphDelta())
        assert swap.new_fingerprint == swap.old_fingerprint
        assert swap.invalidated == {}
        assert server.cache.lookup(model, server.graph) is not None

    def test_stop_fails_pending_swap(self, make_engine):
        graph = build_graph(10)
        server = make_engine(MLPClassifier(8, 3), graph)
        server.start()
        server.stop()
        # A swap sneaking in after stop applies inline (not running).
        swap = server.swap_graph(GraphDelta(add_edges=[[0, 1]]))
        assert swap.done() and swap.result(1) is server.graph

    def test_failing_delta_resolves_ticket(self, make_engine):
        graph = build_graph(11)
        server = make_engine(MLPClassifier(8, 3), graph)
        with server:
            swap = server.swap_graph(GraphDelta(add_edges=[[0, 10_000]]))
            with pytest.raises(ValueError, match="out of range"):
                swap.result(timeout=10)
            # Server keeps serving after a rejected delta.
            assert server.submit([0]).result(timeout=10).shape == (1,)


class TestExceptionFanOut:
    def test_each_ticket_gets_its_own_exception(self, make_engine):
        class ExplodingModel(NodeClassifier):
            def __init__(self):
                super().__init__(num_features=8, num_classes=3)

            def preprocess(self, graph):
                raise RuntimeError("preprocess exploded")

            def forward(self, cache):  # pragma: no cover - never reached
                raise AssertionError

        graph = build_graph(12)
        server = make_engine(ExplodingModel(), graph, max_wait_ms=20.0)
        with server:
            first = server.submit([0])
            second = server.submit([1])
            errors = []
            for ticket in (first, second):
                try:
                    ticket.result(timeout=10)
                except RuntimeError as error:
                    errors.append(error)
        assert len(errors) == 2
        assert errors[0] is not errors[1]  # no shared-traceback race
        cause = errors[0].__cause__
        assert cause is not None and cause is errors[1].__cause__
        assert "preprocess exploded" in str(errors[0])


class TestRouterUpdateShard:
    def test_untouched_shard_cache_survives(self):
        graph_a = build_graph(13, name="alpha")
        graph_b = build_graph(14, name="beta")
        model_a = SGC(8, 3, num_steps=2)
        model_b = SGC(8, 3, num_steps=2)
        router = ShardRouter(max_wait_ms=0.5)
        router.add_shard(model_a, graph_a)
        router.add_shard(model_b, graph_b)
        with router:
            router.predict([0], shard="alpha", timeout=10)
            router.predict([0], shard="beta", timeout=10)
            swap = router.update_shard("alpha", GraphDelta(add_edges=[[0, 2]]))
            assert swap.invalidated["operator"] == 1
            # beta's preprocess entry is untouched by alpha's update.
            assert router.operator_cache.lookup(model_b, graph_b) is not None
            assert router.operator_cache.lookup(model_a, graph_a) is None
            # Fingerprint routing follows the mutated graph.
            new_graph = swap.result(1)
            assert router.resolve(graph=new_graph).name == "alpha"
            with pytest.raises(UnknownShard):
                router.resolve(graph=graph_a)

    def test_unknown_shard_raises(self):
        router = ShardRouter()
        with pytest.raises(UnknownShard):
            router.update_shard("missing", GraphDelta())

    def test_zero_errors_under_concurrent_writer(self):
        """Satellite: the router serves 0 errors while a writer mutates."""
        graph = build_graph(15, n=150, name="churn")
        model = SGC(8, 3, num_steps=2)
        router = ShardRouter(max_wait_ms=0.5)
        router.add_shard(model, graph)
        request_errors = []
        swap_records = []

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(40):
                ids = rng.choice(150, size=8, replace=False)
                try:
                    router.submit(node_ids=ids, shard="churn").result(timeout=30)
                except Exception as error:  # pragma: no cover - the assertion
                    request_errors.append(error)

        def writer() -> None:
            rng = np.random.default_rng(99)
            for index in range(15):
                u, v = int(rng.integers(150)), int(rng.integers(150))
                delta = (
                    GraphDelta(add_edges=[[u, v]])
                    if index % 2 == 0
                    else GraphDelta(remove_edges=[[u, v]])
                )
                swap_records.append(router.update_shard("churn", delta, timeout=30))

        with router:
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(3)]
            writer_thread = threading.Thread(target=writer)
            for thread in threads:
                thread.start()
            writer_thread.start()
            for thread in threads:
                thread.join()
            writer_thread.join()

        assert request_errors == []
        assert len(swap_records) == 15
        # Every topology-changing swap patched the SGC cache in place.
        changed = [swap for swap in swap_records if swap.new_fingerprint != swap.old_fingerprint]
        assert changed and all(swap.in_place for swap in changed)
        # The router's route table tracks the final fingerprint.
        final = router.shards()[0]
        assert final.fingerprint == final.engine.graph.fingerprint()
