"""ShardRouter: multi-artifact routing, asyncio front door, load shedding
and weights-versioned logit caching for side-by-side hot-swapped artifacts."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.api import ServeConfig, Session, TrainConfig
from repro.datasets import load_dataset
from repro.models.base import NodeClassifier
from repro.nn import Tensor
from repro.serving import (
    ServerOverloaded,
    ShardRouter,
    UnknownShard,
)

QUICK = TrainConfig(epochs=3, patience=3)


@pytest.fixture(scope="module")
def three_artifacts(tmp_path_factory):
    """Three trained artifacts on three distinct graphs + expected outputs."""
    root = tmp_path_factory.mktemp("shards")
    session = Session(train=QUICK)
    entries = []
    for dataset in ("texas", "cornell", "wisconsin"):
        model = session.load(dataset).fit("MLP", hidden=8)
        directory = root / dataset
        model.save(directory)
        entries.append((directory, model.graph, model.predict()))
    return entries


class SlowModel(NodeClassifier):
    """Forward blocks until released — makes in-flight requests deterministic."""

    def __init__(self, num_features, num_classes):
        super().__init__(num_features, num_classes)
        self.entered = threading.Event()
        self.release = threading.Event()

    def preprocess(self, graph):
        return {"num_nodes": graph.num_nodes}

    def forward(self, cache):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return Tensor(np.zeros((cache["num_nodes"], self.num_classes)))


class TestRouting:
    def test_three_artifacts_served_through_one_front_door(self, three_artifacts):
        router = Session().serve(*[d for d, _, _ in three_artifacts])
        assert len(router) == 3
        errors = []

        def client(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(8):
                    directory, graph, expected = three_artifacts[
                        int(rng.integers(len(three_artifacts)))
                    ]
                    ids = rng.choice(graph.num_nodes, size=4, replace=False)
                    # Routed purely by fingerprinting the request's graph.
                    result = router.predict(node_ids=ids, graph=graph, timeout=60)
                    np.testing.assert_array_equal(result, expected[ids])
            except Exception as error:  # surfaced after join
                errors.append(error)

        with router:
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = router.stats()
        assert not errors
        assert stats.submitted == 48
        assert all(shard.requests > 0 for shard in stats.shards.values())

    def test_routes_by_shard_name(self, three_artifacts):
        router = ShardRouter()
        names = [router.add_artifact(d, name=g.name) for d, g, _ in three_artifacts]
        with router:
            for name, (_, _, expected) in zip(names, three_artifacts):
                np.testing.assert_array_equal(
                    router.predict(node_ids=[0, 1], shard=name), expected[[0, 1]]
                )

    def test_unknown_graph_and_shard_rejected(self, three_artifacts):
        directory, graph, _ = three_artifacts[0]
        router = Session().serve(directory)
        stranger = graph.with_(features=graph.features * 2.0)
        with router:
            with pytest.raises(UnknownShard, match="no shard serves"):
                router.submit(node_ids=[0], graph=stranger)
            with pytest.raises(UnknownShard, match="unknown shard"):
                router.submit(node_ids=[0], shard="nope")

    def test_multi_shard_requires_routing_key(self, three_artifacts):
        router = Session().serve(*[d for d, _, _ in three_artifacts])
        with router:
            with pytest.raises(UnknownShard, match="pass graph= or shard="):
                router.submit(node_ids=[0])

    def test_single_shard_routes_implicitly(self, three_artifacts):
        directory, _, expected = three_artifacts[0]
        router = Session().serve(directory)
        with router:
            np.testing.assert_array_equal(
                router.predict(node_ids=[0, 1]), expected[[0, 1]]
            )

    def test_auto_names_prefer_graph_names(self, three_artifacts):
        router = ShardRouter()
        # Unnamed shards take their graph's dataset name, the natural
        # routing key for HTTP clients.
        auto = [router.add_artifact(d) for d, _, _ in three_artifacts]
        assert auto == [g.name for _, g, _ in three_artifacts]

    def test_auto_names_skip_explicitly_taken_slots(self, three_artifacts):
        router = ShardRouter()
        first, _, _ = three_artifacts[0]
        router.add_artifact(first)  # takes the dataset name
        router.add_artifact(first, name="shard-1")
        # The dataset name is taken, so the generator kicks in; it starts
        # at shard-<count> and must walk past the explicitly taken name
        # instead of raising.
        assert router.add_artifact(first) == "shard-2"

    def test_shared_operator_cache_prewarmed(self, three_artifacts):
        router = Session().serve(*[d for d, _, _ in three_artifacts])
        # Each cold artifact restore fills the shared cache exactly once
        # (the restore itself runs through the cache and records the miss).
        loaded = router.operator_cache.stats()
        assert loaded.misses == len(three_artifacts)
        with router:
            for _, graph, _ in three_artifacts:
                router.predict(node_ids=[0], graph=graph)
            stats = router.stats()
        # Serving adds no preprocess misses: every request hits the cache.
        assert all(
            shard.cache.misses == loaded.misses for shard in stats.shards.values()
        )

    def test_operator_cache_grows_with_shard_count(self, three_artifacts):
        from repro.serving import OperatorCache

        # A router with more shards than the cache can hold would evict its
        # own per-shard preprocess entries and serve every request cold.
        router = ShardRouter(operator_cache=OperatorCache(capacity=1))
        for directory, _, _ in three_artifacts:
            router.add_artifact(directory)
        with router:
            for _, graph, _ in three_artifacts:
                router.predict(node_ids=[0], graph=graph)
            stats = router.stats()
        assert all(shard.cache.evictions == 0 for shard in stats.shards.values())


class TestAsyncFrontDoor:
    def test_asubmit_ticket_under_asyncio(self, three_artifacts):
        router = Session().serve(*[d for d, _, _ in three_artifacts])

        async def drive():
            tasks = [
                router.asubmit_ticket(node_ids=[i % graph.num_nodes], graph=graph)
                for _, graph, _ in three_artifacts
                for i in range(10)
            ]
            return await asyncio.gather(*tasks)

        with router:
            tickets = asyncio.run(drive())
        assert len(tickets) == 30
        flat = iter(tickets)
        for _, graph, expected in three_artifacts:
            for i in range(10):
                np.testing.assert_array_equal(
                    next(flat).result(timeout=0), expected[[i % graph.num_nodes]]
                )

    def test_asubmit_ticket_propagates_request_errors(self, three_artifacts):
        directory, graph, _ = three_artifacts[0]
        router = Session().serve(directory)

        async def bad_request():
            ticket = await router.asubmit_ticket(node_ids=[graph.num_nodes + 99])
            return ticket.result(timeout=0)

        with router:
            with pytest.raises(IndexError):
                asyncio.run(bad_request())

    def test_asubmit_ticket_on_a_full_router_sheds_at_once(self):
        graph = load_dataset("texas", seed=0)
        model = SlowModel(graph.num_features, graph.num_classes)
        router = ShardRouter(max_pending=2)
        router.add_shard(model, graph, name="slow")

        async def third():
            # Bounded, so a coroutine parked on a slot fails the test
            # instead of hanging it.
            return await asyncio.wait_for(
                router.asubmit_ticket(node_ids=[2], shard="slow"), 5.0
            )

        with router:
            held = [router.submit(node_ids=[i], shard="slow") for i in range(2)]
            try:
                with pytest.raises(ServerOverloaded, match="at capacity"):
                    asyncio.run(third())
                assert router.stats().rejected == 1
            finally:
                model.release.set()
            for ticket in held:
                ticket.result(timeout=30)
        assert router.stats().submitted == 2


class TestBackPressure:
    def test_router_submit_nonblocking_overload(self):
        graph = load_dataset("texas", seed=0)
        model = SlowModel(graph.num_features, graph.num_classes)
        router = ShardRouter(max_pending=2)
        router.add_shard(model, graph, name="slow")
        with router:
            first = router.submit(node_ids=[0], shard="slow")
            second = router.submit(node_ids=[1], shard="slow")
            with pytest.raises(ServerOverloaded, match="at capacity"):
                router.submit(node_ids=[2], shard="slow")
            assert router.stats().rejected == 1
            model.release.set()
            first.result(timeout=30)
            second.result(timeout=30)
            # Completed tickets released their slots: the door is open again.
            router.predict(node_ids=[0], shard="slow", timeout=30)

    def test_predict_on_a_full_router_raises_instead_of_waiting(self):
        graph = load_dataset("texas", seed=0)
        model = SlowModel(graph.num_features, graph.num_classes)
        router = ShardRouter(max_pending=1)
        router.add_shard(model, graph, name="slow")
        with router:
            held = router.submit(node_ids=[0], shard="slow")
            started = time.monotonic()
            try:
                with pytest.raises(ServerOverloaded, match="at capacity"):
                    router.predict(node_ids=[1], shard="slow", timeout=8.0)
                # Waiting for a slot would have run out the timeout first.
                assert time.monotonic() - started < 4.0
            finally:
                model.release.set()
            held.result(timeout=30)
        assert router.stats().rejected == 1

    def test_raising_done_callback_is_contained(self, capsys, make_engine):
        """A broken callback must not re-fail the ticket, skip later
        callbacks, or kill the worker (asubmit_ticket into a closed loop
        does this)."""
        graph = load_dataset("texas", seed=0)
        model = SlowModel(graph.num_features, graph.num_classes)
        server = make_engine(model, graph, max_wait_ms=0.0)
        with server:
            ticket = server.submit(node_ids=[0])
            assert model.entered.wait(timeout=30)  # in flight: callbacks queue
            seen = []
            ticket.add_done_callback(lambda t: (_ for _ in ()).throw(RuntimeError("boom")))
            ticket.add_done_callback(lambda t: seen.append(t.done()))
            model.release.set()
            result = ticket.result(timeout=30)
            # The worker survived and the ticket stayed completed.
            np.testing.assert_array_equal(
                server.submit(node_ids=[0]).result(timeout=30), result
            )
        # stop() joined the worker, so both callbacks have definitely fired.
        assert seen == [True]
        assert "boom" in capsys.readouterr().err


class TestWeightsVersionedLogitCache:
    def test_hot_swapped_artifacts_serve_side_by_side(self, tmp_path):
        """Same architecture, same graph, different weights — the shared
        logit cache must never serve one version's logits for the other."""
        session = Session(train=QUICK)
        graph = session.load("texas").graph
        v1 = session.from_graph(graph).fit("MLP", hidden=8, seed=0)
        v2 = session.from_graph(graph).fit(
            "MLP", train=TrainConfig(epochs=40, patience=40), hidden=8, seed=1
        )
        expected = {"v1": v1.predict(), "v2": v2.predict()}
        assert not np.array_equal(expected["v1"], expected["v2"])

        router = ShardRouter()
        router.add_shard(v1.model, v1.graph, name="v1")
        router.add_shard(v2.model, v2.graph, name="v2")
        with router:
            # Identical graph fingerprint on both shards: only an explicit
            # shard name can route, and each must get its own logits even
            # though both engines share one logit LRU.
            with pytest.raises(UnknownShard, match="several"):
                router.submit(node_ids=[0], graph=graph)
            for _ in range(3):  # repeats hit the cache, never cross-talk
                np.testing.assert_array_equal(
                    router.predict(shard="v1", timeout=30), expected["v1"]
                )
                np.testing.assert_array_equal(
                    router.predict(shard="v2", timeout=30), expected["v2"]
                )
            stats = router.stats()
        hits = sum(s.logit_cache.hits for s in stats.shards.values())
        assert hits > 0  # the shared cache did serve warm requests

    def test_same_weights_different_hyperparams_never_cross_talk(self):
        """Hyper-parameters outside the state dict (SGC's num_steps) change
        the forward output without changing any weight; the shared cache key
        must carry the model signature so such shards stay apart."""
        from repro.models import create_model

        graph = load_dataset("texas", seed=0)
        shallow = create_model("SGC", graph, seed=0, num_steps=1)
        deep = create_model("SGC", graph, seed=0, num_steps=8)
        expected = {"shallow": shallow.predict(graph), "deep": deep.predict(graph)}
        assert not np.array_equal(expected["shallow"], expected["deep"])

        router = ShardRouter()
        router.add_shard(shallow, graph, name="shallow")
        router.add_shard(deep, graph, name="deep")
        with router:
            for _ in range(2):  # second round is served from the cache
                np.testing.assert_array_equal(
                    router.predict(shard="shallow", timeout=30), expected["shallow"]
                )
                np.testing.assert_array_equal(
                    router.predict(shard="deep", timeout=30), expected["deep"]
                )

    def test_clear_logit_cache_revalidates_weights_version(self, tmp_path):
        session = Session(train=QUICK)
        model = session.load("texas").fit("MLP", hidden=8)
        router = session.serve(model)
        server = router.shards()[0].engine
        with router:
            before = router.predict(timeout=30)
            # Mutate weights in place — serving requires an explicit
            # clear_logit_cache() afterwards, which also rehashes the state.
            for parameter in server.model.parameters():
                parameter.data[...] = 0.0
            server.clear_logit_cache()
            after = router.predict(timeout=30)
        assert not np.array_equal(before, after) or model.graph.num_classes == 1
