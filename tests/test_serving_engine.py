"""Inference engine behaviour and the serving CLI subcommands."""

import json
import threading

import numpy as np
import pytest

from repro.api import ServeConfig, Session
from repro.cli import main
from repro.graph import GraphDelta
from repro.models import create_model
from repro.models.base import NodeClassifier
from repro.serving import restore_model, save_model
from repro.training import Trainer


@pytest.fixture(scope="module")
def trained_export(tmp_path_factory):
    """A trained MLP artifact directory shared by the engine tests."""
    from repro.datasets import load_dataset

    graph = load_dataset("texas", seed=0)
    model = create_model("MLP", graph, seed=0, hidden=16)
    Trainer(epochs=5, patience=5).fit(model, graph)
    directory = tmp_path_factory.mktemp("artifact")
    save_model(model, directory, graph=graph)
    return directory, graph, model.predict_logits(graph).argmax(axis=1)


class GatedModel(NodeClassifier):
    """Wraps a trained model; every forward waits until ``release`` is set.

    Holding the worker inside its first forward lets a test queue requests
    behind it deterministically, and the wrapped model's own logits are the
    expected answers.
    """

    def __init__(self, inner):
        super().__init__(inner.num_features, inner.num_classes)
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def preprocess(self, graph):
        return self.inner.preprocess(graph)

    def forward(self, cache):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return self.inner.forward(cache)


def _held_server(directory, make_engine):
    """A server whose worker is parked inside its first forward."""
    model, _, _, graph = restore_model(directory)
    gated = GatedModel(model)
    server = make_engine(gated, graph)
    return server, gated, model, graph


def _served(directory, max_wait_ms=2.0):
    """An un-started one-shard router over the artifact, and its engine."""
    router = Session(serve=ServeConfig(max_wait_ms=max_wait_ms)).serve(directory)
    return router, router.shards()[0].engine


class TestInferenceServer:
    def test_coalesces_concurrent_requests(self, trained_export, make_engine):
        directory, _, _ = trained_export
        server, gated, model, graph = _held_server(directory, make_engine)
        expected = model.predict_logits(graph)
        requests = [[i % graph.num_nodes, (7 * i) % graph.num_nodes] for i in range(20)]
        with server:
            first = server.submit(node_ids=[0])
            assert gated.entered.wait(timeout=30)
            tickets = [server.submit(node_ids=ids) for ids in requests]
            gated.release.set()
            first.result(timeout=30)
            for ids, ticket in zip(requests, tickets):
                ticket.result(timeout=30)
                np.testing.assert_array_equal(ticket.logits, expected[ids])
        stats = server.stats()
        # Everything that queued during the first forward shared one batch,
        # answered from the logits that forward memoised.
        assert stats.requests == 21
        assert stats.batches == 2 and stats.forwards == 1

    def test_swap_closes_the_batch(self, trained_export, make_engine):
        directory, _, _ = trained_export
        server, gated, model, graph = _held_server(directory, make_engine)
        delta = GraphDelta(set_features={0: graph.features[0] + 1.0})
        new_graph = graph.apply_delta(delta)
        old_logits = model.predict_logits(graph)
        new_logits = model.predict_logits(new_graph)
        assert not np.array_equal(old_logits[0], new_logits[0])
        with server:
            server.submit(node_ids=[1])
            assert gated.entered.wait(timeout=30)
            requests = [[0, i] for i in range(1, 6)]
            ahead = [server.submit(node_ids=ids) for ids in requests]
            swap = server.swap_graph(delta)
            behind = [server.submit(node_ids=ids) for ids in requests]
            gated.release.set()
            assert swap.result(timeout=30).fingerprint() == new_graph.fingerprint()
            # The swap closed the batch: [held], [ahead], then [behind].
            assert server.stats().batches == 3
            # Both groups bound the old graph at submit.
            for ids, ticket in zip(requests + requests, ahead + behind):
                ticket.result(timeout=30)
                np.testing.assert_array_equal(ticket.logits, old_logits[ids])
            late = server.submit(node_ids=[0, 1])
            late.result(timeout=30)
            np.testing.assert_array_equal(late.logits, new_logits[[0, 1]])

    def test_full_graph_request(self, trained_export):
        directory, graph, expected = trained_export
        router, _ = _served(directory)
        with router:
            np.testing.assert_array_equal(router.predict(node_ids=None), expected)

    def test_serves_alternate_graph_and_groups_by_fingerprint(self, trained_export):
        directory, graph, expected = trained_export
        other = graph.with_(features=graph.features * 1.5)
        router, engine = _served(directory, max_wait_ms=5.0)
        shard = router.shards()[0].name
        with router:
            base = router.submit(node_ids=[0, 1])
            # A foreign graph routes by shard name; the engine groups the
            # batch by fingerprint.
            alt = router.submit(node_ids=[0, 1], graph=other, shard=shard)
            base.result(timeout=30)
            alt.result(timeout=30)
        # Two distinct graph fingerprints means two forwards even if the
        # requests shared one micro-batch.
        assert engine.stats().forwards == 2

    def test_bad_node_ids_fail_only_their_ticket(self, trained_export):
        directory, graph, expected = trained_export
        router, _ = _served(directory, max_wait_ms=5.0)
        with router:
            bad = router.submit(node_ids=[graph.num_nodes + 7])
            good = router.submit(node_ids=[0])
            with pytest.raises(IndexError):
                bad.result(timeout=30)
            np.testing.assert_array_equal(good.result(timeout=30), expected[[0]])

    def test_submit_requires_running_server(self, trained_export):
        directory, _, _ = trained_export
        router, engine = _served(directory)
        with pytest.raises(RuntimeError, match="not running"):
            engine.submit(node_ids=[0])
        with pytest.raises(RuntimeError, match="not running"):
            router.submit(node_ids=[0])

    def test_negative_node_ids_rejected_at_submit(self, trained_export):
        directory, _, _ = trained_export
        router, engine = _served(directory)
        rejected = {
            "non-negative": [0, -3],
            "dtype float64": [1.7, 2.9],
            "dtype bool": [True, False],
            r"shape \(2, 2\)": [[0, 1], [2, 3]],
        }
        with router:
            for match, node_ids in rejected.items():
                with pytest.raises(ValueError, match=match):
                    engine.submit(node_ids=node_ids)
                with pytest.raises(ValueError, match=match):
                    router.predict(node_ids=node_ids)
            # numpy types an empty list float64; it is still a valid request.
            assert router.predict(node_ids=[]).shape == (0,)

    def test_logit_cache_skips_forwards(self, trained_export):
        directory, _, _ = trained_export
        router, engine = _served(directory, max_wait_ms=0.0)
        loaded = engine.cache.stats()
        with router:
            for _ in range(5):
                router.predict(node_ids=[0])
        stats = engine.stats()
        assert stats.batches == 5 and stats.forwards == 1
        # The one forward read the preprocess the restore cached.
        assert loaded.misses == 1 and stats.cache.misses == loaded.misses

    def test_concurrent_clients_under_load(self, trained_export):
        directory, graph, expected = trained_export
        router, engine = _served(directory, max_wait_ms=2.0)
        errors = []

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(10):
                    ids = rng.choice(graph.num_nodes, size=4, replace=False)
                    result = router.predict(node_ids=ids, timeout=60)
                    np.testing.assert_array_equal(result, expected[ids])
            except Exception as error:  # surfaced after join
                errors.append(error)

        with router:
            threads = [threading.Thread(target=client, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert engine.stats().requests == 60


class TestServingCli:
    def test_export_predict_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "export"
        assert main([
            "export", "texas", "--model", "MLP", "--epochs", "5", "--patience", "5",
            "--out", str(artifact),
        ]) == 0
        exported = capsys.readouterr().out
        assert "artifact:" in exported

        assert main(["predict", str(artifact), "--nodes", "0", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out and "0->" in out

        assert main(["predict", str(artifact), "--json", "--nodes", "0", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "MLP"
        assert len(payload["predictions"]) == 2

        # `--nodes` with no ids is an empty request, not a crash.
        assert main(["predict", str(artifact), "--json", "--nodes"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predictions"] == []

    def test_export_pipeline_and_serve(self, tmp_path, capsys):
        artifact = tmp_path / "pipe"
        assert main([
            "export", "texas", "--epochs", "5", "--patience", "5", "--out", str(artifact),
        ]) == 0
        assert "AMUD score" in capsys.readouterr().out

        assert main(["serve", str(artifact), "--port", "0", "--for-seconds", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "serving 1 shard(s)" in out and "ADPA on texas" in out

    def test_predict_json_matches_fresh_process_semantics(self, tmp_path, capsys):
        """export then predict reproduces the in-memory predictions."""
        from repro.api import Session, TrainConfig
        from repro.datasets import load_dataset

        graph = load_dataset("texas", seed=0)
        handle = Session(train=TrainConfig(epochs=5, patience=5)).from_graph(graph).amud().fit()
        expected = handle.predict()

        artifact = tmp_path / "model"
        handle.save(artifact)
        nodes = [str(i) for i in range(graph.num_nodes)]
        assert main(["predict", str(artifact), "--json", "--nodes", *nodes]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_array_equal(np.asarray(payload["predictions"]), expected)
