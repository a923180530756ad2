"""Serving layer: fingerprints, caches, artifacts and legacy-artifact persistence."""

import numpy as np
import pytest

from repro.models import available_models, create_model
from repro.models.mlp import MLPClassifier
from repro.nn.layers import MLP
from repro.api import Session, TrainConfig
from repro.api.session import decision_to_dict, train_result_to_dict
from repro.fingerprint import array_digest, graph_fingerprint, model_fingerprint
from repro.serving import (
    LRUCache,
    OperatorCache,
    load_artifact,
    load_artifact_graph,
    restore_model,
    save_model,
)
from repro.training import Trainer


@pytest.fixture()
def short_trainer():
    """Just enough epochs to move the weights away from initialisation."""
    return Trainer(epochs=3, patience=3)


class TestFingerprint:
    def test_copy_has_same_fingerprint(self, homophilous_graph):
        assert homophilous_graph.fingerprint() == homophilous_graph.copy().fingerprint()

    def test_name_and_meta_do_not_change_fingerprint(self, homophilous_graph):
        renamed = homophilous_graph.with_(name="other", meta={"x": 1})
        assert renamed.fingerprint() == homophilous_graph.fingerprint()

    def test_content_changes_change_fingerprint(self, homophilous_graph):
        base = homophilous_graph.fingerprint()
        perturbed = homophilous_graph.with_(features=homophilous_graph.features + 1e-9)
        assert perturbed.fingerprint() != base
        flipped = homophilous_graph.with_(train_mask=~homophilous_graph.train_mask)
        assert flipped.fingerprint() != base
        transposed = homophilous_graph.with_(adjacency=homophilous_graph.adjacency.T)
        assert transposed.fingerprint() != base

    def test_fingerprint_is_cached(self, homophilous_graph):
        assert homophilous_graph.fingerprint() is homophilous_graph.fingerprint()

    def test_array_digest_separates_shape_and_dtype(self):
        data = np.arange(24, dtype=np.float64)
        assert array_digest(data) != array_digest(data.reshape(6, 4))
        assert array_digest(data) != array_digest(data.astype(np.float32))

    def test_model_fingerprint_ignores_kwarg_order(self):
        a = model_fingerprint("ADPA", {"hidden": 64, "num_steps": 3})
        b = model_fingerprint("ADPA", {"num_steps": 3, "hidden": 64})
        assert a == b
        assert a != model_fingerprint("ADPA", {"hidden": 32, "num_steps": 3})


class TestLRUCache:
    def test_eviction_order_and_stats(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_get_or_compute_computes_once(self):
        cache = LRUCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("key", lambda: calls.append(1) or "value")
            assert value == "value"
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestOperatorCache:
    def test_preprocess_computed_once_per_model_graph(self, homophilous_graph):
        cache = OperatorCache(capacity=4)
        model = create_model("SGC", homophilous_graph, seed=0)
        first = cache.preprocess(model, homophilous_graph)
        second = cache.preprocess(model, homophilous_graph)
        assert first is second
        assert cache.stats().misses == 1 and cache.stats().hits == 1

    def test_cache_hit_still_serves_lazily_built_twin(self, heterophilous_graph):
        # Two equal-signature ADPA instances share one preprocess entry; the
        # second never runs preprocess, so forward must build its modules
        # from the cached operator set instead of raising.
        cache = OperatorCache(capacity=4)
        first = create_model("ADPA", heterophilous_graph, seed=0, hidden=16)
        twin = create_model("ADPA", heterophilous_graph, seed=0, hidden=16)
        shared = cache.preprocess(first, heterophilous_graph)
        assert cache.preprocess(twin, heterophilous_graph) is shared
        twin.eval()
        logits = twin.forward(shared)
        assert logits.numpy().shape == (
            heterophilous_graph.num_nodes, heterophilous_graph.num_classes
        )

    def test_distinct_configs_do_not_share_entries(self, homophilous_graph):
        cache = OperatorCache(capacity=4)
        small = create_model("GCN", homophilous_graph, seed=0, hidden=8)
        large = create_model("GCN", homophilous_graph, seed=0, hidden=16)
        cache.preprocess(small, homophilous_graph)
        cache.preprocess(large, homophilous_graph)
        assert len(cache) == 2

    def test_hand_constructed_models_never_collide(self, homophilous_graph):
        cache = OperatorCache(capacity=4)
        a = MLPClassifier(homophilous_graph.num_features, homophilous_graph.num_classes)
        b = MLPClassifier(homophilous_graph.num_features, homophilous_graph.num_classes)
        cache.preprocess(a, homophilous_graph)
        cache.preprocess(b, homophilous_graph)
        assert len(cache) == 2


class TestBuffers:
    def test_batchnorm_running_stats_survive_state_dict(self):
        rng = np.random.default_rng(0)
        mlp = MLP(8, 16, 4, batch_norm=True, rng=rng)
        mlp.train()
        from repro.nn.tensor import Tensor

        mlp(Tensor(rng.normal(size=(32, 8))))  # move the running statistics
        state = mlp.state_dict()
        buffer_keys = [key for key in state if "running" in key]
        assert buffer_keys, "batch-norm buffers missing from the state dict"

        fresh = MLP(8, 16, 4, batch_norm=True, rng=np.random.default_rng(1))
        fresh.load_state_dict(state)
        for name, value in fresh.named_buffers():
            np.testing.assert_array_equal(value, state[name])

    def test_unknown_keys_still_rejected(self):
        mlp = MLP(4, 8, 2, batch_norm=True)
        with pytest.raises(KeyError):
            mlp.load_state_dict({"bogus": np.zeros(3)})


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("model_name", available_models())
    def test_every_registry_model_reloads_bit_exactly(
        self, model_name, homophilous_graph, short_trainer, tmp_path
    ):
        kwargs = {"seed": 0} if model_name.lower() == "sgc" else {"seed": 0, "hidden": 16}
        model = create_model(model_name, homophilous_graph, **kwargs)
        short_trainer.fit(model, homophilous_graph)
        trained_logits = model.predict_logits(homophilous_graph)

        save_model(model, tmp_path / "artifact", graph=homophilous_graph)
        restored, cache, artifact, _ = restore_model(tmp_path / "artifact")
        restored_logits = restored.predict_logits(homophilous_graph, cache)

        assert artifact.model_name.lower() == model_name.lower()
        np.testing.assert_array_equal(trained_logits, restored_logits)

        # The equality must come from the loaded weights, not from seeding:
        # an untrained twin disagrees with the trained logits.
        fresh = artifact.build_model(homophilous_graph)
        fresh_cache = fresh.preprocess(homophilous_graph)
        fresh.eval()
        assert not np.array_equal(trained_logits, fresh.forward(fresh_cache).numpy())

    def test_shipped_graph_round_trips(self, homophilous_graph, tmp_path):
        model = create_model("SGC", homophilous_graph, seed=0)
        save_model(model, tmp_path / "art", graph=homophilous_graph)
        loaded = load_artifact_graph(tmp_path / "art")
        assert loaded.fingerprint() == homophilous_graph.fingerprint()

    def test_hand_constructed_model_requires_name(self, homophilous_graph, tmp_path):
        model = MLPClassifier(homophilous_graph.num_features, homophilous_graph.num_classes)
        with pytest.raises(ValueError, match="model_name"):
            save_model(model, tmp_path / "art")
        save_model(model, tmp_path / "named", model_name="MLP", model_kwargs={})
        assert load_artifact(tmp_path / "named").model_name == "MLP"

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "nope")

    def test_non_json_kwargs_fail_at_save_time(self, homophilous_graph, tmp_path):
        model = MLPClassifier(homophilous_graph.num_features, homophilous_graph.num_classes)
        with pytest.raises(ValueError, match="JSON"):
            save_model(
                model, tmp_path / "art",
                model_name="MLP", model_kwargs={"rng": np.random.default_rng(0)},
            )

    def test_version_mismatch_raises(self, homophilous_graph, tmp_path):
        model = create_model("MLP", homophilous_graph, seed=0)
        directory = save_model(model, tmp_path / "art")
        manifest = directory / "artifact.json"
        import json

        payload = json.loads(manifest.read_text())
        payload["format_version"] = 99
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_artifact(directory)

    def test_restored_adpa_refuses_incompatible_operator_count(
        self, heterophilous_graph, tmp_path
    ):
        model = create_model("ADPA", heterophilous_graph, seed=0, hidden=16, dp_attention="jk")
        Trainer(epochs=2, patience=2).fit(model, heterophilous_graph)
        save_model(model, tmp_path / "art", graph=heterophilous_graph)
        restored, _, _, _ = restore_model(tmp_path / "art")
        trained = restored.state_dict()
        # Weights of a 3-operator twin fit the first four projections but
        # not the fusion over seven blocks: the load must refuse all of
        # them instead of leaving a mix.
        pruned = create_model(
            "ADPA", heterophilous_graph, seed=1, hidden=16, dp_attention="jk", max_operators=3
        )
        with pytest.raises(ValueError, match="dp_attention.fuse.weight"):
            restored.load_state_dict(pruned.state_dict())
        for name, value in restored.state_dict().items():
            assert value.tobytes() == trained[name].tobytes()

    def test_restored_linkx_refuses_a_graph_of_another_size(self, tmp_path):
        session = Session(train=TrainConfig(epochs=3, patience=3))
        handle = session.load("texas").fit("LINKX", hidden=8)
        handle.save(tmp_path / "art")
        other = session.load("wisconsin").graph
        assert other.num_nodes != handle.graph.num_nodes
        # The encoder's stored shape does not fit a graph of another size.
        with pytest.raises(ValueError, match="_adjacency_encoder.weight"):
            restore_model(tmp_path / "art", other)
        restored = Session().restore(tmp_path / "art")
        trained = restored.model.state_dict()
        with pytest.raises(ValueError, match=f"{other.num_nodes}"):
            restored.predict(other)
        for name, value in restored.model.state_dict().items():
            assert value.tobytes() == trained[name].tobytes(), name
        assert restored.predict_logits().tobytes() == handle.predict_logits().tobytes()

    def test_restore_without_graph_needs_explicit_one(self, homophilous_graph, tmp_path):
        model = create_model("MLP", homophilous_graph, seed=0)
        save_model(model, tmp_path / "art")  # no graph shipped
        with pytest.raises(FileNotFoundError, match="graph"):
            restore_model(tmp_path / "art")
        restored, _, _, used = restore_model(tmp_path / "art", homophilous_graph)
        assert used is homophilous_graph
        assert restored.num_classes == homophilous_graph.num_classes


class TestLegacyPipelineArtifacts:
    """Artifacts written by the removed ``AmudPipeline.save`` stay loadable."""

    @staticmethod
    def _write_legacy_artifact(graph, directory):
        model = Session(train=TrainConfig(epochs=5, patience=5)).from_graph(graph).amud().fit()
        save_model(
            model.model,
            directory,
            metadata={
                "kind": "amud-pipeline",
                "pipeline": {
                    "undirected_model": "GPRGNN",
                    "directed_model": "ADPA",
                    "threshold": 0.5,
                    "seed": 0,
                    "model_kwargs": {},
                    "trainer": {
                        "lr": 0.01, "weight_decay": 5e-4, "epochs": 5,
                        "patience": 5, "optimizer": "adam",
                    },
                },
                "model_name": model.model_name,
                "decision": decision_to_dict(model.decision),
                "train_result": train_result_to_dict(model.train_result),
            },
            graph=model.graph,
        )
        return model

    def test_session_restore_reproduces_predictions(self, heterophilous_graph, tmp_path):
        model = self._write_legacy_artifact(heterophilous_graph, tmp_path / "pipe")
        restored = Session().restore(tmp_path / "pipe")
        np.testing.assert_array_equal(model.predict(), restored.predict())
        assert restored.model_name == model.model_name
        assert restored.decision.modeling == model.decision.modeling
        assert restored.train_result.test_accuracy == pytest.approx(model.test_accuracy)

    def test_restored_legacy_artifact_logits_bitwise(self, heterophilous_graph, tmp_path):
        model = self._write_legacy_artifact(heterophilous_graph, tmp_path / "pipe")
        restored = Session().restore(tmp_path / "pipe")
        np.testing.assert_array_equal(restored.predict_logits(), model.predict_logits())


class TestPreprocessCachedContract:
    def test_preprocess_cached_uses_shared_cache(self, homophilous_graph):
        cache = OperatorCache(capacity=4)
        model = create_model("GPRGNN", homophilous_graph, seed=0)
        twin = create_model("GPRGNN", homophilous_graph, seed=0)
        first = cache.preprocess(model, homophilous_graph)
        second = cache.preprocess(twin, homophilous_graph)
        assert first is second
        assert cache.stats().misses == 1

    def test_registry_models_have_content_signatures(self, homophilous_graph):
        one = create_model("GCN", homophilous_graph, seed=0, hidden=8)
        two = create_model("GCN", homophilous_graph, seed=0, hidden=8)
        assert one.signature() == two.signature()
