"""The public ``repro.api`` facade: configs, Session/handle chains,
artifact round-trips and the legacy deprecation shims."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import AmudConfig, ModelHandle, ServeConfig, Session, TrainConfig, width_kwargs
from repro.api.session import decision_to_dict, train_result_to_dict
from repro.cli import main as cli_main
from repro.models import create_model
from repro.serving import ShardRouter, save_model
from repro.training import Trainer

QUICK = TrainConfig(epochs=5, patience=5)

#: a cross-section of the registry: spatial/spectral, undirected/directed,
#: the SGC no-hidden special case and the lazily-built ADPA.
ROUND_TRIP_MODELS = ["MLP", "SGC", "GCN", "GPRGNN", "DirGNN", "ADPA"]


class TestConfigs:
    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().lr = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            AmudConfig().threshold = 0.9
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServeConfig().max_wait_ms = 1.0

    def test_replace_returns_new_config(self):
        base = TrainConfig()
        quick = base.replace(epochs=3)
        assert quick.epochs == 3 and base.epochs == 200

    def test_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="lbfgs")
        with pytest.raises(KeyError):
            AmudConfig(directed_model="NotAModel")
        with pytest.raises(ValueError, match="NaN"):
            AmudConfig(threshold=float("nan"))
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="router_max_pending"):
            ServeConfig(router_max_pending=0)

    def test_train_config_round_trips_through_trainer(self):
        config = TrainConfig(lr=0.05, epochs=17, patience=4, optimizer="sgd")
        assert TrainConfig.from_trainer(config.build_trainer()) == config

    def test_serve_config_kwargs_cover_engine_and_router(self):
        config = ServeConfig(max_wait_ms=1.0, router_max_pending=4)
        assert config.router_kwargs() == {"max_pending": 4, "max_wait_ms": 1.0}
        router = ShardRouter(**config.router_kwargs())
        assert router.max_pending == 4
        # The router hands the window on to every engine it builds.
        graph = Session().load("texas").graph
        router.add_shard(create_model("MLP", graph, seed=0, hidden=8), graph)
        assert router.shards()[0].engine.max_wait_seconds == 1.0 / 1000.0

    def test_width_kwargs_sgc_special_case(self):
        assert width_kwargs("SGC", 64) == {}
        assert width_kwargs("MLP", 64) == {"hidden": 64}

    def test_configs_json_serialisable(self):
        for config in (TrainConfig(), AmudConfig(), ServeConfig()):
            assert json.loads(json.dumps(config.as_dict())) == config.as_dict()


class TestSessionChain:
    def test_load_amud_fit_follows_guidance(self):
        guided = Session(train=QUICK).load("texas").amud()
        assert guided.decision is not None and guided.decision.keep_directed
        model = guided.fit()
        assert model.model_name == "ADPA"
        assert model.decision is guided.decision
        assert 0.0 <= model.test_accuracy <= 1.0

    def test_fit_without_amud_runs_guidance_implicitly(self):
        model = Session(train=QUICK).load("texas").fit()
        assert model.decision is not None
        assert model.model_name == "ADPA"

    def test_explicit_model_skips_guidance(self):
        model = Session(train=QUICK).load("texas").fit("MLP", hidden=8)
        assert model.model_name == "MLP"
        assert model.decision is None

    def test_fit_unknown_model_fails_fast(self):
        handle = Session(train=QUICK).load("texas")
        with pytest.raises(KeyError, match="NotAModel"):
            handle.fit("NotAModel")

    def test_undirected_view_symmetrises(self):
        handle = Session().load("texas")
        undirected = handle.undirected()
        adjacency = undirected.graph.adjacency
        assert (adjacency != adjacency.T).nnz == 0

    def test_amud_config_overrides_paradigm_models(self):
        config = AmudConfig(directed_model="DirGNN", undirected_model="SGC")
        model = Session(train=QUICK, amud=config).load("texas").fit(hidden=8)
        assert model.model_name == "DirGNN"

    def test_amud_call_config_carries_through_to_fit(self):
        # A config passed to amud() must drive the subsequent fit() too,
        # not silently fall back to the session default (ADPA).
        config = AmudConfig(directed_model="DirGNN", undirected_model="SGC")
        model = Session(train=QUICK).load("texas").amud(config).fit(hidden=8)
        assert model.model_name == "DirGNN"

    def test_trainer_instance_accepted_for_legacy_call_sites(self):
        model = Session().load("texas").fit("MLP", train=Trainer(epochs=2, patience=2), hidden=8)
        assert model.train_result.epochs_run <= 2

    def test_from_graph_wraps_custom_data(self):
        graph = Session().load("cornell").graph
        handle = Session(train=QUICK).from_graph(graph)
        assert handle.graph is graph
        assert "edge" in handle.homophily()


class TestArtifactRoundTrips:
    @pytest.mark.parametrize("model_name", ROUND_TRIP_MODELS)
    def test_fit_save_restore_predict_bit_exact(self, model_name, tmp_path):
        session = Session(train=QUICK)
        model = session.load("texas").fit(model_name, **width_kwargs(model_name, 8))
        expected = model.predict()

        directory = tmp_path / model_name
        model.save(directory)
        restored = Session().restore(directory)
        assert isinstance(restored, ModelHandle)
        assert restored.model_name == model.model_name
        np.testing.assert_array_equal(restored.predict(), expected)
        np.testing.assert_array_equal(
            restored.predict_logits(), model.predict_logits()
        )

    def test_restore_recovers_decision_and_train_result(self, tmp_path):
        model = Session(train=QUICK).load("texas").amud().fit()
        model.save(tmp_path / "art")
        restored = Session().restore(tmp_path / "art")
        assert restored.decision.keep_directed == model.decision.keep_directed
        assert restored.decision.score == pytest.approx(model.decision.score)
        assert restored.train_result.test_accuracy == pytest.approx(model.test_accuracy)

    def test_restore_reads_legacy_pipeline_artifacts(self, tmp_path):
        # The AmudPipeline facade is gone, but its artifacts must stay
        # loadable: recreate the exact on-disk shape its save() wrote.
        model = Session(train=QUICK).load("texas").amud().fit()
        save_model(
            model.model,
            tmp_path / "legacy",
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
        restored = Session().restore(tmp_path / "legacy")
        np.testing.assert_array_equal(restored.predict(), model.predict())
        assert restored.decision is not None
        assert restored.decision.keep_directed == model.decision.keep_directed

    def test_serve_single_handle(self, tmp_path):
        session = Session(train=QUICK, serve=ServeConfig(router_max_pending=8))
        model = session.load("texas").fit("MLP", hidden=8)
        expected = model.predict()
        router = session.serve(model)
        # One model serves through the same router as many, under the
        # session's admission bound.
        assert len(router) == 1 and router.max_pending == 8
        with router:
            np.testing.assert_array_equal(router.predict(node_ids=[0, 1, 2]), expected[:3])


class TestCliArtifactErrors:
    def test_predict_missing_artifact_exits_2(self, tmp_path, capsys):
        assert cli_main(["predict", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "cannot load serving artifact" in err and "repro export" in err

    def test_predict_corrupt_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "artifact.json").write_text("{not json")
        assert cli_main(["predict", str(bad)]) == 2
        assert "cannot load serving artifact" in capsys.readouterr().err

    def test_predict_corrupt_weights_exits_2(self, tmp_path, capsys):
        art = tmp_path / "art"
        model = Session(train=QUICK).load("texas").fit("MLP", hidden=8)
        model.save(art)
        (art / "weights.npz").write_bytes(b"this is not an npz payload")
        assert cli_main(["predict", str(art)]) == 2
        assert "cannot load serving artifact" in capsys.readouterr().err

    def test_predict_wrong_format_version_exits_2(self, tmp_path, capsys):
        art = tmp_path / "art"
        model = Session(train=QUICK).load("texas").fit("MLP", hidden=8)
        model.save(art)
        manifest = json.loads((art / "artifact.json").read_text())
        manifest["format_version"] = 99
        (art / "artifact.json").write_text(json.dumps(manifest))
        assert cli_main(["predict", str(art)]) == 2
        assert "unsupported artifact version" in capsys.readouterr().err
