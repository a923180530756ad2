"""On-disk operator/logit-cache persistence: spill/warm round trips and CLI wiring."""

import zipfile

import numpy as np
import pytest

from repro.api import Session, TrainConfig
from repro.cli import main as cli_main
from repro.graph.io import load_graph
from repro.serving import LRUCache, OperatorCache, ShardRouter
from repro.serving.artifacts import restore_model
from repro.serving.cache import SPILL_FORMAT_VERSION

QUICK = TrainConfig(epochs=4, patience=4)

#: decoupled + coupled + lazily-built architectures: Tensors, sparse
#: operators and a DirectedGraph all appear in these preprocess caches.
MODELS = [("SGC", {}), ("GCN", {"hidden": 8}), ("MagNet", {"hidden": 8}),
          ("ADPA", {"hidden": 8, "num_steps": 2})]


@pytest.fixture(scope="module")
def trained_handles():
    session = Session(train=QUICK)
    return [
        session.load("texas").fit(name, **kwargs) for name, kwargs in MODELS
    ]


class TestSpillWarm:
    def test_round_trip_preserves_predictions(self, trained_handles, tmp_path):
        cache = OperatorCache()
        for handle in trained_handles:
            cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        assert cache.spill(tmp_path) == len(trained_handles)

        warmed = OperatorCache()
        assert warmed.warm(tmp_path) == len(trained_handles)
        for handle in trained_handles:
            entry = warmed.lookup(handle.model, handle.graph)
            assert entry is not None
            np.testing.assert_array_equal(
                handle.model.predict_logits(handle.graph, entry),
                handle.predict_logits(),
            )

        # A router's spill files and an artifact's graph are stored, not
        # deflated; files in the deflated layout earlier versions wrote
        # still warm and load bit-identically.
        artifacts = [tmp_path / f"artifact-{index}" for index in range(len(trained_handles))]
        for handle, directory in zip(trained_handles, artifacts):
            handle.save(directory)

        def served_logits(router):
            logits = {}
            with router:
                for info in router.shards():
                    ticket = router.submit(shard=info.name)
                    ticket.result(timeout=60)
                    logits[info.name] = ticket.logits
            return logits

        spilling = Session().serve(*artifacts)
        expected = served_logits(spilling)
        spill = tmp_path / "router-spill"
        spilling.spill(spill)
        written = sorted(spill.glob("*.npz")) + [d / "graph.npz" for d in artifacts]
        assert len(written) == 3 * len(trained_handles)
        for path in written:
            with zipfile.ZipFile(path) as archive:
                methods = {member.compress_type for member in archive.infolist()}
            assert methods == {zipfile.ZIP_STORED}, path
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
            np.savez_compressed(path, **arrays)

        for handle, directory in zip(trained_handles, artifacts):
            graph = load_graph(directory / "graph.npz")
            assert graph.fingerprint() == handle.graph.fingerprint()
            np.testing.assert_array_equal(graph.labels, handle.graph.labels)
            np.testing.assert_array_equal(graph.train_mask, handle.graph.train_mask)
        warm = Session().serve(*artifacts, cache_dir=spill)
        served = served_logits(warm)
        assert warm.operator_cache.stats().misses == 0
        for name, shard_stats in warm.stats().shards.items():
            assert shard_stats.forwards == 0, name
            np.testing.assert_array_equal(served[name], expected[name])

    def test_spill_skips_existing_files(self, trained_handles, tmp_path):
        cache = OperatorCache()
        handle = trained_handles[0]
        cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        assert cache.spill(tmp_path) == 1
        # The content is a pure function of the key: a re-spill writes
        # nothing (and an unchanged mtime proves the file was not touched).
        path = next(tmp_path.glob("*.npz"))
        before = path.stat().st_mtime_ns
        assert cache.spill(tmp_path) == 0
        assert path.stat().st_mtime_ns == before
        assert cache.spill(tmp_path, overwrite=True) == 1
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_hand_constructed_models_are_not_spilled(self, tmp_path):
        from repro.models.mlp import MLPClassifier

        graph = Session().load("texas").graph
        model = MLPClassifier.from_graph(graph, hidden=4)  # no registry identity
        cache = OperatorCache()
        cache.seed(model, graph, model.preprocess(graph))
        assert cache.spill(tmp_path) == 0

    def test_warm_skips_corrupt_and_foreign_files(self, trained_handles, tmp_path):
        cache = OperatorCache()
        handle = trained_handles[0]
        cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(tmp_path)
        (tmp_path / "junk.npz").write_bytes(b"not an npz")
        np.savez(tmp_path / "foreign.npz", values=np.arange(3))
        warmed = OperatorCache()
        assert warmed.warm(tmp_path) == 1

    def test_warm_missing_directory_is_a_noop(self, tmp_path):
        assert OperatorCache().warm(tmp_path / "absent") == 0

    def test_warm_grows_capacity_to_fit(self, trained_handles, tmp_path):
        cache = OperatorCache()
        for handle in trained_handles:
            cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(tmp_path)
        small = OperatorCache(capacity=1)
        assert small.warm(tmp_path) == len(trained_handles)
        assert len(small) == len(trained_handles)
        assert small.stats().evictions == 0

    @pytest.mark.parametrize("step", [-1, 1], ids=["previous", "next"])
    def test_format_version_gates_reload(self, trained_handles, tmp_path, step):
        import json

        cache = OperatorCache()
        handle = trained_handles[0]
        cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(tmp_path)
        assert OperatorCache().warm(tmp_path) == 1
        path = next(tmp_path.glob("*.npz"))
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["__spill__"]))
            arrays = {k: data[k] for k in data.files if k != "__spill__"}
        meta["format_version"] = SPILL_FORMAT_VERSION + step
        np.savez(path, __spill__=np.array(json.dumps(meta)), **arrays)
        assert OperatorCache().warm(tmp_path) == 0


class TestWarmRestore:
    def test_restore_through_warmed_cache_skips_preprocess(
        self, trained_handles, tmp_path
    ):
        # Export the lazily-built ADPA handle and spill its preprocess.
        adpa = trained_handles[-1]
        artifact_dir = tmp_path / "artifact"
        adpa.save(artifact_dir)
        cache = OperatorCache()
        cache.seed(adpa.model, adpa.graph, adpa.model.preprocess(adpa.graph))
        cache.spill(tmp_path / "spill")

        warmed = OperatorCache()
        warmed.warm(tmp_path / "spill")
        model, entry, _, graph = restore_model(artifact_dir, operator_cache=warmed)
        stats = warmed.stats()
        assert stats.hits == 1 and stats.misses == 0  # no cold preprocess
        np.testing.assert_array_equal(model.predict(graph, entry), adpa.predict())

    def test_add_artifact_never_evicts_warmed_entries(self, trained_handles, tmp_path):
        # A warm directory can hold more entries than there are registered
        # shards; loading a non-spilled artifact must grow past the warmed
        # population instead of evicting entries later artifacts still need.
        spill = tmp_path / "spill"
        cache = OperatorCache()
        for handle in trained_handles:
            cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(spill)

        cold_handle = Session(train=QUICK).load("cornell").fit("MLP", hidden=8)
        cold_dir = tmp_path / "cold"
        cold_handle.save(cold_dir)

        router = ShardRouter(operator_cache=OperatorCache(capacity=len(trained_handles)))
        router.operator_cache.warm(spill)
        router.add_artifact(cold_dir)  # cold: fills one more entry
        stats = router.operator_cache.stats()
        assert stats.evictions == 0
        assert len(router.operator_cache) == len(trained_handles) + 1

    def test_router_warms_from_cache_dir(self, trained_handles, tmp_path):
        handle = trained_handles[0]
        artifact_dir = tmp_path / "artifact"
        handle.save(artifact_dir)

        # First router: cold load, then spill its operator cache.
        cold = ShardRouter()
        cold.add_artifact(artifact_dir)
        assert cold.operator_cache.spill(tmp_path / "spill") == 1

        # Second router (fresh process stand-in): warm, then load the same
        # artifact — the preprocess must be a pure cache hit.
        warm = Session().serve(artifact_dir, cache_dir=tmp_path / "spill")
        stats = warm.operator_cache.stats()
        assert stats.misses == 0 and stats.hits >= 1
        with warm:
            np.testing.assert_array_equal(
                warm.predict(node_ids=[0, 1, 2]), handle.predict()[:3]
            )

    def test_warmed_logits_skip_every_forward(self, trained_handles, tmp_path):
        artifacts = [tmp_path / f"artifact-{index}" for index in range(len(trained_handles))]
        for handle, directory in zip(trained_handles, artifacts):
            handle.save(directory)

        def full_logits(router):
            logits = {}
            for info in router.shards():
                ticket = router.submit(shard=info.name)
                ticket.result(timeout=60)
                logits[info.name] = ticket.logits
            return logits

        spilling = Session().serve(*artifacts)
        with spilling:
            expected = full_logits(spilling)
        spill = tmp_path / "spill"
        count = len(trained_handles)
        assert spilling.spill(spill) == {"operators": count, "logits": count}

        # Operator and logit files share the directory; each cache loads
        # only its own kind.
        assert len(list(spill.glob("*.npz"))) == 2 * count
        assert OperatorCache().warm(spill) == count
        assert LRUCache().warm(spill, "logits") == count

        warm = Session().serve(*artifacts, cache_dir=spill)
        with warm:
            served = full_logits(warm)
        for name, shard_stats in warm.stats().shards.items():
            assert shard_stats.forwards == 0, name
            np.testing.assert_array_equal(served[name], expected[name])


class TestServeBenchCacheDir:
    def test_cli_spills_then_warms(self, trained_handles, tmp_path, capsys):
        artifact_dir = tmp_path / "artifact"
        trained_handles[0].save(artifact_dir)
        cache_dir = tmp_path / "opcache"
        args = [
            "serve-bench", str(artifact_dir), "--requests", "8", "--clients", "2",
            "--cache-dir", str(cache_dir),
        ]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "spilled 1 preprocess entry" in first
        assert cache_dir.is_dir() and list(cache_dir.glob("*.npz"))

        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "1 preprocess entry reused at load" in second
        # The warmed logits answer every request: no preprocess, no forward.
        assert "/ 0 misses" in second.split("operator cache:")[1].splitlines()[0]
        assert "forwards: 0" in second


_RACE_SCRIPT = """
import sys

from repro.datasets import load_dataset
from repro.models.registry import create_model
from repro.serving import OperatorCache

graph = load_dataset("texas")
model = create_model("GCN", graph, hidden=8)
cache = OperatorCache()
cache.seed(model, graph, model.preprocess(graph))
for _ in range(40):
    cache.spill(sys.argv[1], overwrite=True)
"""


class TestConcurrentSpill:
    def test_two_processes_spilling_the_same_dir_never_tear_a_file(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        spill_dir = tmp_path / "shared-spill"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACE_SCRIPT, str(spill_dir)],
                env=env,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()

        # Every file in the shared dir must be a complete, loadable archive
        # — the atomic tmp-file + rename spill cannot leave torn writes.
        files = list(spill_dir.glob("*.npz"))
        assert files
        for path in files:
            with np.load(path, allow_pickle=False) as archive:
                assert archive.files
        assert OperatorCache().warm(spill_dir) == 1
