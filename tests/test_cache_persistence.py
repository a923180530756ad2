"""On-disk operator/logit-cache persistence: spill/warm round trips and CLI wiring."""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session, TrainConfig
from repro.cli import main as cli_main
from repro.graph.io import load_graph
from repro.serving import LRUCache, OperatorCache, ShardRouter
from repro.serving.artifacts import restore_model
from repro.serving.cache import SPILL_FORMAT_VERSION

QUICK = TrainConfig(epochs=4, patience=4)

#: decoupled + coupled architectures, ADPA's nested step blocks among them:
#: Tensors and sparse operators appear in these preprocess caches.
MODELS = [("SGC", {}), ("GCN", {"hidden": 8}), ("MagNet", {"hidden": 8}),
          ("ADPA", {"hidden": 8, "num_steps": 2})]


def spilled_entries(directory):
    """The complete entry directories of a spill directory, sorted."""
    return sorted(
        path for path in directory.iterdir()
        if path.suffix != ".tmp" and (path / "meta.json").is_file()
    )


def assert_complete_entry(entry):
    """An entry holds its meta and one loadable ``.npy`` per array slot."""
    meta = json.loads((entry / "meta.json").read_text())
    assert meta["format_version"] == SPILL_FORMAT_VERSION
    slots = sorted(entry.glob("*.npy"))
    assert slots and [path.name for path in slots] == sorted(
        f"{index}.npy" for index in range(len(slots))
    )
    for path in slots:
        np.load(path, allow_pickle=False)


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

        # A router spills one entry directory per cache entry; an
        # artifact's graph is stored, not deflated, and a graph written
        # deflated by earlier versions still loads bit-identically.
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
        entries = spilled_entries(spill)
        assert len(entries) == 2 * len(trained_handles)
        for entry in entries:
            assert_complete_entry(entry)
        for path in [directory / "graph.npz" for directory in artifacts]:
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
        # nothing (and unchanged mtimes prove the entry was not touched).
        [entry] = spilled_entries(tmp_path)
        files = [entry, *entry.iterdir()]
        before = [path.stat().st_mtime_ns for path in files]
        assert cache.spill(tmp_path) == 0
        assert [path.stat().st_mtime_ns for path in files] == before
        # An overwrite renames a fresh entry into place and leaves no
        # staging directory behind.
        assert cache.spill(tmp_path, overwrite=True) == 1
        assert spilled_entries(tmp_path) == [entry]
        assert sorted(tmp_path.iterdir()) == [entry]
        assert OperatorCache().warm(tmp_path) == 1

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
        [entry] = spilled_entries(tmp_path)
        (tmp_path / "junk.npz").write_bytes(b"not an npz")
        np.savez(tmp_path / "foreign.npz", values=np.arange(3))
        (tmp_path / "empty").mkdir()
        (tmp_path / "garbled").mkdir()
        (tmp_path / "garbled" / "meta.json").write_text("{not json")
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / "meta.json").write_text((entry / "meta.json").read_text())
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
        cache = OperatorCache()
        handle = trained_handles[0]
        cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(tmp_path)
        assert OperatorCache().warm(tmp_path) == 1
        [entry] = spilled_entries(tmp_path)
        meta = json.loads((entry / "meta.json").read_text())
        meta["format_version"] = SPILL_FORMAT_VERSION + step
        (entry / "meta.json").write_text(json.dumps(meta))
        assert OperatorCache().warm(tmp_path) == 0


class TestMappedWarm:
    def test_warmed_arrays_are_read_only_maps_of_the_spill(self, trained_handles, tmp_path):
        from repro.nn import Tensor

        cache = OperatorCache()
        for handle in trained_handles:
            cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(tmp_path)
        warmed = OperatorCache()
        warmed.warm(tmp_path)

        def arrays(value):
            if isinstance(value, Tensor):
                yield value.data
            elif isinstance(value, np.ndarray):
                yield value
            elif hasattr(value, "indptr"):
                yield from (value.data, value.indices, value.indptr)
            elif isinstance(value, dict):
                for entry in value.values():
                    yield from arrays(entry)
            elif isinstance(value, (list, tuple)):
                for entry in value:
                    yield from arrays(entry)

        def mapped_file(array):
            base = array.base
            while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
                base = base.base
            return Path(base.filename) if isinstance(base, np.memmap) else None

        root = tmp_path.resolve()
        for handle in trained_handles:
            found = list(arrays(warmed.lookup(handle.model, handle.graph)))
            assert found
            for array in found:
                # A plain ndarray view (not the np.memmap subclass) of a
                # file mapped from the spill directory, never a copy.
                assert type(array) is np.ndarray
                assert not array.flags.writeable
                path = mapped_file(array)
                assert path is not None and root in path.parents
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_an_array_referenced_twice_is_stored_once(self, tmp_path):
        from repro.nn import Tensor

        shared = np.arange(12.0).reshape(3, 4)
        other = np.ones(5)
        cache = LRUCache()
        cache.put("Model:sig/graph", {"x": shared, "steps": [[Tensor(shared), other], (shared,)]})
        assert cache.spill(tmp_path, "operator") == 1
        [entry] = spilled_entries(tmp_path)
        assert len(list(entry.glob("*.npy"))) == 2

        warmed = LRUCache()
        assert warmed.warm(tmp_path, "operator") == 1
        value = warmed.get("Model:sig/graph")
        assert value["x"] is value["steps"][0][0].data is value["steps"][1][0]
        np.testing.assert_array_equal(value["x"], shared)
        np.testing.assert_array_equal(value["steps"][0][1], other)

    def test_overwrite_leaves_a_mapped_reader_its_bytes(self, tmp_path):
        # An overwrite renames a new entry in; it never rewrites the files
        # a warmed process has mapped.
        key = "Model:sig/graph"
        cache = LRUCache()
        cache.put(key, {"x": np.zeros(1024)})
        cache.spill(tmp_path, "operator")
        reader = LRUCache()
        assert reader.warm(tmp_path, "operator") == 1
        cache.put(key, {"x": np.ones(1024)})
        assert cache.spill(tmp_path, "operator", overwrite=True) == 1
        np.testing.assert_array_equal(reader.get(key)["x"], np.zeros(1024))
        fresh = LRUCache()
        assert fresh.warm(tmp_path, "operator") == 1
        np.testing.assert_array_equal(fresh.get(key)["x"], np.ones(1024))

    def test_undirected_adpa_spills_each_distinct_block_once(self, tmp_path):
        from repro.graph.transforms import to_undirected
        from repro.models.registry import create_model

        graph = to_undirected(Session().load("texas").graph)
        model = create_model("ADPA", graph, hidden=8, num_steps=3)
        value = model.preprocess(graph)
        cache = OperatorCache()
        cache.seed(model, graph, value)
        cache.spill(tmp_path)
        [entry] = spilled_entries(tmp_path)
        # X plus one block per hop length per step: 1 + 2 * 3, not 21.
        assert len(list(entry.glob("*.npy"))) == 7
        warmed = OperatorCache()
        warmed.warm(tmp_path)
        np.testing.assert_array_equal(
            model.predict_logits(graph, warmed.lookup(model, graph)),
            model.predict_logits(graph, value),
        )

    def test_warmed_shard_takes_a_delta_like_a_cold_one(self, trained_handles, tmp_path):
        from repro.graph import GraphDelta

        handle = trained_handles[0]  # SGC: update_preprocess patches the warmed cache
        artifact = tmp_path / "artifact"
        handle.save(artifact)
        spilling = Session().serve(artifact)
        with spilling:
            spilling.predict([0], timeout=60)
        spilling.spill(tmp_path / "spill")

        row = np.full(handle.graph.num_features, 0.5)
        delta = GraphDelta(add_edges=[[0, 7], [3, 3]], set_features={2: row})
        served = {}
        for label, cache_dir in (("cold", None), ("warm", tmp_path / "spill")):
            router = Session().serve(artifact, cache_dir=cache_dir)
            with router:
                name = router.shards()[0].name
                swap = router.update_shard(name, delta)
                assert swap.in_place, label
                ticket = router.submit(shard=name)
                ticket.result(timeout=60)
                served[label] = ticket.logits
            assert router.operator_cache.stats().misses == (label == "cold")
        np.testing.assert_array_equal(served["warm"], served["cold"])

    def test_warm_skips_a_killed_writers_staging_dir(self, trained_handles, tmp_path):
        cache = OperatorCache()
        handle = trained_handles[0]
        cache.seed(handle.model, handle.graph, handle.model.preprocess(handle.graph))
        cache.spill(tmp_path)
        [entry] = spilled_entries(tmp_path)
        # A writer killed before its rename leaves a complete-looking
        # staging directory under the entry's name plus ".tmp".
        entry.rename(tmp_path / f"{entry.name}.killed.tmp")
        assert OperatorCache().warm(tmp_path) == 0
        # The next spill writes the entry as if the leftover were absent.
        assert cache.spill(tmp_path) == 1
        assert spilled_entries(tmp_path) == [entry]
        assert OperatorCache().warm(tmp_path) == 1


class TestWarmRestore:
    def test_restore_through_warmed_cache_skips_preprocess(
        self, trained_handles, tmp_path
    ):
        # Export the ADPA handle and spill its preprocess.
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

        # Operator and logit entries share the directory; each cache loads
        # only its own kind.
        assert len(spilled_entries(spill)) == 2 * count
        assert OperatorCache().warm(spill) == count
        assert LRUCache().warm(spill, "logits") == count

        warm = Session().serve(*artifacts, cache_dir=spill)
        with warm:
            served = full_logits(warm)
        for name, shard_stats in warm.stats().shards.items():
            assert shard_stats.forwards == 0, name
            np.testing.assert_array_equal(served[name], expected[name])


class TestNodeSizedModels:
    """LINKX and A2DUG size their adjacency encoders by the graph's node count."""

    @pytest.mark.parametrize("name", ["LINKX", "A2DUG"])
    def test_serves_as_two_shards_and_from_a_spill(self, name, tmp_path):
        handle = Session(train=QUICK).load("texas").fit(name, hidden=8)
        expected = handle.predict_logits()
        artifact = tmp_path / "artifact"
        handle.save(artifact)

        def served(router):
            logits = []
            with router:
                for info in router.shards():
                    ticket = router.submit(shard=info.name)
                    ticket.result(timeout=60)
                    logits.append(ticket.logits)
            return logits

        # The second shard restores through the first one's preprocess entry.
        router = ShardRouter()
        router.add_artifact(artifact, name="first")
        router.add_artifact(artifact, name="second")
        assert router.operator_cache.stats().hits == 1
        answers = served(router)
        assert len(answers) == 2
        for logits in answers:
            assert logits.tobytes() == expected.tobytes()
        router.spill(tmp_path / "spill")

        warmed = OperatorCache()
        assert warmed.warm(tmp_path / "spill") == 1
        model, cache, _, graph = restore_model(artifact, operator_cache=warmed)
        assert warmed.stats().misses == 0
        assert model.predict_logits(graph, cache).tobytes() == expected.tobytes()
        warm = Session().serve(artifact, cache_dir=tmp_path / "spill")
        assert warm.operator_cache.stats().misses == 0
        [logits] = served(warm)
        assert logits.tobytes() == expected.tobytes()


class TestServeCacheDir:
    def test_cli_spills_then_warms(self, trained_handles, tmp_path, capsys, monkeypatch):
        import http.client
        import re

        from repro import cli

        artifact_dir = tmp_path / "artifact"
        trained_handles[0].save(artifact_dir)
        cache_dir = tmp_path / "opcache"
        shown = []

        def one_request_then_drain(for_seconds):
            # Runs while `repro serve` is up: answer one /predict, read
            # /stats, then return as if --for-seconds had elapsed.
            out = capsys.readouterr().out
            host, port = re.search(r"http://([\d.]+):(\d+)", out).groups()
            replies = []
            for method, path, body in (
                ("POST", "/predict", json.dumps({"node_ids": [0, 1, 2]})),
                ("GET", "/stats", None),
            ):
                connection = http.client.HTTPConnection(host, int(port), timeout=30)
                try:
                    connection.request(method, path, body=body)
                    response = connection.getresponse()
                    assert response.status == 200
                    replies.append(json.loads(response.read()))
                finally:
                    connection.close()
            predicted, stats = replies
            shown.append((out, predicted["predictions"], stats["shards"]["texas"]))
            return None

        monkeypatch.setattr(cli, "_wait_for_shutdown", one_request_then_drain)
        args = [
            "serve", str(artifact_dir), "--port", "0", "--for-seconds", "1",
            "--cache-dir", str(cache_dir),
        ]
        assert cli_main(args) == 0
        first = shown[-1][0] + capsys.readouterr().out
        assert "0 preprocess entries reused at load" in first
        assert "spilled 1 preprocess entry and 1 logit entry" in first
        assert shown[-1][2]["forwards"] == 1
        assert cache_dir.is_dir() and spilled_entries(cache_dir)

        assert cli_main(args) == 0
        second = shown[-1][0] + capsys.readouterr().out
        assert "1 preprocess entry reused at load" in second
        # The warmed logits answer the request: no preprocess, no forward.
        assert shown[-1][2]["cache"]["misses"] == 0
        assert shown[-1][2]["forwards"] == 0
        assert shown[-1][1] == shown[0][1]
        assert "spilled 0 preprocess entries and 0 logit entries" in second


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

        # Every entry in the shared dir must be complete and loadable, and
        # no staging directory may outlive its writer — the tmp-dir +
        # rename spill cannot leave torn writes.
        entries = spilled_entries(spill_dir)
        assert entries and sorted(spill_dir.iterdir()) == entries
        for entry in entries:
            assert_complete_entry(entry)
        assert OperatorCache().warm(spill_dir) == 1
