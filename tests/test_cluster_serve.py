"""Multi-process serving: front door, aggregation, crash recovery, 503s."""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import HttpConfig, Session, TrainConfig
from repro.cli import _wait_for_shutdown
from repro.cluster import serve_cluster
from repro.obs import parse_prometheus


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster-artifact")
    handle = (
        Session(train=TrainConfig(epochs=3, patience=3)).load("texas").fit("MLP")
    )
    path = handle.save(root / "texas-mlp")
    return str(path), handle.predict()


@pytest.fixture(scope="module")
def stack(artifact, tmp_path_factory):
    path, expected = artifact
    cache_dir = tmp_path_factory.mktemp("cluster-cache")
    server = serve_cluster([path], workers=2, cache_dir=str(cache_dir), port=0)
    with server:
        yield server, expected, cache_dir


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(server, path):
    status, body = request(server, "GET", path)
    return status, json.loads(body)


class TestFrontDoor:
    def test_predict_matches_in_process_and_names_its_worker(self, stack):
        server, expected, _ = stack
        status, body = request(
            server, "POST", "/predict", json.dumps({"node_ids": [0, 1, 2]})
        )
        payload = json.loads(body)
        assert status == 200
        # The single-process door's answer, plus the worker that served it.
        assert set(payload) == {
            "worker", "shard", "predictions", "latency_ms", "spans", "total_ms"
        }
        assert payload["worker"] in {"w0", "w1"}
        assert payload["shard"] == "texas"
        np.testing.assert_array_equal(payload["predictions"], expected[:3])
        assert payload["latency_ms"] > 0
        assert sum(payload["spans"].values()) == pytest.approx(
            payload["total_ms"], abs=1e-2
        )

    def test_load_balances_across_workers(self, stack):
        server, expected, _ = stack
        served = set()
        for _ in range(4):
            _, body = request(
                server, "POST", "/predict", json.dumps({"node_ids": [0]})
            )
            payload = json.loads(body)
            served.add(payload["worker"])
            # Every worker serves identical predictions — shared caches,
            # deterministic forwards.
            assert payload["predictions"] == [int(expected[0])]
        assert served == {"w0", "w1"}

    def test_health_reports_the_fleet(self, stack):
        server, _, _ = stack
        status, payload = get_json(server, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["count"] == 2
        assert set(payload["workers"]) <= {"w0", "w1"}

    def test_shards_carry_worker_ids(self, stack):
        server, _, _ = stack
        status, payload = get_json(server, "/shards")
        assert status == 200
        workers = {entry["worker"] for entry in payload["shards"]}
        assert workers == {"w0", "w1"}
        fingerprints = {entry["fingerprint"] for entry in payload["shards"]}
        assert len(fingerprints) == 1  # same artifact in every worker

    def test_unknown_shard_is_routing_404_not_overload(self, stack):
        server, _, _ = stack
        status, body = request(
            server, "POST", "/predict", json.dumps({"shard": "nope"})
        )
        assert status == 404
        assert json.loads(body)["error_type"] == "UnknownShard"

    def test_bad_body_is_400(self, stack):
        server, _, _ = stack
        status, _ = request(server, "POST", "/predict", "{nope")
        assert status == 400
        status, _ = request(
            server, "POST", "/predict", json.dumps({"node_ids": ["a"]})
        )
        assert status == 400

    def test_both_doors_answer_bad_node_ids_with_400(self, stack, artifact):
        server, _, _ = stack
        path, _ = artifact
        bodies = (
            '{"node_ids": [99999999999999999999999]}',  # overflows int64
            '{"node_ids": [-1]}',
            '{"node_ids": [100000]}',  # past texas's last node
        )
        with Session().serve_http(path, http=HttpConfig(port=0)) as single:
            for door in (single, server):
                for body in bodies:
                    status, reply = request(door, "POST", "/predict", body)
                    assert status == 400, (type(door).__name__, body, reply)

    def test_unknown_path_is_404(self, stack):
        server, _, _ = stack
        status, _ = request(server, "GET", "/nope")
        assert status == 404


class TestAggregation:
    def test_stats_nests_pool_workers_and_http(self, stack):
        server, _, _ = stack
        status, payload = get_json(server, "/stats")
        assert status == 200
        assert payload["pool"]["count"] == 2
        assert set(payload["workers"]) == {"w0", "w1"}
        for entry in payload["workers"].values():
            assert entry["router"]["submitted"] >= 0
        assert payload["http"]["requests"] >= 1

    def test_metrics_aggregate_with_worker_labels(self, stack):
        server, _, _ = stack
        # Traffic through both workers so per-worker series exist.
        for _ in range(2):
            request(server, "POST", "/predict", json.dumps({"node_ids": [0]}))
        status, body = request(server, "GET", "/metrics")
        assert status == 200
        families = parse_prometheus(body.decode())
        submitted = families["repro_cluster_worker_submitted_total"]
        worker_labels = {labels["worker"] for _, labels, _ in submitted["samples"]}
        assert worker_labels == {"w0", "w1"}
        # No shard-name collisions: both workers' texas series coexist,
        # distinguished by the worker label.
        shard_requests = families["repro_cluster_worker_shard_requests_total"]
        pairs = {
            (labels["worker"], labels["shard"])
            for _, labels, _ in shard_requests["samples"]
        }
        assert pairs == {("w0", "texas"), ("w1", "texas")}
        # Cluster-wide latency histogram merged across the fleet.
        merged = families["repro_cluster_latency_ms"]
        assert merged["type"] == "histogram"

    def test_workers_share_one_spilled_cache_dir(self, stack):
        _, _, cache_dir = stack
        assert list(cache_dir.glob("*/meta.json"))  # someone spilled on load


class TestWarmFleet:
    def test_shutdown_spill_spares_the_next_fleet_its_forward(self, artifact, tmp_path):
        path, expected = artifact
        forwards = []
        for _ in range(2):
            with serve_cluster([path], workers=1, cache_dir=str(tmp_path), port=0) as server:
                status, body = request(
                    server, "POST", "/predict", json.dumps({"node_ids": [0, 1]})
                )
                assert status == 200
                assert json.loads(body)["predictions"] == expected[:2].tolist()
                _, stats = get_json(server, "/stats")
                forwards.append(stats["workers"]["w0"]["router"]["shards"]["texas"]["forwards"])
        assert forwards == [1, 0]


class TestResilience:
    def test_crash_mid_service_drops_nothing(self, stack):
        server, expected, _ = stack
        assert server.pool.kill_worker("w0")
        for _ in range(8):
            status, body = request(
                server, "POST", "/predict", json.dumps({"node_ids": [0]})
            )
            assert status == 200
            assert json.loads(body)["predictions"] == [int(expected[0])]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and len(server.pool.healthy_workers()) < 2:
            time.sleep(0.1)
        assert len(server.pool.healthy_workers()) == 2
        assert server.pool.stats().restarts >= 1


class TestShedding:
    def test_no_healthy_worker_sheds_503(self, artifact):
        path, _ = artifact
        server = serve_cluster([path], workers=1, max_restarts=0, port=0)
        with server:
            server.pool.kill_worker("w0")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and server.pool.healthy_workers():
                time.sleep(0.05)
            status, body = request(
                server, "POST", "/predict", json.dumps({"node_ids": [0]})
            )
            assert status == 503
            assert "error" in json.loads(body)
            status, payload = get_json(server, "/health")
            assert status == 503
            assert payload["status"] == "unavailable"
            assert server.stats().shed >= 1


class TestSignalDrain:
    def test_wait_for_shutdown_names_the_signal(self):
        timer = threading.Timer(
            0.2, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            assert _wait_for_shutdown(30.0) == "SIGTERM"
        finally:
            timer.cancel()

    def test_wait_for_shutdown_times_out_quietly(self):
        assert _wait_for_shutdown(0.05) is None
