"""Tests for the HTTP front door: endpoints, error paths, load shedding."""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.models.registry import create_model
from repro.obs import parse_prometheus
from repro.serving import BaseHttpServer, HttpServer, ShardRouter
from repro.training import Trainer

MAX_PENDING = 8
MAX_BODY = 4096


@pytest.fixture(scope="module")
def stack():
    """A two-shard router behind a live HTTP server on an ephemeral port."""
    shards = {}
    expected = {}
    router = ShardRouter(max_pending=MAX_PENDING, max_wait_ms=0.5)
    for dataset in ("texas", "cornell"):
        graph = load_dataset(dataset, seed=0)
        model = create_model("MLP", graph, seed=0, hidden=8)
        Trainer(epochs=2, patience=5).fit(model, graph)
        router.add_shard(model, graph, name=dataset)
        shards[dataset] = graph
        expected[dataset] = model.predict_logits(graph).argmax(axis=1)
    with router, HttpServer(router, port=0, max_body_bytes=MAX_BODY) as server:
        yield server, router, expected


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(server, path):
    status, body = request(server, "GET", path)
    return status, json.loads(body)


class TestEndpoints:
    def test_health(self, stack):
        server, _, _ = stack
        status, payload = get_json(server, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["shards"] == 2
        assert payload["uptime_s"] >= 0

    def test_predict_matches_in_process_predictions(self, stack):
        server, _, expected = stack
        status, body = request(
            server, "POST", "/predict",
            json.dumps({"node_ids": [0, 1, 2], "shard": "texas"}),
        )
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"shard", "predictions", "latency_ms", "spans", "total_ms"}
        assert payload["shard"] == "texas"
        np.testing.assert_array_equal(payload["predictions"], expected["texas"][:3])
        assert payload["latency_ms"] > 0
        assert set(payload["spans"]) == {"queue", "cache", "forward", "deliver"}
        assert sum(payload["spans"].values()) == pytest.approx(
            payload["total_ms"], abs=1e-2
        )

    def test_predict_whole_graph_when_node_ids_omitted(self, stack):
        server, _, expected = stack
        status, body = request(
            server, "POST", "/predict", json.dumps({"shard": "cornell"})
        )
        payload = json.loads(body)
        assert status == 200
        np.testing.assert_array_equal(payload["predictions"], expected["cornell"])

    def test_shards_lists_engines_with_histograms(self, stack):
        server, _, _ = stack
        status, payload = get_json(server, "/shards")
        assert status == 200
        names = {shard["name"] for shard in payload["shards"]}
        assert names == {"texas", "cornell"}
        for shard in payload["shards"]:
            assert "latency" in shard["stats"]
            assert "p99_latency_ms" in shard["stats"]

    def test_stats_nests_router_and_http(self, stack):
        server, router, _ = stack
        request(server, "POST", "/predict", json.dumps({"shard": "texas"}))
        status, payload = get_json(server, "/stats")
        assert status == 200
        assert payload["max_pending"] == MAX_PENDING
        assert payload["latency"]["count"] >= 1
        assert payload["p50_latency_ms"] == payload["latency"]["p50_ms"]
        assert payload["http"]["requests"] >= 1
        assert payload["http"]["routes"]["/predict"]["200"] >= 1
        # The JSON body is exactly the snapshot plus the http section.
        assert payload["submitted"] == router.snapshot()["submitted"]

    def test_metrics_is_valid_prometheus(self, stack):
        server, _, _ = stack
        request(server, "POST", "/predict", json.dumps({"shard": "texas"}))
        status, body = request(server, "GET", "/metrics")
        assert status == 200
        families = parse_prometheus(body.decode("utf-8"))
        assert families["repro_router_submitted_total"]["type"] == "counter"
        assert families["repro_router_latency_ms"]["type"] == "histogram"
        samples = families["repro_http_requests_total"]["samples"]
        assert any(
            labels == {"route": "/predict", "status": "200"}
            for _, labels, _ in samples
        )

    def test_traces_expose_spans_with_shard(self, stack):
        server, _, _ = stack
        request(server, "POST", "/predict", json.dumps({"shard": "cornell"}))
        status, payload = get_json(server, "/traces?limit=5")
        assert status == 200
        traces = payload["traces"]
        assert 0 < len(traces) <= 5
        newest = traces[0]
        assert newest["shard"] in ("texas", "cornell")
        assert sum(newest["spans"].values()) == pytest.approx(
            newest["total_ms"], abs=1e-3
        )


class TestErrorPaths:
    def test_unknown_path_is_404(self, stack):
        server, _, _ = stack
        status, body = request(server, "GET", "/nope")
        assert status == 404
        assert "/predict" in json.loads(body)["routes"]

    def test_wrong_method_is_405(self, stack):
        server, _, _ = stack
        assert request(server, "POST", "/health")[0] == 405
        assert request(server, "GET", "/predict")[0] == 405

    def test_bad_json_is_400(self, stack):
        server, _, _ = stack
        assert request(server, "POST", "/predict", b"not json")[0] == 400
        assert request(server, "POST", "/predict", b"[1, 2]")[0] == 400

    def test_bad_node_ids_are_400(self, stack):
        server, _, _ = stack
        for payload in (
            {"node_ids": "zero", "shard": "texas"},
            {"node_ids": ["a"], "shard": "texas"},
            {"node_ids": [True], "shard": "texas"},
            {"node_ids": [10 ** 9], "shard": "texas"},
        ):
            status, _ = request(server, "POST", "/predict", json.dumps(payload))
            assert status == 400, payload

    def test_unknown_shard_is_404(self, stack):
        server, _, _ = stack
        status, body = request(
            server, "POST", "/predict", json.dumps({"shard": "nope"})
        )
        assert status == 404
        assert "nope" in json.loads(body)["error"]

    def test_ambiguous_routing_is_404_with_diagnostics(self, stack):
        server, _, _ = stack
        # Two shards and no shard= — the router's routing error surfaces.
        status, body = request(server, "POST", "/predict", json.dumps({}))
        assert status == 404
        assert "shard" in json.loads(body)["error"]

    def test_oversized_body_is_413(self, stack):
        server, _, _ = stack
        status, _ = request(server, "POST", "/predict", b"x" * (MAX_BODY + 1))
        assert status == 413

    def test_bad_traces_limit_is_400(self, stack):
        server, _, _ = stack
        assert request(server, "GET", "/traces?limit=zzz")[0] == 400

    def test_malformed_request_line_is_400(self, stack):
        import socket

        server, _, _ = stack
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")


class TestLoadShedding:
    def test_saturated_router_sheds_with_429(self, stack):
        server, router, _ = stack
        before = server.stats().shed
        # Drain every back-pressure slot so the next request cannot queue.
        for _ in range(MAX_PENDING):
            assert router._slots.acquire(blocking=False)
        try:
            status, body = request(
                server, "POST", "/predict", json.dumps({"shard": "texas"})
            )
        finally:
            for _ in range(MAX_PENDING):
                router._slots.release()
        assert status == 429
        assert json.loads(body)["max_pending"] == MAX_PENDING
        assert server.stats().shed == before + 1
        # Capacity restored: the same request succeeds now.
        status, _ = request(
            server, "POST", "/predict", json.dumps({"shard": "texas"})
        )
        assert status == 200

    def test_keep_alive_flood_sheds_only_with_429(self):
        """32 keep-alive clients against 4 slots: every answer is 200 or 429."""
        graph = load_dataset("texas", seed=0)
        model = create_model("MLP", graph, seed=0, hidden=8)
        expected = model.predict_logits(graph).argmax(axis=1)
        # A 20 ms window keeps each admitted request in its slot while the
        # rest of the flood arrives, so the pool of 4 must shed.
        router = ShardRouter(max_pending=4, max_wait_ms=20.0)
        router.add_shard(model, graph, name="texas")
        clients, per_client = 32, 4
        statuses, wrong = [], []
        start = threading.Barrier(clients)

        def client(seed: int) -> None:
            ids = [seed % graph.num_nodes, (7 * seed) % graph.num_nodes]
            connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                start.wait(timeout=30)
                for _ in range(per_client):
                    connection.request("POST", "/predict", json.dumps({"node_ids": ids}))
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    statuses.append(response.status)
                    if response.status == 200 and payload["predictions"] != expected[ids].tolist():
                        wrong.append(payload)
            finally:
                connection.close()

        with router, HttpServer(router, port=0) as server:
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            _, snapshot = get_json(server, "/stats")
            connections = server.stats().connections
        ok, shed = statuses.count(200), statuses.count(429)
        assert ok + shed == len(statuses) == clients * per_client
        assert ok > 0 and shed > 0 and not wrong
        assert snapshot["http"]["shed"] == shed
        assert snapshot["rejected"] == shed
        # Keep-alive held: one connection per client plus the /stats read.
        assert connections == clients + 1


class TestKeepAlive:
    def test_many_requests_share_one_connection(self, stack):
        server, _, _ = stack
        before = server.stats().connections
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for _ in range(5):
                connection.request(
                    "POST", "/predict", json.dumps({"shard": "texas"})
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
        assert server.stats().connections == before + 1

    def test_connection_close_is_honoured(self, stack):
        server, _, _ = stack
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("GET", "/health", headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()


class TestSessionAndCli:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        from repro.api import Session, TrainConfig

        session = Session(train=TrainConfig(epochs=2, patience=5))
        handle = session.load("texas").fit("MLP", hidden=8)
        directory = tmp_path_factory.mktemp("http-artifact") / "model"
        handle.save(directory)
        return directory

    def test_session_serve_http_owns_both_lifecycles(self, artifact):
        from repro.api import HttpConfig, Session

        server = Session().serve_http(artifact, http=HttpConfig(port=0))
        with server:
            assert server.router._running
            status, payload = get_json(server, "/health")
            assert status == 200 and payload["shards"] == 1
            status, body = request(
                server, "POST", "/predict", json.dumps({"node_ids": [0]})
            )
            assert status == 200
            # Artifact-served shards are addressable by dataset name.
            status, _ = request(
                server, "POST", "/predict",
                json.dumps({"node_ids": [0], "shard": "texas"}),
            )
            assert status == 200
        assert not server.router._running

    def test_predict_burst_runs_on_no_submit_thread_pool(self, artifact):
        """The door submits on its event loop: a burst of concurrent
        /predict requests starts no router submit thread, during the burst
        or after it."""
        from repro.api import HttpConfig, Session

        def submit_threads():
            return [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("shard-router-submit")
            ]

        server = Session().serve_http(artifact, http=HttpConfig(port=0))
        clients, per_client = 8, 5
        statuses, seen = [], []
        start = threading.Barrier(clients)

        def client(seed: int) -> None:
            connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                start.wait(timeout=30)
                for index in range(per_client):
                    body = json.dumps({"node_ids": [seed, index]})
                    connection.request("POST", "/predict", body)
                    response = connection.getresponse()
                    response.read()
                    statuses.append(response.status)
                    seen.extend(submit_threads())
            finally:
                connection.close()

        with server:
            threads = [threading.Thread(target=client, args=(seed,)) for seed in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            seen.extend(submit_threads())
        assert statuses == [200] * (clients * per_client)
        assert seen == [] and submit_threads() == []

    def test_http_server_stops_the_router_it_started(self):
        graph = load_dataset("texas", seed=0)
        router = ShardRouter()
        router.add_shard(create_model("MLP", graph, seed=0, hidden=8), graph)
        engine = router.shards()[0].engine
        server = HttpServer(router, port=0)
        with server:
            assert router._running and engine._running
            status, _ = request(server, "POST", "/predict", json.dumps({"node_ids": [0]}))
            assert status == 200
        assert not router._running and not engine._running
        # A door that cannot bind leaves its router stopped too.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            blocked = HttpServer(router, port=taken.getsockname()[1])
            with pytest.raises(OSError):
                blocked.start()
        assert not router._running and not engine._running

    def test_serve_config_carries_http_settings(self, artifact):
        from repro.api import HttpConfig, ServeConfig, Session

        # The session's ServeConfig reaches the router; http= reaches the
        # front door.
        session = Session(serve=ServeConfig(router_max_pending=8))
        server = session.serve_http(artifact, http=HttpConfig(port=0, max_body_bytes=512))
        assert server.max_body_bytes == 512
        assert server.router.max_pending == 8
        with server:
            assert request(server, "POST", "/predict", b"x" * 513)[0] == 413

    def test_cli_serve_for_seconds_smoke(self, artifact, capsys):
        from repro.cli import main

        assert main(
            ["serve", str(artifact), "--port", "0", "--for-seconds", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving 1 shard(s) at http://127.0.0.1:" in out
        assert "/metrics" in out

    def test_cli_serve_missing_artifact_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["serve", str(tmp_path / "absent"), "--for-seconds", "0.1"]) == 2


class _SlowServer(BaseHttpServer):
    """Minimal BaseHttpServer subclass with one deliberately slow route."""

    def _handlers(self):
        return {"/slow": ("GET", self._handle_slow)}

    async def _handle_slow(self, *, query: str, body: bytes):
        await asyncio.sleep(0.5)
        return 200, {"ok": True}


class TestDrain:
    def test_stop_drains_in_flight_requests(self):
        server = _SlowServer(port=0, drain_timeout=5.0)
        results = {}

        def slow_client() -> None:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                connection.request("GET", "/slow")
                response = connection.getresponse()
                results["status"] = response.status
                results["body"] = json.loads(response.read())
            except Exception as error:  # surfaced by the assert below
                results["error"] = error
            finally:
                connection.close()

        with server:
            thread = threading.Thread(target=slow_client)
            thread.start()
            time.sleep(0.15)  # the handler is now mid-sleep
            server.stop()  # must wait for the response, not cancel it
            thread.join(timeout=10)
        assert results.get("error") is None, results
        assert results["status"] == 200
        assert results["body"] == {"ok": True}

    def test_drain_timeout_bounds_the_wait(self):
        # A handler that overstays the drain window is cancelled rather
        # than holding shutdown hostage.
        server = _SlowServer(port=0, drain_timeout=0.05)

        def hung_client() -> None:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                connection.request("GET", "/slow")
                connection.getresponse().read()
            except Exception:
                pass  # the connection dying is the expected outcome
            finally:
                connection.close()

        with server:
            thread = threading.Thread(target=hung_client)
            thread.start()
            time.sleep(0.15)
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
            thread.join(timeout=10)
        assert elapsed < 2.0  # bounded by drain_timeout, not the handler

    def test_503_has_a_reason_phrase(self):
        from repro.serving.http import _REASONS

        assert _REASONS[503] == "Service Unavailable"
