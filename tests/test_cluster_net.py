"""Transports, the HMAC handshake, and connect-back worker registration."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import (
    CONNECT_PLACEHOLDER,
    PROTOCOL_VERSION,
    HandshakeError,
    ProtocolError,
    TcpTransport,
    TransportClosed,
    WorkerListener,
    WorkerPool,
    decode_message,
    encode_message,
    parse_hostport,
    read_secret,
    ssh_worker_command,
    worker_connect_command,
)
from repro.cluster.net import client_handshake, server_handshake
from repro.cluster.protocol import PREVIEW_BYTES

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _secret_file(tmp_path, secret: str = "s3cret") -> str:
    path = tmp_path / "secret"
    path.write_text(secret + "\n")
    return str(path)


def _wait_healthy(pool: WorkerPool, count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(pool.healthy_workers()) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"pool never reached {count} healthy workers; have {pool.healthy_workers()}"
    )


class TestDecodeDiagnostics:
    """ProtocolError must be debuggable from the message text alone."""

    def test_garbage_line_is_previewed_with_length(self):
        with pytest.raises(ProtocolError, match="not valid JSON") as exc_info:
            decode_message(b"GET / HTTP/1.1\r\n")
        message = str(exc_info.value)
        assert "16-byte line" in message
        assert "GET / HTTP/1.1" in message

    def test_long_line_preview_is_truncated(self):
        line = b"x" * 5000
        with pytest.raises(ProtocolError, match="not valid JSON") as exc_info:
            decode_message(line)
        message = str(exc_info.value)
        assert "5000-byte line" in message
        assert f"+{5000 - PREVIEW_BYTES} more bytes" in message
        # The preview itself stays bounded: the repr of 200 bytes plus the
        # framing, never the whole 5000-byte payload.
        assert len(message) < 5000

    def test_version_mismatch_carries_the_offending_line(self):
        line = encode_message({"v": PROTOCOL_VERSION})[:-1].replace(
            str(PROTOCOL_VERSION).encode(), b"99"
        ) + b"\n"
        with pytest.raises(ProtocolError, match="version mismatch") as exc_info:
            decode_message(line)
        assert "99" in str(exc_info.value)

    def test_non_object_names_the_type_and_line(self):
        with pytest.raises(ProtocolError, match="must be a JSON object") as exc_info:
            decode_message(b"[1, 2, 3]\n")
        assert "[1, 2, 3]" in str(exc_info.value)


class TestParsing:
    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_hostport("host.example:0") == ("host.example", 0)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_hostport("no-port")
        with pytest.raises(ValueError, match="integer port"):
            parse_hostport("host:abc")
        with pytest.raises(ValueError, match="out of range"):
            parse_hostport("host:70000")

    def test_read_secret_strips_and_rejects_empty(self, tmp_path):
        path = tmp_path / "secret"
        path.write_text("  hunter2  \n")
        assert read_secret(path) == "hunter2"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            read_secret(path)

    def test_worker_connect_command_shape(self):
        argv = worker_connect_command(
            CONNECT_PLACEHOLDER, "/etc/secret", worker_id="w7", reconnect=2
        )
        assert argv[:3] == [sys.executable, "-m", "repro.cluster.worker"]
        assert argv[argv.index("--connect") + 1] == CONNECT_PLACEHOLDER
        assert argv[argv.index("--secret-file") + 1] == "/etc/secret"
        assert argv[argv.index("--worker-id") + 1] == "w7"
        assert argv[argv.index("--reconnect") + 1] == "2"

    def test_ssh_worker_command_wraps_the_connect_command(self):
        argv = ssh_worker_command("gpu-box", "10.0.0.1:9000", "/etc/secret")
        assert argv[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert argv[3] == "gpu-box"
        assert "--connect" in argv and "10.0.0.1:9000" in argv
        # Secrets ride in files, never argv.
        assert all("s3cret" not in part for part in argv)


class TestHandshake:
    """Mutual HMAC verification over a socketpair, before any op."""

    def _pair(self):
        return socket.socketpair()

    def test_matching_secret_succeeds_both_ways(self):
        pool_sock, worker_sock = self._pair()
        results: dict = {}

        def worker_side():
            results["reader"] = client_handshake(
                worker_sock, "topsecret", worker_id="w0", host="hostA", pid=4242
            )

        thread = threading.Thread(target=worker_side)
        thread.start()
        reader, info = server_handshake(pool_sock, "topsecret")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert info == {"worker_id": "w0", "host": "hostA", "pid": 4242}
        assert "reader" in results
        pool_sock.close()
        worker_sock.close()

    def test_wrong_secret_is_rejected_before_any_op(self):
        pool_sock, worker_sock = self._pair()
        worker_error: list = []

        def worker_side():
            try:
                client_handshake(
                    worker_sock, "wrong", worker_id="w0", host="h", pid=1
                )
            except ProtocolError as error:
                worker_error.append(error)

        thread = threading.Thread(target=worker_side)
        thread.start()
        with pytest.raises(HandshakeError, match="HMAC"):
            server_handshake(pool_sock, "right")
        pool_sock.close()
        thread.join(timeout=10)
        worker_sock.close()
        assert worker_error  # the worker saw the rejection too

    def test_wrong_protocol_version_is_rejected_loudly(self):
        pool_sock, worker_sock = self._pair()

        def impostor_side():
            # An old worker binary: speaks v999 frames.
            worker_sock.recv(65536)  # the challenge
            worker_sock.sendall(b'{"v": 999, "hello": "repro-cluster-worker"}\n')

        thread = threading.Thread(target=impostor_side)
        thread.start()
        with pytest.raises(HandshakeError, match="version mismatch"):
            server_handshake(pool_sock, "topsecret")
        thread.join(timeout=10)
        pool_sock.close()
        worker_sock.close()

    def test_worker_refuses_an_impostor_pool(self):
        pool_sock, worker_sock = self._pair()

        def impostor_pool():
            pool_sock.sendall(
                encode_message(
                    {"v": PROTOCOL_VERSION, "hello": "repro-cluster-pool", "nonce": "ab"}
                )
            )
            pool_sock.recv(65536)  # the worker's reply
            # Answer with a bogus counter-HMAC: we never knew the secret.
            pool_sock.sendall(
                encode_message(
                    {
                        "v": PROTOCOL_VERSION,
                        "ok": True,
                        "hello": "repro-cluster-pool",
                        "hmac": "deadbeef",
                    }
                )
            )

        thread = threading.Thread(target=impostor_pool)
        thread.start()
        with pytest.raises(HandshakeError, match="prove the shared secret"):
            client_handshake(
                worker_sock, "topsecret", worker_id="w0", host="h", pid=1
            )
        thread.join(timeout=10)
        pool_sock.close()
        worker_sock.close()


class TestTcpTransport:
    def _connected_transport(self):
        pool_sock, worker_sock = socket.socketpair()
        transport = TcpTransport(
            pool_sock, pool_sock.makefile("rb"), info={"pid": 7, "host": "h"}, peer="p"
        )
        return transport, worker_sock

    def test_frames_round_trip(self):
        transport, peer = self._connected_transport()
        transport.write(encode_message({"v": PROTOCOL_VERSION, "id": 1, "op": "ping"}))
        assert b'"op":"ping"' in peer.recv(65536)
        peer.sendall(encode_message({"v": PROTOCOL_VERSION, "id": 1, "ok": True}))
        assert decode_message(transport.readline())["id"] == 1
        transport.close()
        peer.close()

    def test_close_unblocks_reader_and_fails_writes(self):
        transport, peer = self._connected_transport()
        lines: list = []
        reader = threading.Thread(target=lambda: lines.append(transport.readline()))
        reader.start()
        time.sleep(0.1)
        transport.close()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert lines == [b""]  # EOF = the death signal
        with pytest.raises(TransportClosed):
            transport.write(b"late\n")
        assert transport.is_open() is False
        assert transport.wait_closed(1.0) is True
        peer.close()

    def test_write_timeout_fails_instead_of_wedging(self):
        pool_sock, worker_sock = socket.socketpair()
        # Shrink both kernel buffers so a non-draining peer backs up fast.
        pool_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        worker_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        transport = TcpTransport(pool_sock, pool_sock.makefile("rb"), peer="stuck")
        chunk = b"x" * 65536
        with pytest.raises(TransportClosed, match="stalled"):
            for _ in range(64):  # never drained: must fail within ~seconds
                transport.write(chunk, timeout=0.2)
        transport.close()
        worker_sock.close()

    def test_describe_carries_registration_info(self):
        transport, peer = self._connected_transport()
        entry = transport.describe()
        assert entry["transport"] == "tcp"
        assert entry["pid"] == 7
        assert entry["host"] == "h"
        assert entry["peer"] == "p"
        transport.close()
        peer.close()


class TestWorkerListener:
    def test_rejects_wrong_secret_worker_subprocess(self, tmp_path):
        listener = WorkerListener("127.0.0.1:0", secret="right-secret")
        try:
            wrong = _secret_file(tmp_path, "wrong-secret")
            process = subprocess.Popen(
                worker_connect_command(listener.address, wrong),
                env=_worker_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            _, stderr = process.communicate(timeout=60)
            assert process.returncode == 1  # loud exit, never retried
            assert b"handshake" in stderr
            deadline = time.monotonic() + 10
            while listener.rejected < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert listener.rejected >= 1
            assert listener.next_transport(0.2) is None  # nothing registered
        finally:
            listener.stop()

    def test_garbage_connection_does_not_block_real_workers(self, tmp_path):
        listener = WorkerListener("127.0.0.1:0", secret="s3cret")
        try:
            # A port scanner: connects and says nothing useful.
            scanner = socket.create_connection(parse_hostport(listener.address))
            scanner.sendall(b"GET / HTTP/1.1\r\n\r\n")
            process = subprocess.Popen(
                worker_connect_command(
                    listener.address, _secret_file(tmp_path), worker_id="real"
                ),
                env=_worker_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                transport = listener.next_transport(30.0)
                assert transport is not None
                assert transport.info["worker_id"] == "real"
                transport.close()
            finally:
                process.terminate()
                process.wait(timeout=10)
            scanner.close()
        finally:
            listener.stop()


class TestTcpWorkerPool:
    """Connect-back workers inside the ordinary supervision machinery."""

    def test_spawned_tcp_fleet_serves_and_respawns(self, tmp_path):
        secret_file = _secret_file(tmp_path)
        command = worker_connect_command(CONNECT_PLACEHOLDER, secret_file)
        with WorkerPool(
            2,
            listen="127.0.0.1:0",
            secret="s3cret",
            spawn_commands=[command, command],
        ) as pool:
            stats = pool.stats()
            assert {entry["transport"] for entry in stats.workers.values()} == {"tcp"}
            first_pid = stats.workers["w0"]["pid"]
            assert isinstance(pool.call("ping", {}, timeout=30.0)["pid"], int)
            # Sever w0's connection: the slot must respawn via its command.
            assert pool.kill_worker("w0")
            _wait_healthy(pool, 2)
            stats = pool.stats()
            assert stats.restarts >= 1
            assert stats.workers["w0"]["pid"] != first_pid
            assert pool.call("sleep", {"seconds": 0.01}, timeout=30.0) == {
                "slept": 0.01
            }

    def test_externally_started_worker_fills_a_remote_slot(self, tmp_path):
        secret_file = _secret_file(tmp_path)
        pool = WorkerPool(1, listen="127.0.0.1:0", secret="s3cret", register_timeout=30.0)
        assert pool.listen_address is not None
        process = subprocess.Popen(
            worker_connect_command(
                pool.listen_address, secret_file, worker_id="ext-0"
            ),
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            with pool:
                result = pool.call("ping", {}, timeout=30.0)
                assert result["pid"] == process.pid
                entry = pool.stats().workers["w0"]
                assert entry["transport"] == "tcp"
                assert entry["worker_id"] == "ext-0"
                assert entry["host"]  # the hostname label for /metrics
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)

    def test_listen_requires_a_secret(self):
        with pytest.raises(ValueError, match="secret"):
            WorkerPool(2, listen="127.0.0.1:0")

    def test_spawn_commands_require_listen(self):
        with pytest.raises(ValueError, match="listen"):
            WorkerPool(2, spawn_commands=[["true"], ["true"]])

    def test_remote_worker_uses_its_own_warm_dir(self, tmp_path):
        """A connect-back worker must ignore the supervisor's cache_dir."""
        from repro.api import Session, TrainConfig

        artifact = str(
            Session(train=TrainConfig(epochs=1, patience=1))
            .load("texas")
            .fit("MLP", hidden=8)
            .save(tmp_path / "artifact")
        )
        supervisor_cache = tmp_path / "supervisor-cache"
        supervisor_cache.mkdir()
        warm_dir = tmp_path / "host-warm"
        secret_file = _secret_file(tmp_path)
        command = worker_connect_command(
            CONNECT_PLACEHOLDER, secret_file, warm_dir=str(warm_dir)
        )
        load_args = {
            "artifacts": [artifact],
            "cache_dir": str(supervisor_cache),
            "serve": {},
        }
        with WorkerPool(
            1,
            listen="127.0.0.1:0",
            secret="s3cret",
            spawn_commands=[command],
            init_ops=[("load", load_args)],
        ) as pool:
            result = pool.call("stats", {}, timeout=30.0)
            assert result["router"] is not None
            spilled = pool.call("spill", {}, timeout=30.0)
            assert spilled["operators"] >= 0
        # The worker warmed/spilled locally, never into the supervisor path.
        assert list(supervisor_cache.iterdir()) == []
        assert warm_dir.exists()
        assert any(warm_dir.glob("*/meta.json"))  # one spilled entry directory
