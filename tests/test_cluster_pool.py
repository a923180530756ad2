"""Worker-pool supervision: protocol, dispatch, crash recovery, timeouts."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ClusterUnavailable,
    ProtocolError,
    RemoteError,
    TaskTimeout,
    WorkerDied,
    WorkerPool,
    decode_message,
    encode_message,
)
from repro.cluster.protocol import request, response_error, response_ok

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn_worker() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cluster.worker", "--worker-id", "wtest"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_worker_env(),
        bufsize=0,
    )


def _wait_healthy(pool: WorkerPool, count: int, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(pool.healthy_workers()) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"pool never reached {count} healthy workers; have {pool.healthy_workers()}"
    )


class TestProtocol:
    def test_round_trip(self):
        message = request(7, "ping", {"x": 1})
        decoded = decode_message(encode_message(message))
        assert decoded == {"v": PROTOCOL_VERSION, "id": 7, "op": "ping", "args": {"x": 1}}

    def test_ok_and_error_shapes(self):
        ok = decode_message(encode_message(response_ok(3, {"a": 1})))
        assert ok["ok"] is True and ok["result"] == {"a": 1}
        err = decode_message(encode_message(response_error(4, "boom", "ValueError")))
        assert err["ok"] is False and err["error_type"] == "ValueError"

    def test_version_mismatch_is_loud(self):
        line = encode_message(request(1, "ping")).replace(
            b'"v":%d' % PROTOCOL_VERSION, b'"v":999'
        )
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_message(line)

    def test_garbage_and_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(b"{nope\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2]\n")

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError, match="cap"):
            decode_message(b"x" * (MAX_MESSAGE_BYTES + 1))


@pytest.fixture(scope="module")
def pool():
    """A two-worker pool shared by the non-destructive tests."""
    with WorkerPool(2, heartbeat_interval=0.5) as shared:
        yield shared


class TestDispatch:
    def test_ping_round_robins_over_workers(self, pool):
        served = {pool.call("ping")["worker"] for _ in range(4)}
        assert served == {"w0", "w1"}

    def test_unknown_op_is_a_typed_remote_error(self, pool):
        with pytest.raises(RemoteError, match="unknown op") as info:
            pool.call("no-such-op")
        assert info.value.error_type == "UnknownOp"

    def test_in_worker_exception_carries_its_class_name(self, pool):
        # predict before load raises RuntimeError inside the worker.
        with pytest.raises(RemoteError, match="no router loaded") as info:
            pool.call("predict", {"node_ids": [0]})
        assert info.value.error_type == "RuntimeError"

    def test_pinned_call_hits_the_named_worker(self, pool):
        assert pool.call("ping", worker="w1")["worker"] == "w1"
        with pytest.raises(KeyError):
            pool.call("ping", worker="w9")

    def test_broadcast_reaches_every_healthy_worker(self, pool):
        results = pool.broadcast("ping")
        assert set(results) == {"w0", "w1"}
        assert all(entry["worker"] == name for name, entry in results.items())

    def test_stats_shape(self, pool):
        stats = pool.stats()
        assert stats.count == 2
        assert stats.healthy == 2
        assert set(stats.workers) == {"w0", "w1"}
        snapshot = pool.snapshot()
        assert snapshot["workers"]["w0"]["alive"] is True


class TestStart:
    def test_workers_run_their_init_ops_concurrently(self):
        pool = WorkerPool(2, init_ops=[("sleep", {"seconds": 3.0})])
        started = time.monotonic()
        pool.start()
        try:
            elapsed = time.monotonic() - started
            # One after the other, the fleet would take two sleeps plus two
            # interpreter starts.
            assert elapsed < 6.0, elapsed
            assert pool.healthy_workers() == ["w0", "w1"]
        finally:
            pool.stop()

    def test_failed_init_kills_every_worker(self, tmp_path):
        missing = str(tmp_path / "no-such-artifact")
        pool = WorkerPool(2, init_ops=[("load", {"artifacts": [missing]})])
        with pytest.raises(RemoteError):
            pool.start()
        workers = pool.stats().workers
        assert set(workers) == {"w0", "w1"}
        assert all(entry["alive"] is False for entry in workers.values()), workers
        assert pool.healthy_workers() == []
        # The failed start left the pool as stop() would: it tries again.
        with pytest.raises(RemoteError):
            pool.start()
        assert pool.healthy_workers() == []


class TestSupervision:
    def test_crash_restarts_the_worker(self):
        with WorkerPool(1, heartbeat_interval=0.2) as pool:
            first_pid = pool.call("ping")["pid"]
            with pytest.raises(WorkerDied):
                pool.call("crash", retries=0)
            _wait_healthy(pool, 1)
            after = pool.call("ping")
            assert after["pid"] != first_pid
            assert pool.stats().restarts == 1

    def test_worker_death_mid_op_retries_on_a_survivor(self):
        with WorkerPool(2, heartbeat_interval=0.5) as pool:
            # Two pings park the round-robin cursor back on w0, so the
            # sleep below deterministically lands there.
            pool.call("ping"), pool.call("ping")
            result = {}

            def run() -> None:
                result["value"] = pool.call("sleep", {"seconds": 1.5}, timeout=30)

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.4)  # the op is now in flight on w0
            pool.kill_worker("w0")
            thread.join(timeout=30)
            assert result["value"] == {"slept": 1.5}  # retried, not dropped
            assert pool.stats().retries >= 1

    def test_concurrent_callers_race_a_kill_without_hung_futures(self):
        """Two threads mid-op on dying workers: both must resolve cleanly.

        The race the retry path must survive: two concurrent calls are in
        flight when their workers get killed; each caller must either get
        its (idempotent) result from a survivor or raise a typed error —
        nothing may hang on a future nobody will ever resolve.
        """
        with WorkerPool(3, heartbeat_interval=0.5) as pool:
            results: dict = {}
            errors: dict = {}

            def run(slot: str) -> None:
                try:
                    results[slot] = pool.call(
                        "sleep", {"seconds": 1.2}, timeout=60
                    )
                except Exception as error:  # noqa: BLE001 — the assertion below
                    errors[slot] = error

            threads = [
                threading.Thread(target=run, args=(name,)) for name in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.4)  # both sleeps are now in flight
            pool.kill_worker("w0")
            pool.kill_worker("w1")
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads), (
                "a caller hung on an unresolved future"
            )
            assert not errors, errors  # w2 survived: both must be retried onto it
            assert results == {"a": {"slept": 1.2}, "b": {"slept": 1.2}}
            assert pool.stats().retries >= 1

    def test_task_timeout_kills_and_respawns(self):
        with WorkerPool(1, heartbeat_interval=0.2) as pool:
            with pytest.raises(TaskTimeout, match="exceeded"):
                pool.call("sleep", {"seconds": 30}, timeout=0.5, retries=0)
            _wait_healthy(pool, 1)
            assert pool.call("ping")["worker"] == "w0"

    def test_exhausted_restart_budget_retires_the_slot(self):
        with WorkerPool(1, max_restarts=0, heartbeat_interval=0.2) as pool:
            with pytest.raises(WorkerDied):
                pool.call("crash", retries=0)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not pool.stats().workers["w0"]["retired"]:
                time.sleep(0.05)
            assert pool.stats().workers["w0"]["retired"] is True
            with pytest.raises(ClusterUnavailable):
                pool.call("ping", retries=0)

    def test_heartbeat_detects_a_silently_wedged_worker(self):
        with WorkerPool(
            1, heartbeat_interval=0.2, heartbeat_timeout=1.0
        ) as pool:
            pid = pool.call("ping")["pid"]
            os.kill(pid, signal.SIGSTOP)  # wedged: alive but unresponsive
            try:
                # Watch supervision state only: a call would park a pending
                # op on the wedged worker, and the heartbeat deliberately
                # never probes busy workers.
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    slot = pool.stats().workers["w0"]
                    if slot["healthy"] and slot["pid"] not in (None, pid):
                        break
                    time.sleep(0.1)
                else:
                    raise AssertionError("heartbeat never replaced the wedged worker")
                assert pool.call("ping")["pid"] != pid
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass


class TestWorkerProcess:
    # Each test spawns its worker in a ``with`` block, whose exit closes
    # the worker's pipes and reaps it.
    def test_protocol_version_mismatch_answered_loudly(self):
        with _spawn_worker() as process:
            try:
                process.stdin.write(b'{"v": 999, "id": 5, "op": "ping"}\n')
                process.stdin.flush()
                reply = decode_message(process.stdout.readline())
                assert reply["ok"] is False
                assert reply["error_type"] == "ProtocolError"
                assert reply["id"] == -1  # unversioned garbage has no trusted id
            finally:
                process.kill()

    def test_sigterm_while_idle_exits_promptly(self):
        with _spawn_worker() as process:
            try:
                # First answer proves the loop is up before we signal it.
                process.stdin.write(encode_message(request(1, "ping")))
                process.stdin.flush()
                decode_message(process.stdout.readline())
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=10) == 0
            finally:
                if process.poll() is None:
                    process.kill()

    def test_sigterm_mid_op_drains_the_response_first(self):
        with _spawn_worker() as process:
            try:
                # Prove the loop (and its signal handlers) are up before timing
                # a signal against the op.
                process.stdin.write(encode_message(request(0, "ping")))
                process.stdin.flush()
                decode_message(process.stdout.readline())
                process.stdin.write(encode_message(request(1, "sleep", {"seconds": 1.0})))
                process.stdin.flush()
                time.sleep(0.3)  # the sleep op is now executing
                process.send_signal(signal.SIGTERM)
                reply = decode_message(process.stdout.readline())
                assert reply == {
                    "v": PROTOCOL_VERSION,
                    "id": 1,
                    "ok": True,
                    "result": {"slept": 1.0},
                }
                assert process.wait(timeout=10) == 0  # ...and then it exited
            finally:
                if process.poll() is None:
                    process.kill()
