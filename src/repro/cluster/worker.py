"""Worker-process entry point: ``python -m repro.cluster.worker``.

A worker is one protocol loop (see :mod:`repro.cluster.protocol`): read a
request line, execute the op, write the response line.  Ops are executed
strictly in order — a worker is single-threaded by design, which is the
whole point of running N of them (each owns its own GIL).

The loop runs over one of two channels:

* **pipes** (default) — the worker was forked by the pool on the same
  host and speaks over stdin/stdout;
* **TCP connect-back** (``--connect HOST:PORT --secret-file F``) — the
  worker dials a :class:`~repro.cluster.net.WorkerListener`, proves the
  shared secret through the mutual HMAC handshake (and verifies the
  pool's answer in turn), then serves the same ops over the socket.  With
  ``--reconnect N`` a dropped connection is re-dialed up to N times; a
  *failed handshake* is never retried — a worker that cannot verify its
  pool must not keep knocking.

Supported ops:

``ping``
    liveness heartbeat; returns pid, worker id, hostname and uptime.
``run_shard``
    execute one deterministic shard of a :class:`repro.api.SweepSpec`
    (``args: {"spec": ..., "shard_index": i, "shard_count": n}``) and
    return the :class:`repro.cluster.sweeps.ShardReport` payload.
``load``
    build and start a :class:`repro.serving.ShardRouter` over serving
    artifacts (``args: {"artifacts": [...], "cache_dir": ..., "serve":
    {...}}``), warming the operator/logit cache directory first and
    spilling freshly-computed entries back into it after the load.  A
    connect-back worker ignores the supervisor's ``cache_dir`` — a path
    on the pool's machine means nothing here — and uses its *own* warm
    dir (``--warm-dir``, default under the local tmpdir), so every host
    warms and spills locally.
``predict``
    route one request through the loaded router; returns the front
    door's ``/predict`` answer (:func:`repro.serving.http.predict_answer`)
    plus the worker id.
``stats``
    the worker's router snapshot plus worker identity.
``spill``
    re-spill the operator/logit caches into the cache directory.
``crash``
    exit immediately without cleanup (``os._exit``) — the supervisor's
    crash-recovery test/benchmark hook.
``sleep``
    block for ``args["seconds"]`` — the supervisor's task-timeout hook.
``shutdown``
    spill the caches into the cache directory, acknowledge, then exit the
    loop cleanly.

The worker traps SIGTERM/SIGINT: when idle it exits immediately; when an
op is mid-flight it finishes the op, writes the response, and exits then
— a supervisor-initiated restart never swallows an answer it could have
delivered.  Stray library prints cannot corrupt the protocol stream:
``sys.stdout`` is rebound to stderr at startup and the protocol writes go
to the original file descriptor (or the socket) only.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket as socket_module
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional

from .protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    response_error,
    response_ok,
)


class _State:
    """Everything one worker process holds between ops."""

    def __init__(self, worker_id: str, warm_dir: Optional[str] = None) -> None:
        self.worker_id = worker_id
        self.started_at = time.time()
        self.router = None
        self.cache_dir: Optional[str] = None
        #: when set (connect-back mode), overrides any supervisor-sent
        #: ``cache_dir``: remote workers warm and spill on their own disk.
        self.warm_dir = warm_dir
        self.ops_done = 0
        #: set by the signal handler while an op is executing; checked
        #: after the response is written.
        self.drain_requested = False
        self.in_flight = False


def _op_ping(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "worker": state.worker_id,
        "pid": os.getpid(),
        "host": socket_module.gethostname(),
        "uptime_s": round(time.time() - state.started_at, 3),
        "ops_done": state.ops_done,
        "serving": state.router is not None,
    }


def _op_run_shard(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    from ..api.config import SweepSpec
    from .sweeps import run_sweep_shard

    spec = SweepSpec.from_dict(args["spec"])
    report = run_sweep_shard(
        spec, int(args["shard_index"]), int(args["shard_count"])
    )
    return report.as_dict()


def _spill_caches(state: _State) -> Dict[str, int]:
    """Spill both caches into the cache directory (atomic, skip-existing)."""
    if state.router is None or state.cache_dir is None:
        return {"operators": 0, "logits": 0}
    return state.router.spill(state.cache_dir)


def _op_load(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    from ..api.config import ServeConfig
    from ..api.session import Session

    if state.router is not None:
        state.router.stop()
        state.router = None
    config = ServeConfig(**(args.get("serve") or {}))
    cache_dir = args.get("cache_dir")
    if state.warm_dir is not None:
        # Connect-back workers never trust a supervisor path: the pool may
        # live on another machine, so "the shared cache dir" is whatever
        # this host's warm dir holds.
        cache_dir = state.warm_dir
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
    router = Session(serve=config).serve(*args["artifacts"], cache_dir=cache_dir)
    router.start()
    state.router = router
    state.cache_dir = cache_dir
    # Spill-on-load: whoever preprocessed first shares the
    # result; entries already on disk are skipped, concurrent writers are
    # safe (atomic rename), so no coordination between workers is needed.
    spilled = _spill_caches(state)
    return {
        "worker": state.worker_id,
        "shards": [
            {
                "name": info.name,
                "model": info.model_name,
                "fingerprint": info.fingerprint,
            }
            for info in router.shards()
        ],
        "cache_dir": cache_dir,
        "warmed": router.operator_cache.stats().hits,
        "spilled": spilled,
    }


def _require_router(state: _State):
    if state.router is None:
        raise RuntimeError("no router loaded; send a 'load' op first")
    return state.router


def _op_predict(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    from ..serving.http import predict_answer

    router = _require_router(state)
    node_ids = args.get("node_ids")
    shard = args.get("shard")
    timeout = float(args.get("timeout", 60.0))
    info = router.resolve(shard=shard)
    ticket = router.submit(node_ids, shard=info.name)
    ticket.result(timeout=timeout)
    return {"worker": state.worker_id, **predict_answer(info.name, ticket)}


def _op_stats(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    router = state.router
    shards: List[Dict[str, Any]] = []
    if router is not None:
        shards = [
            {
                "name": info.name,
                "model": info.model_name,
                "fingerprint": info.fingerprint,
            }
            for info in router.shards()
        ]
    return {
        "worker": state.worker_id,
        "pid": os.getpid(),
        "host": socket_module.gethostname(),
        "uptime_s": round(time.time() - state.started_at, 3),
        "ops_done": state.ops_done,
        "shards": shards,
        "router": router.snapshot() if router is not None else None,
    }


def _op_spill(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    _require_router(state)
    return _spill_caches(state)


def _op_crash(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    os._exit(int(args.get("code", 13)))


def _op_sleep(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    time.sleep(float(args.get("seconds", 0.0)))
    return {"slept": float(args.get("seconds", 0.0))}


def _op_shutdown(state: _State, args: Dict[str, Any]) -> Dict[str, Any]:
    # Logits are computed after the load's spill; spilling them here hands
    # the next fleet on this cache directory its forwards already paid.
    return {"worker": state.worker_id, "bye": True, "spilled": _spill_caches(state)}


_OPS = {
    "ping": _op_ping,
    "run_shard": _op_run_shard,
    "load": _op_load,
    "predict": _op_predict,
    "stats": _op_stats,
    "spill": _op_spill,
    "crash": _op_crash,
    "sleep": _op_sleep,
    "shutdown": _op_shutdown,
}


def _serve_loop(state: _State, stdin: BinaryIO, stdout: BinaryIO) -> str:
    """Serve ops until the channel ends; returns why it ended.

    ``"shutdown"`` — the supervisor asked (or a signal drained us);
    ``"eof"`` — the channel closed under us (supervisor died, connection
    dropped); ``"error"`` — a write failed mid-response.  Pipe mode treats
    them all as a clean exit; connect-back mode reconnects on ``"eof"``/
    ``"error"`` when it has budget left.
    """
    while True:
        try:
            line = stdin.readline()
        except (OSError, ValueError):
            return "eof"
        if not line:
            return "eof"  # supervisor closed the channel (or died)
        if not line.strip():
            continue
        try:
            message = decode_message(line)
        except ProtocolError as error:
            # Unversioned garbage has no id to correlate; answer loudly
            # with id -1 so the supervisor can log it, then keep serving.
            try:
                stdout.write(encode_message(response_error(-1, str(error), "ProtocolError")))
                stdout.flush()
            except (OSError, ValueError):
                return "error"
            continue
        request_id = int(message.get("id", -1))
        op = message.get("op")
        handler = _OPS.get(op)
        state.in_flight = True
        try:
            if handler is None:
                response = response_error(
                    request_id, f"unknown op {op!r}; known: {sorted(_OPS)}", "UnknownOp"
                )
            else:
                result = handler(state, message.get("args") or {})
                response = response_ok(request_id, result)
        except SystemExit:
            raise
        except BaseException as error:
            response = response_error(
                request_id, str(error) or type(error).__name__, type(error).__name__
            )
        finally:
            state.in_flight = False
        state.ops_done += 1
        try:
            stdout.write(encode_message(response))
            stdout.flush()
        except (OSError, ValueError):
            return "error"
        if op == "shutdown" or state.drain_requested:
            return "shutdown"


def _install_signal_handlers(state: _State) -> None:
    def _on_signal(signum, frame) -> None:
        if state.in_flight:
            # Finish the op and deliver its response, then exit — a
            # restart must never swallow an answer already being computed.
            state.drain_requested = True
        else:
            raise SystemExit(0)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)


def _main_pipes(state: _State) -> int:
    # The protocol owns the real stdout; reroute stray prints to stderr.
    stdout = sys.stdout.buffer
    sys.stdout = sys.stderr
    stdin = sys.stdin.buffer
    _install_signal_handlers(state)
    try:
        _serve_loop(state, stdin, stdout)
        return 0
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    finally:
        if state.router is not None:
            state.router.stop()


def _main_connect(state: _State, connect: str, secret: str, reconnect: int) -> int:
    from .net import HandshakeError, client_handshake, parse_hostport

    # Stray prints must not reach the (pipe) stdout either — a connect
    # worker may still be a child of something capturing its stdout.
    sys.stdout = sys.stderr
    _install_signal_handlers(state)
    host, port = parse_hostport(connect)
    attempts_left = max(0, int(reconnect))
    try:
        while True:
            try:
                sock = socket_module.create_connection((host, port), timeout=10.0)
            except OSError as error:
                if attempts_left > 0:
                    attempts_left -= 1
                    print(
                        f"repro.cluster.worker: connect to {connect} failed "
                        f"({error}); retrying ({attempts_left} attempts left)",
                        file=sys.stderr,
                    )
                    time.sleep(1.0)
                    continue
                print(
                    f"repro.cluster.worker: cannot connect to {connect}: {error}",
                    file=sys.stderr,
                )
                return 1
            try:
                try:
                    reader = client_handshake(
                        sock,
                        secret,
                        worker_id=state.worker_id,
                        host=socket_module.gethostname(),
                        pid=os.getpid(),
                    )
                except (HandshakeError, ProtocolError) as error:
                    # Never retried: a pool we cannot verify (wrong secret,
                    # wrong protocol version, an impostor) stays unserved.
                    print(
                        f"repro.cluster.worker: handshake with {connect} "
                        f"failed: {error}",
                        file=sys.stderr,
                    )
                    return 1
                except OSError as error:
                    print(
                        f"repro.cluster.worker: handshake I/O with {connect} "
                        f"failed: {error}",
                        file=sys.stderr,
                    )
                    reason = "eof"
                else:
                    writer = sock.makefile("wb")
                    reason = _serve_loop(state, reader, writer)
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            if reason == "shutdown":
                return 0
            if attempts_left <= 0:
                return 0  # connection gone, no budget: exit for a respawn
            attempts_left -= 1
            print(
                f"repro.cluster.worker: connection to {connect} ended "
                f"({reason}); reconnecting ({attempts_left} attempts left)",
                file=sys.stderr,
            )
            time.sleep(1.0)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    finally:
        if state.router is not None:
            state.router.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.cluster.worker")
    parser.add_argument("--worker-id", default=f"pid{os.getpid()}")
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="dial a WorkerPool listener instead of serving stdin/stdout",
    )
    parser.add_argument(
        "--secret-file",
        default=None,
        help="file holding the shared handshake secret (required with --connect)",
    )
    parser.add_argument(
        "--reconnect",
        type=int,
        default=0,
        help="re-dial a dropped connection up to N times (handshake failures never retry)",
    )
    parser.add_argument(
        "--warm-dir",
        default=None,
        help="local cache dir for connect-back loads (default: <tmpdir>/repro-cluster-warm)",
    )
    args = parser.parse_args(argv)

    if args.connect is None:
        if args.secret_file is not None:
            parser.error("--secret-file only applies with --connect")
        state = _State(args.worker_id)
        return _main_pipes(state)

    if args.secret_file is None:
        parser.error("--connect requires --secret-file")
    from .net import read_secret

    secret = read_secret(args.secret_file)
    warm_dir = args.warm_dir or str(
        Path(tempfile.gettempdir()) / "repro-cluster-warm"
    )
    state = _State(args.worker_id, warm_dir=warm_dir)
    return _main_connect(state, args.connect, secret, args.reconnect)


if __name__ == "__main__":
    sys.exit(main())
