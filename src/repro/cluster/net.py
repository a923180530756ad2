"""Transports for the cluster protocol: pipes, TCP, and connect-back.

PR 9 deliberately kept the worker protocol machine-neutral — versioned
JSON lines with ids, a 64MB cap, loud :class:`ProtocolError` — but buried
the byte plumbing inside ``_Worker``.  This module extracts it behind a
:class:`Transport` so the :class:`~repro.cluster.pool.WorkerPool` can
supervise a worker without caring where it runs:

* :class:`PipeTransport` — today's behavior, bit-compatible: the worker is
  a local child process and its stdin/stdout pipes carry the frames (a
  dead pipe *is* the death signal);
* :class:`TcpTransport` — the same frames over a socket, so the worker can
  live on another machine.  Connections are established *worker-first*
  (connect-back registration): the pool owns a :class:`WorkerListener`,
  and ``python -m repro.cluster.worker --connect HOST:PORT --secret-file
  F`` dials in, survives the handshake, and is slotted into the pool's
  ordinary heartbeat/timeout/restart machinery.

The handshake rejects strangers *before any op is accepted*: the listener
sends a nonce, the worker answers with an HMAC-SHA256 over it keyed by the
shared secret (plus its own nonce, which the pool must answer in kind —
authentication is mutual), and every handshake line is a versioned
protocol message, so a wrong ``PROTOCOL_VERSION`` fails as loudly as a
wrong secret.  Secrets travel in files, never argv-visible process lists.

Writes take an optional ``timeout`` (``select`` writability check before
the write) so a wedged peer with full kernel buffers stalls one heartbeat
probe, not the whole supervision loop.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import queue
import secrets as secrets_module
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
)

#: hello markers naming each end of the handshake.
HELLO_POOL = "repro-cluster-pool"
HELLO_WORKER = "repro-cluster-worker"

#: bound on one whole handshake exchange; a silent or trickling peer is
#: dropped rather than parked on the accept path.
DEFAULT_HANDSHAKE_TIMEOUT = 10.0

#: substituted with the listener's resolved ``host:port`` in spawn
#: commands, so ``port=0`` (ephemeral) compositions work.
CONNECT_PLACEHOLDER = "{connect}"


class TransportClosed(RuntimeError):
    """The peer is gone (or not draining); the frame was not delivered."""


class HandshakeError(ProtocolError):
    """The peer failed version or shared-secret verification."""


def parse_hostport(address: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)``; loud on anything else."""
    host, sep, port_text = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"expected HOST:PORT with an integer port, got {address!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in {address!r}")
    return host, port


def read_secret(path: Union[str, Path]) -> str:
    """The shared handshake secret from a file (stripped, non-empty)."""
    secret = Path(path).read_text().strip()
    if not secret:
        raise ValueError(f"secret file {str(path)!r} is empty")
    return secret


# ---------------------------------------------------------------------- #
# Transports
# ---------------------------------------------------------------------- #
class Transport:
    """One framed, bidirectional channel to a single worker.

    ``write`` delivers one encoded frame (raising :class:`TransportClosed`
    when the peer is gone, or — with ``timeout`` — when the channel is not
    writable in time); ``readline`` blocks for the next frame and returns
    ``b""`` at end-of-stream, which supervision treats as worker death.
    """

    kind = "?"

    @property
    def pid(self) -> Optional[int]:
        return None

    def write(self, data: bytes, timeout: Optional[float] = None) -> None:
        raise NotImplementedError

    def readline(self) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def is_open(self) -> bool:
        raise NotImplementedError

    def wait_closed(self, timeout: float) -> bool:
        """Block until the channel's resources are released; False on timeout."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError


class PipeTransport(Transport):
    """The original stdin/stdout framing over a local child process.

    Owns the :class:`subprocess.Popen`: ``close`` is a SIGKILL (the pool's
    way of reclaiming a wedged single-threaded worker) and ``wait_closed``
    reaps the exit status, so restarts never stack zombies, and then
    closes both pipe ends (a reader still in ``readline`` sees EOF).

    The pipes are unbuffered (``bufsize=0``), so a write reaches the worker
    at once.  The child's stdout is read through a buffer: a raw pipe's
    ``readline`` makes one ``read`` call per byte.
    """

    kind = "pipe"

    def __init__(self, process: "subprocess.Popen") -> None:
        self.process = process
        self._stdout = (
            io.BufferedReader(process.stdout) if process.stdout is not None else None
        )

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def write(self, data: bytes, timeout: Optional[float] = None) -> None:
        process = self.process
        stdin = process.stdin
        if stdin is None or process.poll() is not None:
            raise TransportClosed(f"worker process pid={process.pid} is not running")
        if timeout is not None:
            try:
                writable = select.select([], [stdin], [], timeout)[1]
            except (OSError, ValueError):
                raise TransportClosed("worker stdin pipe is closed") from None
            if not writable:
                raise TransportClosed(
                    f"pipe write stalled for {timeout}s (peer not draining)"
                )
        try:
            stdin.write(data)
            stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            raise TransportClosed("worker stdin pipe is closed") from None

    def readline(self) -> bytes:
        if self._stdout is None:
            return b""
        try:
            return self._stdout.readline()
        except (OSError, ValueError):
            return b""

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()

    def is_open(self) -> bool:
        return self.process.poll() is None

    def wait_closed(self, timeout: float) -> bool:
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        for pipe in (self.process.stdin, self._stdout):
            if pipe is not None:
                pipe.close()
        return True

    def describe(self) -> Dict[str, object]:
        return {
            "transport": self.kind,
            "pid": self.process.pid,
            "alive": self.is_open(),
        }


class TcpTransport(Transport):
    """The same frames over a connected, handshake-verified socket.

    ``info`` carries the worker's registration (declared id, hostname,
    remote pid) so pool stats can label a remote slot as richly as a local
    one.  ``close`` shuts the socket down both ways, which unblocks a
    reader parked in ``readline`` on another thread, and then closes the
    reader too: while the reader is open, the socket's descriptor stays
    open after ``sock.close()``.
    """

    kind = "tcp"

    def __init__(
        self,
        sock: socket.socket,
        reader,
        *,
        info: Optional[Mapping[str, Any]] = None,
        peer: Optional[str] = None,
    ) -> None:
        self.sock = sock
        self._reader = reader
        self.info: Dict[str, Any] = dict(info or {})
        if peer is None:
            try:
                address = sock.getpeername()
                peer = f"{address[0]}:{address[1]}"
            except OSError:
                peer = "?"
        self.peer = peer
        self._closed = False
        self._write_lock = threading.Lock()

    @property
    def pid(self) -> Optional[int]:
        pid = self.info.get("pid")
        return int(pid) if pid is not None else None

    @property
    def host(self) -> Optional[str]:
        host = self.info.get("host")
        return str(host) if host is not None else None

    def write(self, data: bytes, timeout: Optional[float] = None) -> None:
        if self._closed:
            raise TransportClosed(f"tcp transport to {self.peer} is closed")
        with self._write_lock:
            if timeout is None:
                try:
                    self.sock.sendall(data)
                except OSError as error:
                    raise TransportClosed(
                        f"tcp write to {self.peer} failed: {error}"
                    ) from None
                return
            # Bounded write: select-writability only promises *some* buffer
            # space, so send piecewise against a deadline — sendall on a
            # backed-up peer would block past any timeout.
            deadline = time.monotonic() + timeout
            view = memoryview(data)
            while view:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportClosed(
                        f"tcp write to {self.peer} stalled for {timeout}s "
                        "(peer not draining)"
                    )
                try:
                    writable = select.select([], [self.sock], [], remaining)[1]
                except (OSError, ValueError):
                    raise TransportClosed(
                        f"tcp transport to {self.peer} is closed"
                    ) from None
                if not writable:
                    raise TransportClosed(
                        f"tcp write to {self.peer} stalled for {timeout}s "
                        "(peer not draining)"
                    )
                try:
                    sent = self.sock.send(view, getattr(socket, "MSG_DONTWAIT", 0))
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError as error:
                    raise TransportClosed(
                        f"tcp write to {self.peer} failed: {error}"
                    ) from None
                view = view[sent:]

    def readline(self) -> bytes:
        try:
            return self._reader.readline()
        except (OSError, ValueError):
            return b""

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass

    def is_open(self) -> bool:
        return not self._closed

    def wait_closed(self, timeout: float) -> bool:
        self.close()
        return True

    def describe(self) -> Dict[str, object]:
        return {
            "transport": self.kind,
            "pid": self.pid,
            "alive": self.is_open(),
            "peer": self.peer,
            "host": self.host,
            "worker_id": self.info.get("worker_id"),
        }


# ---------------------------------------------------------------------- #
# Handshake
# ---------------------------------------------------------------------- #
def _hmac_hex(secret: str, nonce: str) -> str:
    return hmac.new(
        secret.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def _send_line(sock: socket.socket, message: Mapping[str, Any]) -> None:
    sock.sendall(encode_message(message))


def _reject(sock: socket.socket, reason: str) -> None:
    """Best-effort rejection line so the peer can log *why* it was dropped."""
    try:
        _send_line(
            sock,
            {"v": PROTOCOL_VERSION, "ok": False, "error": reason},
        )
    except OSError:
        pass


def server_handshake(
    sock: socket.socket,
    secret: str,
    *,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
):
    """Pool side: challenge the dialing worker, verify, prove ourselves.

    Returns ``(reader, info)`` — the buffered reader to keep using for
    protocol frames and the worker's registration info — or raises
    :class:`HandshakeError` before a single op crosses the wire.
    """
    return _handshake(sock, timeout, lambda reader: _verify_worker(sock, reader, secret))


def _handshake(sock: socket.socket, timeout: float, exchange: Callable[[Any], Any]):
    """``(reader, exchange(reader))`` over ``sock``, each read bounded by ``timeout``.

    A failed exchange closes the reader before it raises: the caller never
    gets the reader, and while it is open the socket's descriptor outlives
    ``sock.close()``.
    """
    sock.settimeout(timeout)
    reader = sock.makefile("rb")
    try:
        result = exchange(reader)
    except BaseException:
        reader.close()
        raise
    sock.settimeout(None)
    return reader, result


def _verify_worker(sock: socket.socket, reader, secret: str) -> Dict[str, Any]:
    """Challenge the worker on ``sock`` and return its registration info."""
    nonce = secrets_module.token_hex(16)
    _send_line(sock, {"v": PROTOCOL_VERSION, "hello": HELLO_POOL, "nonce": nonce})
    line = reader.readline()
    if not line:
        raise HandshakeError("peer closed the connection during the handshake")
    try:
        message = decode_message(line)
    except ProtocolError as error:
        _reject(sock, str(error))
        raise HandshakeError(f"worker handshake rejected: {error}") from None
    if message.get("hello") != HELLO_WORKER:
        _reject(sock, f"expected hello {HELLO_WORKER!r}")
        raise HandshakeError(
            f"peer did not identify as a cluster worker (hello={message.get('hello')!r})"
        )
    if not hmac.compare_digest(
        str(message.get("hmac", "")), _hmac_hex(secret, nonce)
    ):
        _reject(sock, "shared-secret HMAC mismatch")
        raise HandshakeError("worker failed the shared-secret HMAC challenge")
    worker_nonce = str(message.get("nonce", ""))
    _send_line(
        sock,
        {
            "v": PROTOCOL_VERSION,
            "ok": True,
            "hello": HELLO_POOL,
            "hmac": _hmac_hex(secret, worker_nonce),
        },
    )
    return {
        "worker_id": str(message.get("worker_id", "")),
        "host": str(message.get("host", "")),
        "pid": message.get("pid"),
    }


def client_handshake(
    sock: socket.socket,
    secret: str,
    *,
    worker_id: str,
    host: str,
    pid: int,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
):
    """Worker side: answer the pool's challenge and verify *its* answer.

    Returns the buffered reader to keep using for protocol frames; raises
    :class:`HandshakeError` (a wrong secret, an impostor pool) or plain
    :class:`ProtocolError` (a wrong ``PROTOCOL_VERSION``) loudly — a
    worker must never serve ops to an endpoint it could not verify.
    """
    reader, _ = _handshake(
        sock,
        timeout,
        lambda reader: _verify_pool(sock, reader, secret, worker_id=worker_id, host=host, pid=pid),
    )
    return reader


def _verify_pool(
    sock: socket.socket, reader, secret: str, *, worker_id: str, host: str, pid: int
) -> None:
    """Answer the pool's challenge on ``sock`` and check its counter-proof."""
    line = reader.readline()
    if not line:
        raise HandshakeError("pool closed the connection before the handshake")
    message = decode_message(line)  # loud ProtocolError on version mismatch
    if message.get("hello") != HELLO_POOL:
        raise HandshakeError(
            f"peer did not identify as a cluster pool (hello={message.get('hello')!r})"
        )
    nonce = str(message.get("nonce", ""))
    worker_nonce = secrets_module.token_hex(16)
    _send_line(
        sock,
        {
            "v": PROTOCOL_VERSION,
            "hello": HELLO_WORKER,
            "hmac": _hmac_hex(secret, nonce),
            "nonce": worker_nonce,
            "worker_id": worker_id,
            "host": host,
            "pid": int(pid),
        },
    )
    line = reader.readline()
    if not line:
        raise HandshakeError(
            "pool dropped the connection during the handshake (wrong secret?)"
        )
    ack = decode_message(line)
    if not ack.get("ok"):
        raise HandshakeError(
            f"pool rejected the registration: {ack.get('error', 'unknown reason')}"
        )
    if not hmac.compare_digest(
        str(ack.get("hmac", "")), _hmac_hex(secret, worker_nonce)
    ):
        raise HandshakeError(
            "pool failed to prove the shared secret; refusing to serve it"
        )


# ---------------------------------------------------------------------- #
# Connect-back listener
# ---------------------------------------------------------------------- #
class WorkerListener:
    """Accept, verify, and queue connect-back worker registrations.

    Binds immediately (so ``port=0`` resolves before any worker command is
    rendered) and accepts on a daemon thread.  Each connection runs the
    handshake on its own short-lived thread — one garbage or slow-trickle
    connection cannot stall legitimate registrations — and verified
    transports land in a queue the pool drains slot by slot.
    """

    def __init__(
        self,
        address: str,
        *,
        secret: str,
    ) -> None:
        if not secret:
            raise ValueError("a connect-back listener requires a non-empty secret")
        host, port = parse_hostport(address)
        self._secret = secret
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(16)
        self._sock = sock
        self.host = host
        self.port = int(sock.getsockname()[1])
        self.address = f"{self.host}:{self.port}"
        self._queue: "queue.Queue[TcpTransport]" = queue.Queue()
        self._stopping = False
        self._rejected = 0
        self._thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-cluster-listener-{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def rejected(self) -> int:
        """Connections dropped by a failed handshake (wrong secret/version)."""
        return self._rejected

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` closed the socket; a stopped listener never reopens."""
        return self._stopping

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return  # listener closed: stop accepting
            threading.Thread(
                target=self._register,
                args=(conn, addr),
                name=f"repro-cluster-handshake-{addr[0]}:{addr[1]}",
                daemon=True,
            ).start()

    def _register(self, conn: socket.socket, addr) -> None:
        peer = f"{addr[0]}:{addr[1]}"
        try:
            reader, info = server_handshake(conn, self._secret)
        except (ProtocolError, OSError) as error:
            self._rejected += 1
            print(
                f"repro.cluster: rejected worker registration from {peer}: {error}",
                file=sys.stderr,
            )
            try:
                conn.close()
            except OSError:
                pass
            return
        transport = TcpTransport(conn, reader, info=info, peer=peer)
        if self._stopping:
            transport.close()
            return
        self._queue.put(transport)

    def next_transport(self, timeout: float) -> Optional[TcpTransport]:
        """The next verified registration, or ``None`` after ``timeout``."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def stop(self) -> None:
        self._stopping = True
        # Closing the socket alone does not wake a thread blocked in
        # accept(); shutting it down does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        while True:
            try:
                self._queue.get_nowait().close()
            except queue.Empty:
                break


# ---------------------------------------------------------------------- #
# Spawn helpers
# ---------------------------------------------------------------------- #
def worker_connect_command(
    connect: str,
    secret_file: Union[str, Path],
    *,
    python: Optional[str] = None,
    worker_id: Optional[str] = None,
    warm_dir: Optional[Union[str, Path]] = None,
    reconnect: int = 0,
) -> List[str]:
    """The argv that starts one connect-back worker.

    ``connect`` may be the literal :data:`CONNECT_PLACEHOLDER`, which the
    pool substitutes with its listener's resolved address at launch time
    (how ``port=0`` fleets compose).
    """
    argv = [
        python or sys.executable,
        "-m",
        "repro.cluster.worker",
        "--connect",
        str(connect),
        "--secret-file",
        str(secret_file),
    ]
    if worker_id:
        argv += ["--worker-id", str(worker_id)]
    if warm_dir:
        argv += ["--warm-dir", str(warm_dir)]
    if reconnect:
        argv += ["--reconnect", str(int(reconnect))]
    return argv


def ssh_worker_command(
    host: str,
    connect: str,
    secret_file: Union[str, Path],
    *,
    python: str = "python3",
    ssh: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
    worker_id: Optional[str] = None,
    warm_dir: Optional[Union[str, Path]] = None,
    reconnect: int = 0,
) -> List[str]:
    """An ssh command launching a connect-back worker on ``host``.

    The remote host must have ``repro`` importable by ``python`` and the
    secret file present at ``secret_file`` (secrets ride in files on both
    ends; they never appear in ``ps`` output as argv).  The worker dials
    ``connect`` — which must name an address reachable *from the remote
    host* — and registers through the HMAC handshake like any other.
    """
    remote = worker_connect_command(
        connect,
        secret_file,
        python=python,
        worker_id=worker_id or f"ssh-{host}",
        warm_dir=warm_dir,
        reconnect=reconnect,
    )
    return [*ssh, str(host), *remote]
