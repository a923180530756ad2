"""The :class:`WorkerPool` supervisor: N worker processes, one contract.

The pool drives ``count`` workers — local ``python -m
repro.cluster.worker`` children over stdin/stdout pipes, cross-machine
workers over handshake-verified TCP sockets, or a mix — and turns a fleet
of crashable processes into one dependable callable:

* **dispatch** — :meth:`WorkerPool.call` round-robins ops across healthy
  workers and returns the result (or raises the worker's typed error);
* **heartbeats** — an idle worker is pinged every ``heartbeat_interval``
  seconds with a *write timeout* on the probe (a wedged peer whose kernel
  buffers filled up stalls that one probe, never the supervision loop); a
  worker that stops answering is killed and restarted;
* **task timeouts** — an op that exceeds its deadline gets its worker
  killed (the worker is single-threaded; the op *is* the worker) and
  raises :class:`TaskTimeout`;
* **restart-on-crash** — a worker that dies (crash, kill, OOM, dropped
  connection) is respawned with its ``init_ops`` replayed (e.g.
  re-``load`` its serving artifacts), up to ``max_restarts`` times;
  in-flight calls on the dead worker fail with :class:`WorkerDied` and —
  because every op this system sends is a deterministic, idempotent
  function of its arguments — :meth:`call` transparently retries them on
  a surviving worker.  One dying worker degrades throughput; it does not
  fail a single request.
* **shedding** — when *no* worker is healthy (all mid-restart or dead),
  :meth:`call` raises :class:`ClusterUnavailable`, which the serving
  front door maps to a 503.

Cross-machine slots register *worker-first*: construct the pool with
``listen="HOST:PORT"`` and a shared ``secret`` and it binds a
:class:`~repro.cluster.net.WorkerListener`; each remote slot is filled by
the next worker that dials in (``python -m repro.cluster.worker
--connect HOST:PORT --secret-file F``) and survives the protocol-version
+ HMAC handshake.  ``spawn_commands`` optionally gives each remote slot
an argv (see :func:`repro.cluster.net.ssh_worker_command`) the pool runs
to *cause* that connect-back — at first spawn and after every crash —
which is what makes remote restarts as transparent as local ones.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.stats import Stats, StatsSource
from .net import (
    CONNECT_PLACEHOLDER,
    PipeTransport,
    Transport,
    TransportClosed,
    WorkerListener,
)
from .protocol import ProtocolError, decode_message, encode_message, request

#: default bound on one op round trip (generous: a sweep shard trains).
DEFAULT_TASK_TIMEOUT = 300.0

#: default idle-worker heartbeat cadence.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: how long an idle worker may take to answer a ping before it is
#: declared wedged and restarted.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: default respawn budget per worker slot.
DEFAULT_MAX_RESTARTS = 3

#: how long a starting or respawned worker may take to replay its init ops.
INIT_TIMEOUT = 300.0

#: how long a remote slot waits for a worker to connect back (first spawn
#: and every respawn) before the attempt counts as a failed restart.
DEFAULT_REGISTER_TIMEOUT = 60.0


class WorkerError(RuntimeError):
    """Base class for everything the pool can raise about a task."""


class WorkerDied(WorkerError):
    """The worker exited (crash or kill) before answering the op."""


class TaskTimeout(WorkerError):
    """The op outlived its deadline; its worker was killed and restarted."""


class ClusterUnavailable(WorkerError):
    """No healthy worker exists right now (all dead or mid-restart)."""


class RemoteError(WorkerError):
    """The op raised inside the worker; ``error_type`` names the class."""

    def __init__(self, message: str, error_type: str) -> None:
        super().__init__(message)
        self.error_type = error_type


@dataclass
class PoolStats(Stats):
    """Supervisor counters plus one entry per worker slot."""

    count: int = 0
    healthy: int = 0
    tasks: int = 0
    retries: int = 0
    failures: int = 0
    restarts: int = 0
    workers: Dict[str, Dict[str, object]] = field(default_factory=dict)


def _worker_env() -> Dict[str, str]:
    """The child environment with this package importable."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class _PipeLauncher:
    """Default slot launcher: fork a local worker, speak over its pipes."""

    kind = "pipe"

    def launch(self, worker: "_Worker") -> Transport:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.worker", "--worker-id", worker.name],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker tracebacks surface on the parent's stderr
            env=_worker_env(),
            bufsize=0,
        )
        return PipeTransport(process)

    def close(self) -> None:
        pass


class _ConnectLauncher:
    """Remote slot launcher: (optionally spawn, then) await a connect-back.

    With ``command`` set — typically :func:`~repro.cluster.net.ssh_worker_command`
    output, with :data:`~repro.cluster.net.CONNECT_PLACEHOLDER` standing in
    for the listener address — the launcher runs the command and waits for
    the resulting registration; re-launching after a crash re-runs it.
    Without a command the slot is filled by whichever externally-started
    worker dials in next.
    """

    kind = "tcp"

    def __init__(self, pool: "WorkerPool", command: Optional[Sequence[str]] = None) -> None:
        self.pool = pool
        self.command = [str(part) for part in command] if command is not None else None
        self.child: Optional[subprocess.Popen] = None

    def launch(self, worker: "_Worker") -> Transport:
        listener = self.pool.listener
        assert listener is not None
        if self.command is not None:
            self._reap()
            argv = [
                part.replace(CONNECT_PLACEHOLDER, listener.address)
                for part in self.command
            ]
            self.child = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=None,
                stderr=None,  # remote/worker stderr surfaces on the parent's
                env=_worker_env(),
            )
        deadline = time.monotonic() + self.pool.register_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._reap()
                raise TimeoutError(
                    f"no worker connected back for slot {worker.name} within "
                    f"{self.pool.register_timeout}s (listener {listener.address})"
                )
            transport = listener.next_transport(remaining)
            if transport is None:
                continue
            if not transport.is_open():
                transport.close()
                continue  # a stale registration whose socket already died
            return transport

    def _reap(self) -> None:
        child = self.child
        if child is not None and child.poll() is None:
            child.kill()
            try:
                child.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        self.child = None

    def close(self) -> None:
        self._reap()


class _Worker:
    """One worker slot: a transport, its reader thread, and its launcher."""

    def __init__(self, pool: "WorkerPool", index: int, launcher) -> None:
        self.pool = pool
        self.index = index
        self.name = f"w{index}"
        self.launcher = launcher
        self.lock = threading.Lock()  # guards writes + pending bookkeeping
        self.transport: Optional[Transport] = None
        self.reader: Optional[threading.Thread] = None
        self.pending: Dict[int, Future] = {}
        self.healthy = False
        self.retired = False  # out of restart budget; never respawned
        self.restarts = 0
        self.tasks_done = 0
        self.last_active = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def spawn(self) -> None:
        """Launch a fresh worker and replay the pool's init ops into it."""
        self.launch()
        self.pool._init([self])

    def launch(self) -> None:
        """Acquire a transport and start its reader (no op is sent)."""
        transport = self.launcher.launch(self)
        with self.lock:
            self.transport = transport
            self.pending = {}
        reader = threading.Thread(
            target=self._read_loop,
            args=(transport,),
            name=f"repro-cluster-reader-{self.name}",
            daemon=True,
        )
        self.reader = reader
        reader.start()

    def kill(self) -> None:
        """Force the worker down; the reader thread handles the fallout.

        Health is cleared *before* the close lands so callers polling
        ``healthy_workers()`` never see a doomed worker as routable in the
        window between the kill and the reader thread observing EOF.  For
        a pipe worker this is a SIGKILL; for a TCP worker it severs the
        connection (the remote process sees EOF and exits or re-dials).
        """
        self.healthy = False
        with self.lock:
            transport = self.transport
        if transport is not None:
            transport.close()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Polite stop: ask, wait, then kill."""
        self.healthy = False
        with self.lock:
            transport = self.transport
        if transport is None:
            return
        if transport.is_open():
            try:
                future = self.send("shutdown", {})
                future.result(timeout=timeout)
            except (WorkerError, FutureTimeout, OSError):
                pass
        # Also for a worker that already exited (a retired slot): waiting
        # is what releases its pipes.
        if not transport.wait_closed(timeout):
            transport.close()
            transport.wait_closed(timeout)

    # ------------------------------------------------------------------ #
    # I/O
    # ------------------------------------------------------------------ #
    def send(
        self,
        op: str,
        args: Mapping[str, Any],
        *,
        write_timeout: Optional[float] = None,
    ) -> "Future[Any]":
        """Write one request; the reader resolves the returned future.

        ``write_timeout`` bounds the transport write itself (writability
        checked before writing), so a peer that stopped draining cannot
        park the caller — the heartbeat loop depends on this.
        """
        future: "Future[Any]" = Future()
        with self.lock:
            transport = self.transport
            if transport is None or not transport.is_open():
                raise WorkerDied(f"worker {self.name} is not running")
            request_id = self.pool._next_id()
            self.pending[request_id] = future
            try:
                transport.write(
                    encode_message(request(request_id, op, args)),
                    timeout=write_timeout,
                )
            except TransportClosed as error:
                self.pending.pop(request_id, None)
                raise WorkerDied(
                    f"worker {self.name} transport is closed: {error}"
                ) from None
        return future

    def _read_loop(self, transport: Transport) -> None:
        while True:
            line = transport.readline()
            if not line:
                break
            try:
                message = decode_message(line)
            except ProtocolError as error:
                # A worker speaking another protocol version (or emitting
                # garbage) cannot be trusted with tasks: fail loudly.
                self.pool._note_protocol_error(self, error)
                break
            request_id = int(message.get("id", -1))
            with self.lock:
                future = self.pending.pop(request_id, None)
                self.tasks_done += 1
                self.last_active = time.monotonic()
            if future is None:
                continue  # response for a request a timeout already failed
            if message.get("ok"):
                future.set_result(message.get("result"))
            else:
                future.set_exception(
                    RemoteError(
                        str(message.get("error", "")),
                        str(message.get("error_type", "RemoteError")),
                    )
                )
        # End of stream: the worker exited or the connection dropped.
        self.healthy = False
        transport.close()  # later sends fail fast instead of going nowhere
        with self.lock:
            doomed = list(self.pending.values())
            self.pending = {}
        for future in doomed:
            if not future.done():
                future.set_exception(
                    WorkerDied(f"worker {self.name} died with the op in flight")
                )
        self.pool._on_worker_exit(self, transport)

    def describe(self) -> Dict[str, object]:
        with self.lock:
            transport = self.transport
            pending = len(self.pending)
        entry: Dict[str, object] = {
            "name": self.name,
            "healthy": self.healthy,
            "retired": self.retired,
            "restarts": self.restarts,
            "tasks_done": self.tasks_done,
            "pending": pending,
        }
        if transport is None:
            entry.update(transport=self.launcher.kind, pid=None, alive=False)
        else:
            entry.update(transport.describe())
        return entry


class WorkerPool(StatsSource):
    """Supervise N worker processes behind one typed call interface.

    ``init_ops`` is a list of ``(op, args)`` pairs replayed into every
    fresh worker — at first spawn and after every restart — which is how
    serving workers re-``load`` their artifacts after a crash.  At
    :meth:`start` every worker runs them at once; if any worker fails,
    the whole fleet is killed and the error re-raised.  The pool
    is a context manager; ``stop()`` shuts workers down politely and
    kills stragglers.

    With ``listen="HOST:PORT"`` and a shared ``secret``, one slot per
    ``spawn_commands`` entry (without them, all ``count`` slots) is filled
    by a connect-back TCP worker instead of a local fork; the
    resolved listener address is :attr:`listen_address` (useful with port
    ``0``).  Remote workers spill/warm their caches in per-host warm dirs
    — the pool never assumes a shared cache directory across machines.
    """

    def __init__(
        self,
        count: int,
        *,
        init_ops: Optional[Sequence[Tuple[str, Mapping[str, Any]]]] = None,
        task_timeout: float = DEFAULT_TASK_TIMEOUT,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        listen: Optional[str] = None,
        secret: Optional[str] = None,
        spawn_commands: Optional[Sequence[Sequence[str]]] = None,
        register_timeout: float = DEFAULT_REGISTER_TIMEOUT,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.count = count
        self.init_ops: List[Tuple[str, Dict[str, Any]]] = [
            (str(op), dict(args)) for op, args in (init_ops or [])
        ]
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = max_restarts
        self.register_timeout = register_timeout

        if listen is None:
            if secret is not None:
                raise ValueError("secret= only makes sense with listen=")
            if spawn_commands:
                raise ValueError("spawn_commands require listen=")
            self.listener: Optional[WorkerListener] = None
            remote_count = 0
        else:
            if not secret:
                raise ValueError(
                    "listen= requires a shared secret (secret=...) so only "
                    "handshake-verified workers can register"
                )
            remote_count = len(spawn_commands) if spawn_commands else count
            if remote_count > count:
                raise ValueError(
                    f"got {len(spawn_commands)} spawn_commands for {count} slot(s)"
                )
            self.listener = WorkerListener(listen, secret=secret)
        self.listen_address = self.listener.address if self.listener else None
        self._secret = secret

        launchers: List[Any] = [
            _PipeLauncher() for _ in range(count - remote_count)
        ]
        for index in range(remote_count):
            command = spawn_commands[index] if spawn_commands else None
            launchers.append(_ConnectLauncher(self, command))
        self._workers = [
            _Worker(self, index, launchers[index]) for index in range(count)
        ]
        self._lock = threading.Lock()
        self._id_counter = 0
        self._rr = 0
        self._tasks = 0
        self._retries = 0
        self._failures = 0
        self._restarts = 0
        self._started = False
        self._stopping = False
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._heartbeat_wake = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        if self._started:
            raise RuntimeError("pool is already started")
        if self.listener is not None and self.listener.stopped:
            # stop() and a failed start() close the listener; a restart
            # binds its resolved address again, so a connect-back worker
            # dials a live port.
            self.listener = WorkerListener(self.listen_address, secret=self._secret)
        self._started = True
        self._stopping = False
        try:
            # Launches stay one at a time: a connect-back slot takes the
            # next registration off the shared listener, so only one slot
            # may be waiting for one.  The init ops (a serving ``load``)
            # are the slow part, and every worker runs them at once.
            for worker in self._workers:
                worker.launch()
            self._init(self._workers)
        except BaseException:
            self._stopping = True
            for worker in self._workers:
                worker.kill()
                worker.launcher.close()
            for worker in self._workers:
                if worker.transport is not None:
                    worker.transport.wait_closed(5.0)  # reap: no zombies
            if self.listener is not None:
                self.listener.stop()
            self._started = False  # as stop() leaves it: start() may retry
            raise
        self._heartbeat_wake.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-cluster-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stopping = True
        self._heartbeat_wake.set()
        thread = self._heartbeat_thread
        if thread is not None:
            thread.join(timeout)
            self._heartbeat_thread = None
        for worker in self._workers:
            worker.shutdown(timeout=min(timeout, 5.0))
        for worker in self._workers:
            worker.launcher.close()
        if self.listener is not None:
            self.listener.stop()
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def call(
        self,
        op: str,
        args: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
        retries: int = 2,
        worker: Optional[str] = None,
    ) -> Any:
        """Run one op and return its result.

        Dispatch is round-robin over healthy workers (or pinned with
        ``worker=``).  :class:`WorkerDied` failures are retried on another
        worker up to ``retries`` times — safe because every op in this
        system is an idempotent function of its arguments — so an induced
        crash degrades latency, never correctness.  Raises
        :class:`TaskTimeout` (after killing the wedged worker),
        :class:`RemoteError` for in-worker exceptions, and
        :class:`ClusterUnavailable` when no worker is healthy.
        """
        args = dict(args or {})
        deadline = self.task_timeout if timeout is None else timeout
        attempts = max(1, retries + 1)
        last_death: Optional[WorkerDied] = None
        for attempt in range(attempts):
            target = self._pick(worker)
            with self._lock:
                self._tasks += 1
                if attempt:
                    self._retries += 1
            try:
                future = target.send(op, args)
            except WorkerDied as error:
                last_death = error
                continue
            try:
                return future.result(timeout=deadline)
            except WorkerDied as error:
                last_death = error
                if worker is not None:
                    break  # a pinned call must not silently move hosts
                continue
            except FutureTimeout:
                with self._lock:
                    self._failures += 1
                # The worker is single-threaded: the only way to reclaim
                # it from a wedged op is to kill it (the exit handler
                # respawns it).
                target.kill()
                raise TaskTimeout(
                    f"op {op!r} exceeded {deadline}s on worker {target.name}"
                ) from None
            except RemoteError:
                with self._lock:
                    self._failures += 1
                raise
        with self._lock:
            self._failures += 1
        raise last_death if last_death is not None else ClusterUnavailable(
            "no healthy worker accepted the op"
        )

    def broadcast(
        self,
        op: str,
        args: Optional[Mapping[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run one op on every healthy worker; maps worker name → result.

        Workers that die or error mid-op are simply absent from the
        result — a broadcast is an observation, not a transaction.
        """
        args = dict(args or {})
        deadline = self.task_timeout if timeout is None else timeout
        futures: List[Tuple[str, "Future[Any]"]] = []
        for worker in self._workers:
            if not worker.healthy:
                continue
            try:
                futures.append((worker.name, worker.send(op, args)))
            except WorkerDied:
                continue
        results: Dict[str, Any] = {}
        for name, future in futures:
            try:
                results[name] = future.result(timeout=deadline)
            except (WorkerError, FutureTimeout):
                continue
        return results

    def kill_worker(self, name: str) -> bool:
        """Sever one worker by name (crash/disconnect tests and benchmarks).

        A pipe worker is SIGKILLed; a TCP worker's connection is dropped —
        either way the slot goes through the ordinary restart path.
        """
        for worker in self._workers:
            if worker.name == name:
                worker.kill()
                return True
        return False

    def healthy_workers(self) -> List[str]:
        return [worker.name for worker in self._workers if worker.healthy]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> PoolStats:
        with self._lock:
            tasks, retries = self._tasks, self._retries
            failures, restarts = self._failures, self._restarts
        described = {worker.name: worker.describe() for worker in self._workers}
        return PoolStats(
            count=self.count,
            healthy=sum(1 for entry in described.values() if entry["healthy"]),
            tasks=tasks,
            retries=retries,
            failures=failures,
            restarts=restarts,
            workers=described,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _next_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            return self._id_counter

    def _init(self, workers: Sequence[_Worker]) -> None:
        """Replay the init ops into launched ``workers``, then mark them healthy.

        Each op goes to every worker before any answer is awaited, so the
        workers run it side by side under one :data:`INIT_TIMEOUT` deadline.
        """
        deadline = time.monotonic() + INIT_TIMEOUT
        for op, args in self.init_ops:
            futures = [worker.send(op, args) for worker in workers]
            for future in futures:
                future.result(timeout=max(0.0, deadline - time.monotonic()))
        ready = time.monotonic()
        for worker in workers:
            worker.last_active = ready
            worker.healthy = True

    def _pick(self, name: Optional[str]) -> _Worker:
        with self._lock:
            if name is not None:
                for worker in self._workers:
                    if worker.name == name:
                        if not worker.healthy:
                            raise ClusterUnavailable(
                                f"worker {name} is not healthy right now"
                            )
                        return worker
                raise KeyError(f"unknown worker {name!r}")
            for offset in range(len(self._workers)):
                worker = self._workers[(self._rr + offset) % len(self._workers)]
                if worker.healthy:
                    self._rr = (self._rr + offset + 1) % len(self._workers)
                    return worker
        raise ClusterUnavailable(
            "no healthy worker (all dead or mid-restart); retry shortly"
        )

    def _on_worker_exit(self, worker: _Worker, transport: Transport) -> None:
        """Reader-thread callback when a worker's stream ends."""
        if self._stopping:
            return
        with worker.lock:
            if worker.transport is not transport:
                return  # a stale reader from a previous generation
        if worker.restarts >= self.max_restarts:
            worker.retired = True
            print(
                f"repro.cluster: worker {worker.name} exceeded "
                f"{self.max_restarts} restarts; retiring the slot",
                file=sys.stderr,
            )
            return
        worker.restarts += 1
        with self._lock:
            self._restarts += 1
        threading.Thread(
            target=self._respawn,
            args=(worker, transport),
            name=f"repro-cluster-respawn-{worker.name}",
            daemon=True,
        ).start()

    def _respawn(self, worker: _Worker, transport: Transport) -> None:
        try:
            if not transport.wait_closed(10.0):
                raise TimeoutError(
                    f"previous transport of worker {worker.name} did not close"
                )
            if not self._stopping:
                worker.spawn()
        except Exception as error:
            print(
                f"repro.cluster: respawn of worker {worker.name} failed: {error}",
                file=sys.stderr,
            )
            # One more chance through the same path, until the budget runs
            # out; a worker whose init op keeps failing retires loudly.
            current = worker.transport
            if current is not None:
                self._on_worker_exit(worker, current)

    def _note_protocol_error(self, worker: _Worker, error: ProtocolError) -> None:
        print(
            f"repro.cluster: worker {worker.name} protocol error: {error}; "
            "killing the worker",
            file=sys.stderr,
        )
        worker.kill()

    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_wake.wait(timeout=self.heartbeat_interval):
            for worker in self._workers:
                if not worker.healthy or self._stopping:
                    continue
                with worker.lock:
                    busy = bool(worker.pending)
                    idle_for = time.monotonic() - worker.last_active
                if busy or idle_for < self.heartbeat_interval:
                    # Busy workers are covered by task timeouts; pinging a
                    # single-threaded worker mid-op would only queue up.
                    continue
                try:
                    # The write itself carries a timeout: a peer with full
                    # kernel buffers fails this probe instead of wedging
                    # the loop (and with it, every other worker's checks).
                    worker.send(
                        "ping", {}, write_timeout=self.heartbeat_timeout
                    ).result(timeout=self.heartbeat_timeout)
                except (WorkerError, FutureTimeout, OSError):
                    if not self._stopping:
                        worker.kill()  # the exit handler respawns it
