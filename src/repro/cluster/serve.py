"""Multi-process serving: an HTTP front door over a :class:`WorkerPool`.

``repro serve --workers N`` runs here: N router workers, each a separate
process with its own GIL, all warming from (and spilling into) one shared
operator/logit cache directory, behind a single parent HTTP front door.
The parent load-balances ``/predict`` across healthy workers and
aggregates ``/stats`` and ``/metrics`` across the fleet:

* every ``/predict`` response carries the ``worker`` id that served it;
* ``/metrics`` nests each worker's router snapshot under a ``workers``
  mapping, so every per-shard series carries a ``worker`` label (no
  collisions between N processes serving the same shard names) — plus a
  cluster-wide request-latency histogram merged bucket-by-bucket from the
  workers' histograms (:meth:`repro.obs.HistogramStats.merged`);
* a worker mid-restart simply drops out of rotation; when *no* worker is
  healthy the front door sheds with ``503`` instead of queueing.

The pool replays its ``load`` op into every restarted worker, so a
crashed worker comes back already serving; in-flight requests that die
with a worker are transparently retried on a survivor (ops are
idempotent), so one crash degrades latency, never correctness.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..obs.histogram import HistogramStats
from ..obs.prometheus import render_prometheus
from ..serving.http import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    REQUEST_TIMEOUT,
    BaseHttpServer,
    parse_predict_body,
)
from .net import CONNECT_PLACEHOLDER, read_secret, ssh_worker_command
from .pool import (
    ClusterUnavailable,
    RemoteError,
    TaskTimeout,
    WorkerDied,
    WorkerPool,
)

if TYPE_CHECKING:
    from ..api.config import ServeConfig

#: worker-side exception class names mapped onto front-door status codes;
#: anything else is a plain in-worker failure (500).  The 400s are the
#: request errors the single-process door answers 400 too.
_REMOTE_STATUS = {
    "UnknownShard": 404,
    "ServerOverloaded": 429,
    "IndexError": 400,
    "ValueError": 400,
    "TypeError": 400,
}


class ClusterHttpServer(BaseHttpServer):
    """HTTP front door load-balancing over a :class:`WorkerPool`.

    Pool calls are blocking (they wait on a worker pipe), so handlers run
    them on the default thread-pool executor — the event loop stays free
    to accept connections while N workers crunch in parallel.  The server
    owns the pool's lifecycle: :meth:`start` starts the pool before
    binding, and :meth:`stop` stops it after the drain.
    """

    def __init__(
        self, pool: WorkerPool, *, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
    ) -> None:
        super().__init__(host=host, port=port)
        self.pool = pool

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterHttpServer":
        self.pool.start()
        try:
            super().start()
        except BaseException:
            self.pool.stop()
            raise
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        try:
            super().stop(timeout)
        finally:
            self.pool.stop()

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    async def _pool_call(self, op: str, args: Dict[str, Any]) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(self.pool.call, op, args, timeout=REQUEST_TIMEOUT),
        )

    async def _pool_broadcast(self, op: str) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(self.pool.broadcast, op, {}, timeout=REQUEST_TIMEOUT),
        )

    @staticmethod
    def _host_summary(
        worker_stats: Mapping[str, Mapping[str, Any]]
    ) -> Dict[str, Dict[str, int]]:
        """Per-host rollup of the fleet (a cross-machine pool spans several).

        Keys become a ``host`` label dimension in ``/metrics``; values stay
        numeric so the Prometheus walker renders every field.
        """
        hosts: Dict[str, Dict[str, int]] = {}
        for entry in worker_stats.values():
            if not isinstance(entry, Mapping):
                continue
            host = str(entry.get("host") or "local")
            summary = hosts.setdefault(host, {"workers": 0, "ops_done": 0})
            summary["workers"] += 1
            summary["ops_done"] += int(entry.get("ops_done", 0) or 0)
        return hosts

    def _cluster_snapshot(
        self, worker_stats: Mapping[str, Mapping[str, Any]]
    ) -> Dict[str, object]:
        """The fleet as one stats tree: pool counters, per-worker routers,
        a per-host rollup, and the cluster-wide latency histogram merged
        across workers."""
        routers = {
            name: entry["router"]
            for name, entry in sorted(worker_stats.items())
            if isinstance(entry, Mapping) and entry.get("router")
        }
        histograms = []
        for snapshot in routers.values():
            latency = snapshot.get("latency")
            if isinstance(latency, Mapping):
                try:
                    histograms.append(HistogramStats.from_dict(latency))
                except ValueError:
                    continue  # foreign bucket layout; never merge blindly
        return {
            "pool": self.pool.snapshot(),
            "workers": routers,
            "hosts": self._host_summary(worker_stats),
            "latency": HistogramStats.merged(histograms).as_dict(),
        }

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _handlers(
        self,
    ) -> Dict[str, Tuple[str, Callable[..., Awaitable[Tuple[int, object]]]]]:
        return {
            "/predict": ("POST", self._handle_predict),
            "/health": ("GET", self._handle_health),
            "/shards": ("GET", self._handle_shards),
            "/stats": ("GET", self._handle_stats),
            "/metrics": ("GET", self._handle_metrics),
        }

    async def _handle_health(self, *, query: str, body: bytes) -> Tuple[int, object]:
        healthy = self.pool.healthy_workers()
        return (200 if healthy else 503), {
            "status": "ok" if healthy else "unavailable",
            "workers": healthy,
            "count": self.pool.count,
            "uptime_s": round(time.time() - self._started_at, 3),
        }

    async def _handle_shards(self, *, query: str, body: bytes) -> Tuple[int, object]:
        worker_stats = await self._pool_broadcast("stats")
        shards = [
            {"worker": name, **shard}
            for name, entry in sorted(worker_stats.items())
            for shard in entry.get("shards", ())
        ]
        return 200, {"shards": shards}

    async def _handle_stats(self, *, query: str, body: bytes) -> Tuple[int, object]:
        worker_stats = await self._pool_broadcast("stats")
        return 200, {
            "pool": self.pool.snapshot(),
            "workers": {name: worker_stats[name] for name in sorted(worker_stats)},
            "hosts": self._host_summary(worker_stats),
            "http": self.snapshot(),
        }

    async def _handle_metrics(self, *, query: str, body: bytes) -> Tuple[int, object]:
        """Aggregated ``/metrics``; worker series carry a ``worker`` label."""
        worker_stats = await self._pool_broadcast("stats")
        text = (
            render_prometheus(self._cluster_snapshot(worker_stats), prefix="repro_cluster")
            + self._http_metrics_lines()
        )
        return 200, text

    async def _handle_predict(self, *, query: str, body: bytes) -> Tuple[int, object]:
        try:
            node_ids, shard = parse_predict_body(body)
        except ValueError as error:
            return 400, {"error": str(error)}

        try:
            result = await self._pool_call(
                "predict",
                {"node_ids": node_ids, "shard": shard, "timeout": REQUEST_TIMEOUT},
            )
        except ClusterUnavailable as error:
            # Every worker is dead or mid-restart: shed, don't queue.
            return 503, {
                "error": str(error),
                "workers": self.pool.healthy_workers(),
            }
        except WorkerDied as error:
            # Retries exhausted with workers dying under the op.
            return 503, {"error": str(error)}
        except TaskTimeout as error:
            return 500, {"error": str(error)}
        except RemoteError as error:
            status = _REMOTE_STATUS.get(error.error_type, 500)
            return status, {"error": str(error), "error_type": error.error_type}
        return 200, result


def serve_cluster(
    artifacts: Sequence[str],
    *,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    serve: Optional[ServeConfig] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    max_restarts: int = 3,
    listen: Optional[str] = None,
    secret_file: Optional[str] = None,
    worker_hosts: Optional[Sequence[str]] = None,
    ssh_python: str = "python3",
) -> ClusterHttpServer:
    """Build (not start) the multi-process serving stack.

    The pool's ``load`` init op ships the artifact paths, the cache
    directory and the serve limits to every worker — at first spawn *and*
    after every crash restart, which is what makes restarts transparent.
    Returns a :class:`ClusterHttpServer` owning the pool; use it as a
    context manager or call ``start()``/``stop()``.

    With ``listen="HOST:PORT"`` (plus the shared secret in
    ``secret_file``) worker slots are filled by connect-back TCP workers
    instead of local forks: ``worker_hosts`` names machines to ssh a
    worker onto (one slot each, respawned over ssh after a crash; the
    other slots fork locally); without it every slot waits for an
    externally-started ``--connect`` worker.  Remote workers ignore ``cache_dir`` — a parent-machine path
    means nothing to them — and warm/spill in their own per-host warm dir.
    """
    load_args: Dict[str, Any] = {
        "artifacts": [str(artifact) for artifact in artifacts],
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
        "serve": asdict(serve) if serve is not None else {},
    }
    secret = read_secret(secret_file) if secret_file is not None else None
    spawn_commands = None
    if worker_hosts:
        if secret_file is None:
            raise ValueError(
                "worker_hosts need secret_file= (the secret must exist as a "
                "file on the remote hosts; it never rides in argv)"
            )
        spawn_commands = [
            ssh_worker_command(
                worker_host, CONNECT_PLACEHOLDER, secret_file, python=ssh_python
            )
            for worker_host in worker_hosts
        ]
    pool = WorkerPool(
        workers,
        init_ops=[("load", load_args)],
        task_timeout=REQUEST_TIMEOUT,
        max_restarts=max_restarts,
        listen=listen,
        secret=secret,
        spawn_commands=spawn_commands,
    )
    return ClusterHttpServer(pool, host=host, port=port)
