"""Asyncio HTTP front door over the :class:`~repro.serving.router.ShardRouter`.

Pure stdlib — ``asyncio.start_server`` plus hand-rolled HTTP/1.1 framing —
so serving over the network costs no dependency.  The framing, lifecycle
and counting machinery lives in :class:`BaseHttpServer`, which subclasses
specialise by providing a route table (:meth:`BaseHttpServer._handlers`)
and a ``/metrics`` payload; :class:`HttpServer` is the single-process
front door over one in-process router, and
:class:`repro.cluster.serve.ClusterHttpServer` reuses the same base over
a pool of worker processes.  Each door starts and stops what it serves.

One :class:`HttpServer` exposes a registered router as:

``POST /predict``
    ``{"node_ids": [...], "shard": "..."}`` → predictions plus the
    request's per-stage trace spans and latency.  Back-pressure is load
    *shedding*: a router at capacity answers ``429`` immediately instead
    of queueing the connection.
``GET /health``
    liveness plus shard count and uptime;
``GET /shards``
    the registered shards with their full engine snapshots (including the
    per-shard latency histograms);
``GET /stats``
    the router snapshot (JSON) with the HTTP layer's own counters under
    ``"http"``;
``GET /metrics``
    Prometheus text exposition 0.0.4 of every counter and histogram
    (:func:`repro.obs.prometheus.render_prometheus`);
``GET /traces``
    the most recent completed request traces across all shards
    (``?limit=`` bounds the count).

The server runs its own event loop on a daemon thread —
:meth:`BaseHttpServer.start` returns once the socket is bound (``port=0``
picks a free port), :meth:`BaseHttpServer.stop` shuts it down from any
thread — so it composes with the synchronous training / session code
without the caller owning an event loop.  Shutdown *drains*: requests
already being handled finish and deliver their responses (bounded by
``drain_timeout``); only idle keep-alive connections are cancelled.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs.prometheus import escape_label_value, render_prometheus
from ..obs.stats import Stats, StatsSource
from .engine import InferenceTicket, ServerOverloaded
from .router import ShardRouter, UnknownShard

#: default bind address; loopback because nothing here authenticates.
DEFAULT_HOST = "127.0.0.1"

#: default port (0 lets the OS pick, which tests and benchmarks use).
DEFAULT_PORT = 8100

#: default cap on a request body; /predict payloads are node-id lists.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: bound on one /predict round trip, and on a cluster door's pool calls.
REQUEST_TIMEOUT = 60.0

#: default bound on waiting for in-flight requests during shutdown.
DEFAULT_DRAIN_TIMEOUT = 5.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: node ids index int64 rows, so no id outside ``[0, 2**63)`` names a node.
_NODE_ID_BOUND = 1 << 63

#: routes counted by name; anything else folds into one bucket so a scan
#: of random paths cannot blow up the stats (or /metrics) cardinality.
KNOWN_ROUTES = ("/predict", "/health", "/shards", "/stats", "/metrics", "/traces")

_OTHER_ROUTE = "<other>"


def parse_predict_body(body: bytes) -> Tuple[Optional[List[int]], Optional[str]]:
    """Validate a ``/predict`` body into ``(node_ids, shard)``.

    Both front doors (this module's and :mod:`repro.cluster.serve`) parse
    through here, so they reject the same requests.  Raises
    :class:`ValueError` with the client-facing message of the 400 answer.
    """
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    node_ids = payload.get("node_ids")
    if node_ids is not None and not (
        isinstance(node_ids, list)
        and all(isinstance(node, int) and not isinstance(node, bool) for node in node_ids)
    ):
        raise ValueError("node_ids must be a list of integers")
    if node_ids and not all(0 <= node < _NODE_ID_BOUND for node in node_ids):
        raise ValueError("node_ids must lie in [0, 2**63)")
    shard = payload.get("shard")
    if shard is not None and not isinstance(shard, str):
        raise ValueError("shard must be a string")
    return node_ids, shard


def predict_answer(shard: str, ticket: InferenceTicket) -> Dict[str, object]:
    """The ``/predict`` answer for a successfully completed ticket.

    Both front doors answer with it: :class:`HttpServer` directly, and
    :mod:`repro.cluster.serve` through the worker, which adds its
    ``worker`` id.  ``spans`` sum to ``total_ms``.
    """
    spans = ticket.spans()
    return {
        "shard": shard,
        "predictions": ticket.result(timeout=0).tolist(),
        "latency_ms": round(1e3 * (ticket.latency_seconds or 0.0), 4),
        "spans": {stage: round(value, 4) for stage, value in spans.items()},
        "total_ms": round(sum(spans.values()), 4),
    }


@dataclass
class HttpStats(Stats):
    """Front-door HTTP counters.

    ``routes`` maps route → status code (as a string, for JSON) → count;
    unknown paths share the ``<other>`` bucket.  ``shed`` counts the 429
    and 503 responses — the load the server refused rather than queued.
    """

    connections: int = 0
    requests: int = 0
    shed: int = 0
    routes: Dict[str, Dict[str, int]] = field(default_factory=dict)


class BaseHttpServer(StatsSource):
    """HTTP/1.1 keep-alive server skeleton on a private event loop.

    Owns everything that is not application-specific: the daemon serving
    thread, socket lifecycle, request framing, per-route/status counters,
    and drain-on-shutdown.  A subclass provides :meth:`_handlers` — a
    mapping of path → (method, async handler) — and its ``/metrics``
    handler appends :meth:`_http_metrics_lines` to its own series.
    ``start()``/``stop()`` are safe to call from synchronous code.

    ``stop()`` first closes the listener, then waits up to
    ``drain_timeout`` seconds for requests that are mid-handler to write
    their responses, and only then cancels whatever is left (idle
    keep-alive connections, or handlers that overstayed the drain).
    """

    def __init__(
        self,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {drain_timeout}")
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self._lock = threading.Lock()
        self._connections = 0
        self._requests = 0
        self._shed = 0
        self._routes: Dict[str, Dict[str, int]] = {}
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._active: set = set()
        self._busy: set = set()
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._started_at = time.time()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BaseHttpServer":
        """Bind and serve on a daemon thread; returns once the port is open."""
        if self._thread is not None:
            raise RuntimeError("HTTP server is already started")
        self._ready.clear()
        self._failure = None
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("HTTP server did not come up within 30s")
        if self._failure is not None:
            failure, self._failure = self._failure, None
            self._thread.join(timeout=5.0)
            self._thread = None
            raise failure
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop listening, drain in-flight requests, join the thread."""
        thread = self._thread
        if thread is None:
            return
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "BaseHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._amain())
        except BaseException as error:  # surfaced to start() via _failure
            self._failure = error
        finally:
            self._loop = None
            loop.close()
            self._ready.set()

    async def _amain(self) -> None:
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        # port=0 binds an ephemeral port; publish the real one before the
        # starting thread is released.
        self.port = server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self._ready.set()
        async with server:
            await self._shutdown.wait()
        # Drain: a request that is mid-handler gets to finish and deliver
        # its response — killing it would turn a graceful restart into a
        # dropped request.  Only after the drain window do we cancel what
        # is left (idle keep-alive connections, overstaying handlers).
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self.drain_timeout
        while self._busy and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._active):
            task.cancel()
        if self._active:
            await asyncio.gather(*self._active, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    def stats(self) -> HttpStats:
        with self._lock:
            return HttpStats(
                connections=self._connections,
                requests=self._requests,
                shed=self._shed,
                routes={route: dict(by) for route, by in self._routes.items()},
            )

    def _count(self, route: str, status: int) -> None:
        if route not in KNOWN_ROUTES:
            route = _OTHER_ROUTE
        with self._lock:
            self._requests += 1
            if status in (429, 503):
                self._shed += 1
            by_status = self._routes.setdefault(route, {})
            key = str(status)
            by_status[key] = by_status.get(key, 0) + 1

    def _http_metrics_lines(self) -> str:
        """Prometheus exposition of the base HTTP counters."""
        stats = self.stats()
        lines = [
            "# HELP repro_http_connections_total TCP connections accepted",
            "# TYPE repro_http_connections_total counter",
            f"repro_http_connections_total {stats.connections}",
            "# HELP repro_http_shed_total requests answered 429/503 under back-pressure",
            "# TYPE repro_http_shed_total counter",
            f"repro_http_shed_total {stats.shed}",
            "# HELP repro_http_requests_total HTTP requests by route and status",
            "# TYPE repro_http_requests_total counter",
        ]
        for route in sorted(stats.routes):
            for status in sorted(stats.routes[route]):
                labels = (
                    f'route="{escape_label_value(route)}",'
                    f'status="{escape_label_value(status)}"'
                )
                lines.append(
                    f"repro_http_requests_total{{{labels}}} {stats.routes[route][status]}"
                )
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._active.add(task)
        with self._lock:
            self._connections += 1
        try:
            while await self._handle_one(reader, writer):
                if self._shutdown is not None and self._shutdown.is_set():
                    break  # draining: no new requests on this connection
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass  # client hung up mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down under this idle connection
        finally:
            if task is not None:
                self._active.discard(task)
                self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns whether to keep the connection open."""
        try:
            request_line = await reader.readline()
        except ValueError:  # line longer than the stream limit
            await self._respond(writer, _OTHER_ROUTE, 400, {"error": "request line too long"}, close=True)
            return False
        if not request_line:
            return False  # clean EOF between requests
        # From here this connection is mid-request: the drain in _amain
        # waits for it to write its response before tearing anything down.
        task = asyncio.current_task()
        if task is not None:
            self._busy.add(task)
        try:
            return await self._serve_request(request_line, reader, writer)
        finally:
            if task is not None:
                self._busy.discard(task)

    async def _serve_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        parts = request_line.decode("latin-1", "replace").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._respond(writer, _OTHER_ROUTE, 400, {"error": "malformed request line"}, close=True)
            return False
        method, target, version = parts

        headers: Dict[str, str] = {}
        while True:
            try:
                header_line = await reader.readline()
            except ValueError:
                await self._respond(writer, _OTHER_ROUTE, 400, {"error": "header too long"}, close=True)
                return False
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, separator, value = header_line.decode("latin-1", "replace").partition(":")
            if not separator or len(headers) >= 100:
                await self._respond(writer, _OTHER_ROUTE, 400, {"error": "malformed header"}, close=True)
                return False
            headers[name.strip().lower()] = value.strip()

        try:
            content_length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            await self._respond(writer, _OTHER_ROUTE, 400, {"error": "bad Content-Length"}, close=True)
            return False
        if content_length < 0 or content_length > self.max_body_bytes:
            await self._respond(
                writer,
                _OTHER_ROUTE,
                413,
                {"error": f"body exceeds {self.max_body_bytes} bytes"},
                close=True,
            )
            return False
        body = await reader.readexactly(content_length) if content_length else b""

        url = urlsplit(target)
        path = url.path or "/"
        keep_alive = headers.get("connection", "").lower() != "close" and version != "HTTP/1.0"

        status, payload = await self._route(method, path, url.query, body)
        if isinstance(payload, str):
            raw = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            raw = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        self._count(path, status)
        await self._write(writer, status, raw, content_type, close=not keep_alive)
        return keep_alive

    async def _respond(
        self, writer: asyncio.StreamWriter, route: str, status: int, payload: Dict[str, object], *, close: bool
    ) -> None:
        self._count(route, status)
        raw = (json.dumps(payload) + "\n").encode("utf-8")
        await self._write(writer, status, raw, "application/json", close=close)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        raw: bytes,
        content_type: str,
        *,
        close: bool,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(raw)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + raw)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _handlers(
        self,
    ) -> Dict[str, Tuple[str, Callable[..., Awaitable[Tuple[int, object]]]]]:
        """path → (expected method, async handler); provided by subclasses."""
        raise NotImplementedError

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, object]:
        handlers = self._handlers()
        entry = handlers.get(path)
        if entry is None:
            return 404, {"error": f"unknown path {path!r}", "routes": list(handlers)}
        expected, handler = entry
        if method != expected:
            return 405, {"error": f"{path} expects {expected}, got {method}"}
        try:
            return await handler(query=query, body=body)
        except Exception as error:  # a handler bug must not kill the loop
            return 500, {"error": f"{type(error).__name__}: {error}"}


class HttpServer(BaseHttpServer):
    """Serve one in-process :class:`ShardRouter` over HTTP/1.1.

    Request handling submits on the event loop through
    :meth:`ShardRouter.asubmit_ticket`: admission never waits (a full
    router answers 429) and inference runs on the engines' threads, so
    nothing blocks the loop.  The server owns the router's lifecycle:
    :meth:`start` starts the router before binding, and :meth:`stop`
    stops it after the drain.
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_body_bytes=max_body_bytes,
            drain_timeout=drain_timeout,
        )
        self.router = router

    def start(self) -> "HttpServer":
        self.router.start()
        try:
            super().start()
        except BaseException:
            self.router.stop()
            raise
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        try:
            super().stop(timeout)
        finally:
            self.router.stop()

    def _handlers(
        self,
    ) -> Dict[str, Tuple[str, Callable[..., Awaitable[Tuple[int, object]]]]]:
        return {
            "/predict": ("POST", self._handle_predict),
            "/health": ("GET", self._handle_health),
            "/shards": ("GET", self._handle_shards),
            "/stats": ("GET", self._handle_stats),
            "/metrics": ("GET", self._handle_metrics),
            "/traces": ("GET", self._handle_traces),
        }

    async def _handle_health(self, *, query: str, body: bytes) -> Tuple[int, object]:
        return 200, {
            "status": "ok",
            "shards": len(self.router),
            "uptime_s": round(time.time() - self._started_at, 3),
        }

    async def _handle_shards(self, *, query: str, body: bytes) -> Tuple[int, object]:
        return 200, {
            "shards": [
                {
                    "name": info.name,
                    "model": info.model_name,
                    "fingerprint": info.fingerprint,
                    "stats": info.engine.snapshot(),
                }
                for info in self.router.shards()
            ]
        }

    async def _handle_stats(self, *, query: str, body: bytes) -> Tuple[int, object]:
        snapshot = self.router.snapshot()
        snapshot["http"] = self.snapshot()
        return 200, snapshot

    async def _handle_metrics(self, *, query: str, body: bytes) -> Tuple[int, object]:
        """The router snapshot plus the HTTP counters, as Prometheus text."""
        text = (
            render_prometheus(self.router.snapshot(), prefix="repro_router")
            + self._http_metrics_lines()
        )
        return 200, text

    async def _handle_traces(self, *, query: str, body: bytes) -> Tuple[int, object]:
        params = parse_qs(query)
        raw_limit = params.get("limit", ["50"])[-1]
        try:
            limit = int(raw_limit)
        except ValueError:
            return 400, {"error": f"limit must be an integer, got {raw_limit!r}"}
        return 200, {"traces": self.router.recent_traces(limit=limit)}

    async def _handle_predict(self, *, query: str, body: bytes) -> Tuple[int, object]:
        try:
            node_ids, shard = parse_predict_body(body)
        except ValueError as error:
            return 400, {"error": str(error)}

        # Resolve before paying for a back-pressure slot so an unknown
        # shard is a routing error (404), never an overload signal.
        try:
            info = self.router.resolve(shard=shard)
        except UnknownShard as error:
            # KeyError subclasses repr() their message in __str__; unwrap it.
            return 404, {"error": error.args[0] if error.args else str(error)}

        try:
            ticket = await self.router.asubmit_ticket(
                node_ids, shard=info.name, timeout=REQUEST_TIMEOUT
            )
            ticket.result(timeout=0)  # re-raises the request's own failure
        except ServerOverloaded:
            return 429, {
                "error": "router is at capacity; retry later",
                "max_pending": self.router.max_pending,
            }
        except asyncio.TimeoutError:
            return 500, {"error": f"request timed out after {REQUEST_TIMEOUT}s"}
        except (IndexError, ValueError, TypeError) as error:
            return 400, {"error": f"{type(error).__name__}: {error}"}
        return 200, predict_answer(info.name, ticket)
