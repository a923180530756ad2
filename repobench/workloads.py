"""The benchmark's four workloads, driven through the program's public APIs.

Each workload takes a :class:`Context` and returns an :class:`Outcome`:
the operations attempted and failed, its end-to-end metrics, and the
per-layer numbers it reads from what the program already exports
(``/predict`` spans, ``ticket.spans()``, ``stats()`` counters and pool
counters).  Inputs are generated from the seed before the clock starts
and answers are checked after it stops.  A request that fails, is shed,
times out or is answered wrongly counts as failed and enters the latency
percentiles as +inf.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`)
over its own unit of work, the operation: a ``/predict`` request on the
front door, a read in churn and a whole sweep in train_sweep.  churn's
swap times are per-layer metrics.

No workload sets a field of ``ServeConfig`` or a tuning argument of
``serve_cluster``.  The only settings passed are deployment ones (port 0,
two workers, the cache directory), so a default the program changes is
measured the way users get it.

``hot_http``
    Memoised reads through ``Session().serve_http`` over MLP on texas,
    MLP on chameleon and ADPA on the ogbn-arxiv stand-in, set up cold:
    latency is almost all front-door overhead.
``churn``
    ``Session().serve`` of SGC on a DSBM graph: open-loop reads of 16 ids
    next to one graph-changing ``GraphDelta`` per period through
    ``update_shard``.  Swaps and the misses after them set the tail.
``cluster_http``
    hot_http's traffic through ``serve_cluster`` with two workers,
    warm-started from the cache directory spilled at preparation.
``train_sweep``
    ``Session().experiment`` over ADPA, DirGNN and GCN on chameleon and
    coraml at a fixed epoch count, repeated over the window: the only
    workload that runs backward passes.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import json
import math
import resource
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import ExperimentConfig, GraphDelta, HttpConfig, Session, SweepSpec, TrainConfig
from repro.cluster import serve_cluster
from repro.graph.io import load_graph
from repro.serving import tune_allocator_for_churn

import tracing
from prepare import CHURN, CLUSTER_CACHE, FRONT_DOOR

#: Zipf exponent of the shard choice, as in benchmarks/bench_http.py.
ZIPF_ALPHA = 1.1
#: front-door node-id lists are log-uniform in length from 1 to this.
MAX_IDS = 256
#: closed-loop connections, one per core of the two-core reference host.
CONNECTIONS = 2
#: cluster_http's worker processes.
WORKERS = 2
#: bound on one request or swap; a failure reads as this in percentiles.
TIMEOUT_S = 60.0
#: front-door requests generated per second of window, above any rate
#: reached; a faster program wraps around to the first.
MAX_RATE = 1500
#: node ids per churn read.
CHURN_IDS = 16
#: shares of the churn delta kinds: edge insert, edge removal, feature row.
CHURN_MIX = (0.45, 0.45, 0.10)
#: the request stages the engine exports, in order.
STAGES = ("queue", "cache", "forward", "deliver")
SWEEP_MODELS = ("ADPA", "DirGNN", "GCN")
SWEEP_DATASETS = ("chameleon", "coraml")
try:  # glibc's malloc_trim hands freed heap pages back to the system
    MALLOC_TRIM = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    MALLOC_TRIM = None
#: the end-to-end metrics every workload reports.  No tail percentile and
#: no mean: a run of train_sweep holds too few sweeps for a tail with ten
#: beyond it, and churn's read tail is set by swaps, whose cost rose with
#: the load of the shared two-core host, so that its p99 and its mean
#: moved by more than the largest allowed bound between runs.  Swap times
#: are per-layer metrics instead.
END_TO_END = ("p50_ms", "ops_per_s", "ok_share", "setup_s", "peak_rss_mb", "accuracy")


@dataclass(frozen=True)
class Size:
    """How much one run does; ``tiny`` is the self-test's size."""

    setups: int  # set-ups per run of hot_http and churn
    cluster_setups: int
    sweep_setups: int  # train_sweep set-ups timed before each sweep
    churn_rate: float  # open-loop reads per second
    swap_period: float  # seconds between churn deltas
    checks: int  # churn answers checked bitwise
    epochs: int  # epochs of every train_sweep fit
    strict: bool  # a percentile needs ten samples beyond it


SIZES = {
    "full": Size(9, 3, 2, 150.0, 0.1, 12, 10, True),
    "tiny": Size(2, 1, 1, 100.0, 0.1, 3, 2, False),
}


@dataclass
class Context:
    prep: Path
    seed: int
    seconds: float
    size: Size
    recorder: Optional[tracing.SpanRecorder] = None
    #: corrupt one answer before it is checked (the self-test's probe).
    corrupt: bool = False

    def record(self, on: bool) -> None:
        if self.recorder is not None:
            self.recorder.active = on

    def mark(self) -> int:
        return len(self.recorder.spans) if self.recorder is not None else 0

    def since(self, mark: int) -> List[tracing.Span]:
        return self.recorder.spans[mark:] if self.recorder is not None else []


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: traced serving runs: (layer, mean ms per answered request) rows
    #: that sum to the client-observed mean latency.
    breakdown: List[Tuple[str, float]] = field(default_factory=list)
    #: median request latency (or sweep time), ms; its traced minus
    #: untraced difference is the tracing overhead.
    p50_ms: float = 0.0


def percentile(values: Sequence[float], q: float, strict: bool = True) -> float:
    """Nearest-rank percentile in ms; a failure (+inf) reads as the timeout.

    With ``strict`` at least ten samples must lie beyond it; otherwise an
    empty sample reads 0.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if strict and len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than ten beyond it")
    if not ordered:
        return 0.0
    return min(ordered[rank - 1], 1e3 * TIMEOUT_S)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(
    latencies: Sequence[float],
    elapsed: float,
    outcome: "Outcome",
    strict: bool,
    **rest: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one window of operations.

    ``latencies`` holds one value (ms) per operation, +inf for a failed
    one, which reads as the timeout in the median.  ``ops_per_s`` counts
    the answered operations.
    """
    metrics = {
        "p50_ms": percentile(latencies, 50, strict),
        "ops_per_s": sum(1 for value in latencies if math.isfinite(value)) / elapsed,
        "ok_share": 1.0 - ratio(outcome.failed, outcome.attempted),
        **rest,
    }
    return {name: metrics[name] for name in END_TO_END}


def settle() -> None:
    """Free what the last set-up left behind before the next starts.

    A stopped stack that sits in a reference cycle would otherwise live
    until the collector happened to run, and the heap pages it freed
    would stay resident.  Without both, how much of the earlier stacks
    overlapped the last one moved hot_http's memory high-water mark
    between 320 and 400 MB from run to run.
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


# ---------------------------------------------------------------------- #
# Front door: hot_http and cluster_http
# ---------------------------------------------------------------------- #
class HttpClient:
    """A keep-alive HTTP/1.1 client on one blocking socket."""

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self._connect()

    def _connect(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")

    def send(self, raw: bytes) -> Tuple[int, bytes]:
        """Write one whole request; returns the response status and body."""
        self.sock.sendall(raw)
        status_line = self.stream.readline()
        if not status_line:
            raise ConnectionError("the server closed the connection")
        length = 0
        while True:
            line = self.stream.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return int(status_line.split()[1]), self.stream.read(length)

    def get_json(self, path: str) -> dict:
        status, body = self.send(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def reconnect(self) -> None:
        self.close()
        self._connect()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def predict_request(shard: str, ids: Sequence[int]) -> bytes:
    body = json.dumps({"node_ids": list(ids), "shard": shard}).encode()
    head = b"POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


@dataclass
class Job:
    shard: str
    ids: np.ndarray
    raw: bytes


def front_door_jobs(seed: int, shards: Sequence[Tuple[str, int]], count: int) -> List[Job]:
    """Zipf-skewed shard picks with log-uniform id-list lengths."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(shards) + 1) ** ZIPF_ALPHA
    picks = rng.choice(len(shards), size=count, p=weights / weights.sum())
    lengths = np.exp(rng.uniform(0.0, math.log(MAX_IDS + 1), size=count)).astype(np.int64)
    jobs = []
    for pick, length in zip(picks, np.clip(lengths, 1, MAX_IDS)):
        name, nodes = shards[pick]
        ids = rng.integers(0, nodes, size=int(length))
        jobs.append(Job(name, ids, predict_request(name, ids.tolist())))
    return jobs


def closed_loop(server, jobs: Sequence[Job], seconds: float) -> Tuple[List[tuple], float]:
    """CONNECTIONS clients, each sending its next job once the last returned.

    Client ``c`` sends jobs ``c, c + CONNECTIONS, ...`` (wrapping around),
    so which job a request carries is fixed by the seed.  Returns ``(job,
    start, end, status, body)`` per request and the time from the start to
    the last response.
    """
    clients = [HttpClient(server.host, server.port) for _ in range(CONNECTIONS)]
    logs: List[List[tuple]] = [[] for _ in clients]
    ready = threading.Barrier(CONNECTIONS + 1)
    began = [0.0]

    def drive(slot: int) -> None:
        client, log, index = clients[slot], logs[slot], slot
        ready.wait()
        end = began[0] + seconds
        while True:
            started = time.perf_counter()
            if started >= end:
                return
            try:
                status, body = client.send(jobs[index % len(jobs)].raw)
            except OSError:
                status, body = -1, b""
                client.reconnect()
            log.append((index, started, time.perf_counter(), status, body))
            index += CONNECTIONS

    threads = [
        threading.Thread(target=drive, args=(slot,), daemon=True) for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    began[0] = time.perf_counter()
    ready.wait()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    results = [entry for log in logs for entry in log]
    last = max((entry[2] for entry in results), default=began[0] + seconds)
    return results, last - began[0]


def answer_every_shard(server, shards: Sequence[str], workers: int) -> None:
    """Set-up ends once every shard has answered from every worker."""
    client = HttpClient(server.host, server.port)
    try:
        for shard in shards:
            seen = set()
            for _ in range(20 * workers):
                status, body = client.send(predict_request(shard, [0]))
                if status != 200:
                    raise RuntimeError(f"set-up request to {shard} answered {status}: {body[:200]!r}")
                seen.add(json.loads(body).get("worker"))
                if len(seen) == workers:
                    break
            else:
                raise RuntimeError(f"{shard} did not answer from all {workers} workers")
    finally:
        client.close()


def engine_totals(routers: Sequence[dict]) -> Dict[str, float]:
    """Engine and cache counters summed over router snapshots.

    The shards of one router share its operator and logit caches, so those
    are read once per router.
    """
    totals = dict.fromkeys((
        "requests", "batches", "forwards", "logit_hits", "logit_lookups", "operator_hits",
        "operator_lookups", "preprocess_calls", "preprocess_ms", "compiles",
    ), 0.0)
    for router in routers:
        shards = list(router["shards"].values())
        for shard in shards:
            for key in ("requests", "batches", "forwards"):
                totals[key] += shard[key]
        if shards:
            logits, operators = shards[0]["logit_cache"], shards[0]["cache"]
            totals["logit_hits"] += logits["hits"]
            totals["logit_lookups"] += logits["hits"] + logits["misses"]
            totals["operator_hits"] += operators["hits"]
            totals["operator_lookups"] += operators["hits"] + operators["misses"]
            latency = operators.get("preprocess_latency") or {}
            totals["preprocess_calls"] += latency.get("count", 0)
            totals["preprocess_ms"] += latency.get("sum_ms", 0.0)
        totals["compiles"] += (router.get("trace") or {}).get("compiles", 0)
    return totals


def engine_layers(spans: Sequence[dict], before: dict, after: dict) -> Dict[str, float]:
    """Engine and cache metrics from exported spans and counter deltas.

    The operator cache is consulted at set-up, so its hit share and mean
    ``preprocess`` time cover the serving stack's whole life; the rest
    covers the timed window.
    """
    def stage(name: str) -> List[float]:
        return [entry.get(name, 0.0) for entry in spans]

    change = {key: after[key] - before[key] for key in after}
    return {
        "engine.queue_ms.p50": percentile(stage("queue"), 50, strict=False),
        "engine.queue_ms.p99": percentile(stage("queue"), 99, strict=False),
        "engine.forward_ms.p99": percentile(stage("forward"), 99, strict=False),
        "engine.deliver_ms.p50": percentile(stage("deliver"), 50, strict=False),
        "engine.batch_size": ratio(change["requests"], change["batches"]),
        "engine.forwards": change["forwards"],
        "cache.logit_hit_share": ratio(change["logit_hits"], change["logit_lookups"]),
        "cache.operator_hit_share": ratio(after["operator_hits"], after["operator_lookups"]),
        "cache.preprocess_ms": ratio(after["preprocess_ms"], after["preprocess_calls"]),
    }


def breakdown_rows(
    client_ms: float, rows: List[Tuple[str, float]], spans: Sequence[dict]
) -> List[Tuple[str, float]]:
    """``rows``, the engine's stages and the part no span covers."""
    rows = rows + [
        (f"engine.{name}", tracing.mean([entry.get(name, 0.0) for entry in spans]))
        for name in STAGES
    ]
    return rows + [("unattributed", client_ms - sum(value for _, value in rows))]


def front_door(ctx: Context, build: Callable, setups: int, cluster: bool) -> Outcome:
    """``setups`` cold set-ups of the stack ``build`` makes, then a closed loop."""
    directories = [str(ctx.prep / name) for name in FRONT_DOOR]
    handles = [Session().restore(directory) for directory in directories]
    reference = {handle.graph.name: handle.predict() for handle in handles}
    labels = {handle.graph.name: handle.graph.labels for handle in handles}
    shards = [(handle.graph.name, handle.graph.num_nodes) for handle in handles]
    del handles
    jobs = front_door_jobs(ctx.seed, shards, int(MAX_RATE * ctx.seconds) + 256)

    took, server = [], None
    ctx.record(True)
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
                server = None
            settle()
            started = time.perf_counter()
            server = build(directories)
            answer_every_shard(server, list(reference), WORKERS if cluster else 1)
            took.append(time.perf_counter() - started)
        client = HttpClient(server.host, server.port)
        before = client.get_json("/stats")
        mark = ctx.mark()
        results, elapsed = closed_loop(server, jobs, ctx.seconds)
        window = ctx.since(mark)
        after = client.get_json("/stats")
        client.close()
        ctx.record(False)
        if cluster:
            pool = server.pool.stats()
            rss = max(
                process_peak_rss_mb(entry["pid"])
                for entry in pool.workers.values()
                if entry["pid"] is not None
            )
        else:
            rss = own_peak_rss_mb()
    finally:
        ctx.record(False)
        if server is not None:
            server.stop()

    outcome = Outcome(attempted=len(results))
    latencies, spans, shed, right, served = [], [], 0, 0, 0
    for position, (index, started, ended, status, body) in enumerate(results):
        job = jobs[index % len(jobs)]
        answer = None
        if status == 200:
            payload = json.loads(body)
            answer = np.asarray(payload["predictions"])
            if ctx.corrupt and position == 0:
                answer = answer + 1
        if answer is None or not np.array_equal(answer, reference[job.shard][job.ids]):
            outcome.failed += 1
            outcome.wrong += answer is not None
            shed += status in (429, 503)
            latencies.append(math.inf)
            continue
        latencies.append(1e3 * (ended - started))
        spans.append(payload["spans"])
        right += int(np.count_nonzero(answer == labels[job.shard][job.ids]))
        served += answer.size
        if ctx.recorder is not None:
            ctx.recorder.add("client.request", started, ended, request=index)

    answered = [value for value in latencies if math.isfinite(value)]
    outcome.metrics = end_to_end(
        latencies, elapsed, outcome, ctx.size.strict,
        setup_s=statistics.median(took), peak_rss_mb=rss, accuracy=ratio(right, served),
    )
    outcome.p50_ms = outcome.metrics["p50_ms"]

    def routers(stats: dict) -> List[dict]:
        if not cluster:
            return [stats]
        return [entry["router"] for entry in stats["workers"].values() if entry.get("router")]

    totals = engine_totals(routers(after))
    outcome.layers = engine_layers(spans, engine_totals(routers(before)), totals)
    outcome.layers["http.shed"] = float(shed)
    outcome.layers["trace.compiles"] = totals["compiles"]
    if cluster:
        outcome.layers["cluster.retries"] = float(pool.retries)
        outcome.layers["cluster.restarts"] = float(pool.restarts)
    if ctx.recorder is not None:
        # The span between the HTTP layer and the engine: the router's
        # asubmit_ticket in process, WorkerPool.call across processes.
        name, inner, hop = (
            ("cluster.call", "worker_ms", "cluster.hop") if cluster
            else ("router.asubmit", "engine_ms", "router.hop")
        )
        outer = tracing.spans_named(window, name, inner)
        client_ms = tracing.mean(answered)
        http = client_ms - tracing.mean([span.ms for span in outer])
        hop_ms = tracing.mean([span.ms - span.extra[inner] for span in outer])
        outcome.layers.update({"http.self_ms": http, f"{hop}_ms": hop_ms})
        outcome.breakdown = breakdown_rows(client_ms, [("http", http), (hop, hop_ms)], spans)
    return outcome


def hot_http(ctx: Context) -> Outcome:
    def build(directories: List[str]):
        server = Session().serve_http(*directories, http=HttpConfig(port=0))
        server.start()
        return server

    return front_door(ctx, build, ctx.size.setups, cluster=False)


def cluster_http(ctx: Context) -> Outcome:
    cache_dir = str(ctx.prep / CLUSTER_CACHE)

    def build(directories: List[str]):
        server = serve_cluster(directories, workers=WORKERS, cache_dir=cache_dir, port=0)
        server.start()
        return server

    return front_door(ctx, build, ctx.size.cluster_setups, cluster=True)


# ---------------------------------------------------------------------- #
# churn
# ---------------------------------------------------------------------- #
def churn_deltas(graph, rng: np.random.Generator, count: int) -> List[GraphDelta]:
    """Deltas that each change the graph.

    Edge state is tracked over the sequence: inserts pick absent pairs and
    removals present edges, so no swap is a no-op.
    """
    n = graph.num_nodes
    coo = graph.adjacency.tocoo()
    base = np.unique(coo.row.astype(np.int64) * n + coo.col)
    added: set = set()
    removed: set = set()

    def present(key: int) -> bool:
        if key in added:
            return True
        if key in removed:
            return False
        position = int(np.searchsorted(base, key))
        return position < base.size and int(base[position]) == key

    deltas = []
    for kind in rng.choice(len(CHURN_MIX), size=count, p=CHURN_MIX):
        if kind == 0:
            key = -1
            while key < 0 or present(key):
                u, v = (int(node) for node in rng.integers(0, n, size=2))
                key = u * n + v if u != v else -1
            added.add(key)
            removed.discard(key)
            deltas.append(GraphDelta(add_edges=[[key // n, key % n]]))
        elif kind == 1:
            key = int(base[rng.integers(base.size)])
            while not present(key):
                key = int(base[rng.integers(base.size)])
            removed.add(key)
            added.discard(key)
            deltas.append(GraphDelta(remove_edges=[[key // n, key % n]]))
        else:
            node = int(rng.integers(n))
            deltas.append(GraphDelta(set_features={node: rng.normal(size=graph.num_features)}))
    return deltas


def drive_churn(
    router,
    shard: str,
    ids: np.ndarray,
    deltas: Sequence[GraphDelta],
    keep: set,
    seconds: float,
    size: Size,
) -> dict:
    """Open-loop reads at ``size.churn_rate`` plus one delta per period.

    A read is timed from its due time to its ticket's completion, a swap
    from the ``update_shard`` call to its return.  Tickets are dropped on
    completion, since each pins its graph version; the ``keep`` sample
    leaves its graph fingerprint and logit rows for the answer check.
    """
    reads = len(ids)
    start = time.perf_counter() + 0.05
    due = start + np.arange(reads) / size.churn_rate
    submitted = np.full(reads, np.nan)
    enqueued = np.full(reads, np.nan)
    completed = np.full(reads, np.nan)
    failed = np.zeros(reads, dtype=bool)
    spans: List[Optional[Dict[str, float]]] = [None] * reads
    predicted = np.full(ids.shape, -1, dtype=np.int64)
    kept: Dict[int, Tuple[str, np.ndarray]] = {}
    applied: List[GraphDelta] = []
    swap_ms: List[float] = []
    swaps: List[Tuple[bool, bool]] = []
    progress = threading.Condition()
    counts = {"sent": 0, "done": 0}

    def wait_until(moment: float) -> None:
        pause = moment - time.perf_counter()
        if pause > 0:
            time.sleep(pause)

    def finished(index: int, ticket) -> None:
        completed[index] = time.perf_counter()
        enqueued[index] = ticket.enqueued_at
        try:
            predicted[index] = ticket.result(timeout=0)
            spans[index] = ticket.spans()
            if index in keep:
                kept[index] = (ticket.graph.fingerprint(), ticket.logits)
        except Exception:
            failed[index] = True
        with progress:
            counts["done"] += 1
            progress.notify_all()

    def read() -> None:
        for index in range(reads):
            wait_until(due[index])
            submitted[index] = time.perf_counter()
            try:
                ticket = router.submit(ids[index], shard=shard)
            except Exception:
                failed[index] = True
                continue
            with progress:
                counts["sent"] += 1
            ticket.add_done_callback(functools.partial(finished, index))

    def write() -> None:
        for index, delta in enumerate(deltas):
            wait_until(start + index * size.swap_period)
            began = time.perf_counter()
            try:
                swap = router.update_shard(shard, delta, timeout=TIMEOUT_S)
            except Exception:
                swap_ms.append(math.inf)
                continue
            swap_ms.append(1e3 * (time.perf_counter() - began))
            swaps.append((swap.new_fingerprint != swap.old_fingerprint, bool(swap.in_place)))
            applied.append(delta)

    threads = [threading.Thread(target=read), threading.Thread(target=write)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with progress:
        progress.wait_for(lambda: counts["done"] >= counts["sent"], timeout=TIMEOUT_S)
    answered = ~failed & np.isfinite(completed)
    return {
        "latency_ms": np.where(answered, 1e3 * (completed - due), np.inf),
        "elapsed_s": completed[answered].max(initial=due[-1]) - start,
        "late_ms": 1e3 * (submitted - due),
        "submit_ms": 1e3 * (enqueued - submitted),
        "spans": spans,
        "predicted": predicted,
        "kept": kept,
        "applied": applied,
        "swap_ms": swap_ms,
        "swaps": swaps,
    }


def churn(ctx: Context) -> Outcome:
    size = ctx.size
    graph_file = ctx.prep / CHURN / "graph.npz"
    # As ``repro serve-bench --mutate`` does: freed multi-MB step arrays stay
    # on the heap instead of being page-faulted back in on every swap.
    tune_allocator_for_churn()
    rng = np.random.default_rng(ctx.seed)
    graph = load_graph(graph_file)
    reads = max(1, int(ctx.seconds * size.churn_rate))
    ids = rng.integers(0, graph.num_nodes, size=(reads, CHURN_IDS))
    deltas = churn_deltas(graph, rng, max(1, math.ceil(ctx.seconds / size.swap_period)))
    keep = set(rng.choice(reads, size=min(size.checks, reads), replace=False).tolist())
    labels = graph.labels
    del graph

    took, router = [], None
    ctx.record(True)
    try:
        for _ in range(size.setups):
            if router is not None:
                router.stop()
                router = None
            settle()
            started = time.perf_counter()
            router = Session().serve(str(ctx.prep / CHURN))
            router.start()
            shard = router.shards()[0].name
            router.predict([0], shard=shard, timeout=TIMEOUT_S)
            took.append(time.perf_counter() - started)
        before = engine_totals([router.snapshot()])
        log = drive_churn(router, shard, ids, deltas, keep, ctx.seconds, size)
        after = engine_totals([router.snapshot()])
        ctx.record(False)
        rss = own_peak_rss_mb()
    finally:
        ctx.record(False)
        if router is not None:
            router.stop()

    # A seeded sample of answers, bitwise against a fresh forward on the
    # graph version each was computed on, rebuilt by replaying the deltas.
    model = router.shards()[0].engine.model
    wanted = {fingerprint for fingerprint, _ in log["kept"].values()}
    expected: Dict[str, np.ndarray] = {}
    graph = load_graph(graph_file)
    for delta in [*log["applied"], None]:
        fingerprint = graph.fingerprint()
        if fingerprint in wanted and fingerprint not in expected:
            expected[fingerprint] = model.predict_logits(graph)
        if delta is not None:
            graph = graph.apply_delta(delta)
    latency = log["latency_ms"]
    wrong = 0
    for position, index in enumerate(sorted(log["kept"])):
        fingerprint, got = log["kept"][index]
        if ctx.corrupt and position == 0:
            got = got + 1.0
        reference = expected.get(fingerprint)
        if reference is None or got.tobytes() != reference[ids[index]].tobytes():
            wrong += 1
            latency[index] = math.inf

    swap_ms, swaps = log["swap_ms"], log["swaps"]
    answered = np.isfinite(latency)
    outcome = Outcome(
        attempted=reads + len(swap_ms),
        failed=int(np.count_nonzero(~answered)) + sum(1 for value in swap_ms if math.isinf(value)),
        wrong=wrong,
    )
    right = np.count_nonzero(log["predicted"][answered] == labels[ids[answered]])
    outcome.metrics = end_to_end(
        latency.tolist(), log["elapsed_s"], outcome, size.strict,
        setup_s=statistics.median(took), peak_rss_mb=rss,
        accuracy=ratio(right, ids[answered].size),
    )
    outcome.p50_ms = outcome.metrics["p50_ms"]
    spans = [log["spans"][index] for index in np.flatnonzero(answered)]
    changed = sum(1 for was_changed, _ in swaps if was_changed)
    outcome.layers = engine_layers(spans, before, after)
    outcome.layers.update({
        "trace.compiles": after["compiles"] - before["compiles"],
        "delta.swap_p50_ms": percentile(swap_ms, 50, strict=False),
        "delta.swap_p90_ms": percentile(swap_ms, 90, strict=False),
        "delta.changed_share": ratio(changed, len(swaps)),
        "delta.in_place_share": ratio(sum(1 for was, inplace in swaps if was and inplace), changed),
        "gen.late_p99_ms": percentile(log["late_ms"].tolist(), 99, strict=False),
    })
    if ctx.recorder is not None:
        rows = [
            ("gen.late", float(np.mean(log["late_ms"][answered]))),
            ("router.submit", float(np.mean(log["submit_ms"][answered]))),
        ]
        outcome.breakdown = breakdown_rows(float(np.mean(latency[answered])), rows, spans)
    return outcome


# ---------------------------------------------------------------------- #
# train_sweep
# ---------------------------------------------------------------------- #
def train_sweep(ctx: Context) -> Outcome:
    size = ctx.size
    # Fits run one after another: with fits overlapping on two threads the
    # sweep time moved with how they happened to interleave.
    spec = SweepSpec(
        models=SWEEP_MODELS,
        datasets=SWEEP_DATASETS,
        view="amud",
        config=ExperimentConfig(
            seeds=(2 * ctx.seed, 2 * ctx.seed + 1),
            train=TrainConfig(epochs=size.epochs, patience=size.epochs),
            max_workers=1,
        ),
        model_kwargs={"ADPA": {"hidden": 64, "num_steps": 3}},
    )
    took, times, reports = [], [], []
    ctx.record(True)
    try:
        mark = ctx.mark()
        began = time.perf_counter()
        while len(times) < 2 or time.perf_counter() - began < ctx.seconds:
            # The sweep's set-up, timed before every sweep so that a slow
            # spell of the host meets only some of them: load every
            # dataset and run its AMUD decision.
            for _ in range(size.sweep_setups):
                started = time.perf_counter()
                for dataset in SWEEP_DATASETS:
                    Session().load(dataset).amud()
                took.append(time.perf_counter() - started)
            started = time.perf_counter()
            reports.append(Session().experiment(spec))
            times.append(time.perf_counter() - started)
        fits_s = sum(span.ms for span in tracing.spans_named(ctx.since(mark), "trainer.fit")) / 1e3
    finally:
        ctx.record(False)
    rss = own_peak_rss_mb()

    # Every fit ran the fixed epoch count with finite accuracies, and each
    # repeated sweep reproduced the first one's accuracies exactly.  A sweep
    # with a wrong fit counts as failed.
    runs = [[run for cell in report.cells for run in cell.runs] for report in reports]
    first = [(run.train_accuracy, run.val_accuracy, run.test_accuracy) for run in runs[0]]
    outcome = Outcome(attempted=sum(len(sweep) for sweep in runs))
    latencies = []
    for number, sweep in enumerate(runs):
        wrong = 0
        for position, run in enumerate(sweep):
            accuracies = (run.train_accuracy, run.val_accuracy, run.test_accuracy)
            epochs = run.epochs_run + (ctx.corrupt and number == 0 and position == 0)
            finite = all(map(math.isfinite, accuracies))
            wrong += epochs != size.epochs or not finite or accuracies != first[position]
        outcome.failed += wrong
        outcome.wrong += wrong
        latencies.append(math.inf if wrong else 1e3 * times[number])
    # A run holds a handful of sweeps, fewer than a median with ten beyond
    # it needs; their median is the sweep time a user of run_sweep waits.
    outcome.metrics = end_to_end(
        latencies, sum(times), outcome, strict=False,
        setup_s=statistics.median(took), peak_rss_mb=rss,
        accuracy=statistics.fmean(run.test_accuracy for run in runs[0]),
    )
    outcome.p50_ms = outcome.metrics["p50_ms"]
    if ctx.recorder is not None:
        outcome.layers["experiment.overhead_s"] = statistics.fmean(times) - fits_s / len(times)
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "hot_http": hot_http,
    "churn": churn,
    "cluster_http": cluster_http,
    "train_sweep": train_sweep,
}
