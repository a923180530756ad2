"""Command-line interface for the reproduction.

Every sub-command is a thin shell over :mod:`repro.api` — the CLI, library
programs and the serving front door all drive the same
:class:`repro.api.Session` facade.

``python -m repro.cli amud <dataset>``
    Print the homophily profile, per-pattern R² and AMUD decision.

``python -m repro.cli train <dataset> --model ADPA``
    Train one model (default: the AMUD-guided choice) and report
    accuracies.

``python -m repro.cli export <dataset> --out DIR``
    Train and write a serving artifact (weights + config + graph).

``python -m repro.cli predict <artifact-dir>``
    Reload an artifact in a fresh process and predict.

``python -m repro.cli serve <artifact-dir> [<artifact-dir> ...]``
    Serve one or many artifacts over HTTP (``/predict``, ``/stats``,
    ``/metrics``, ``/traces``) until interrupted; 429 load shedding at the
    back-pressure limit.

``python -m repro.cli serve-bench <artifact-dir> [<artifact-dir> ...]``
    Drive one or many artifacts through the shard-router front door under
    concurrent load; ``--cache-dir`` persists the operator and logit caches
    across processes (warm before, spill after).

``python -m repro.cli experiment <spec.toml|spec.json>``
    Run a declarative :class:`repro.api.SweepSpec` (models × datasets ×
    variants, repeated over seeds) and emit the typed report as a table
    and/or JSON.  ``--shard i/N`` runs only the deterministic shard ``i``
    and writes a shard report for ``merge-reports``.

``python -m repro.cli merge-reports shard0.json shard1.json ...``
    Merge shard reports from ``experiment --shard`` back into the full
    sweep report — byte-identical (canonical form) to the serial run.

``python -m repro.cli datasets``
    List the registered benchmark stand-ins with their statistics.

``repro serve --workers N`` (N ≥ 2) forks N router worker processes
sharing one spilled cache directory behind a parent HTTP front door;
``serve`` traps SIGTERM/SIGINT and drains in-flight requests on exit.

Artifact errors (missing directory, corrupt manifest or weights) exit with
code 2 and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
import zipfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from .amud import amud_decide
from .api import HttpConfig, ServeConfig, Session, SweepSpec, TrainConfig, width_kwargs
from .datasets import dataset_config, list_datasets
from .metrics import accuracy, homophily_report
from .models import available_models, get_spec

#: exit code for unusable artifact paths (missing, corrupt, wrong format).
EXIT_ARTIFACT_ERROR = 2

#: everything the artifact loader can raise on a missing or corrupt
#: directory: absent files, bad JSON/npz payloads, schema mismatches.
_ARTIFACT_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile)


def _artifact_error(path: str, error: BaseException) -> int:
    reason = str(error) or type(error).__name__
    print(
        f"error: cannot load serving artifact at {path!r}: {reason}",
        file=sys.stderr,
    )
    print(
        "hint: pass a directory written by 'repro export' (it must contain "
        "artifact.json and weights.npz)",
        file=sys.stderr,
    )
    return EXIT_ARTIFACT_ERROR


def _restore_handle(session: Session, path: str):
    """Session.restore with CLI error semantics; returns (handle, exit_code)."""
    try:
        return session.restore(path), 0
    except _ARTIFACT_ERRORS as error:
        return None, _artifact_error(path, error)


def _add_dataset_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=list_datasets(), help="benchmark stand-in to use")
    parser.add_argument("--seed", type=int, default=0, help="generator / split seed")


def _add_train_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default="pipeline",
        help="registered model name, or 'pipeline' for the AMUD-guided workflow",
    )
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--patience", type=int, default=30)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--weight-decay", type=float, default=5e-4)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument(
        "--undirected", action="store_true",
        help="feed the coarse undirected transformation instead of the natural digraph",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMUD + ADPA reproduction (ICDE 2024) command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    amud_parser = subparsers.add_parser("amud", help="run AMUD guidance on a dataset")
    _add_dataset_argument(amud_parser)
    amud_parser.add_argument("--threshold", type=float, default=0.5, help="decision threshold θ")

    train_parser = subparsers.add_parser("train", help="train a model on a dataset")
    _add_dataset_argument(train_parser)
    _add_train_arguments(train_parser)

    export_parser = subparsers.add_parser(
        "export", help="train a model and write a serving artifact"
    )
    _add_dataset_argument(export_parser)
    _add_train_arguments(export_parser)
    export_parser.add_argument("--out", required=True, help="artifact output directory")

    predict_parser = subparsers.add_parser(
        "predict", help="reload a serving artifact and predict node classes"
    )
    predict_parser.add_argument("artifact", help="artifact directory written by 'export'")
    predict_parser.add_argument(
        "--nodes", type=int, nargs="*", default=None,
        help="node ids to predict (default: all nodes)",
    )
    predict_parser.add_argument(
        "--json", action="store_true", help="emit predictions as JSON instead of a summary"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve one or many artifacts over HTTP until interrupted",
    )
    serve_parser.add_argument(
        "artifacts", nargs="+", metavar="artifact",
        help="artifact director(ies) written by 'export'; several become router shards",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8100,
        help="bind port (0 picks a free one and prints it)",
    )
    serve_parser.add_argument("--batch-size", type=int, default=64, help="server micro-batch cap")
    serve_parser.add_argument("--max-wait-ms", type=float, default=2.0, help="coalescing window")
    serve_parser.add_argument(
        "--max-pending", type=int, default=256,
        help="back-pressure: requests beyond this answer 429 instead of queueing",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="operator/logit-cache spill directory warmed before the artifacts load",
    )
    serve_parser.add_argument(
        "--for-seconds", type=float, default=None,
        help="serve for a fixed duration then exit (smoke tests); "
             "default serves until SIGTERM/SIGINT (in-flight requests drain)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="router worker processes; >= 2 forks a repro.cluster pool "
             "sharing --cache-dir behind this front door (each worker owns "
             "its own GIL)",
    )
    serve_parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="accept connect-back TCP workers on this address (port 0 picks "
             "a free one and prints it); requires --secret-file; remote "
             "workers fill the --workers slots instead of local forks",
    )
    serve_parser.add_argument(
        "--secret-file", default=None, metavar="FILE",
        help="file holding the shared handshake secret for --listen workers",
    )
    serve_parser.add_argument(
        "--worker-host", action="append", default=None, metavar="HOST",
        help="ssh a connect-back worker onto HOST (repeatable, one slot "
             "each; requires --listen; the secret file must exist on HOST)",
    )
    serve_parser.add_argument(
        "--ssh-python", default="python3",
        help="python executable to run on --worker-host machines",
    )

    bench_parser = subparsers.add_parser(
        "serve-bench",
        help="benchmark one or many artifacts through the shard-router front door",
    )
    bench_parser.add_argument(
        "artifacts", nargs="+", metavar="artifact",
        help="artifact director(ies) written by 'export'; several become router shards",
    )
    bench_parser.add_argument("--requests", type=int, default=256, help="total requests to issue")
    bench_parser.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    bench_parser.add_argument("--subset-size", type=int, default=32, help="nodes per request")
    bench_parser.add_argument("--batch-size", type=int, default=64, help="server micro-batch cap")
    bench_parser.add_argument("--max-wait-ms", type=float, default=2.0, help="coalescing window")
    bench_parser.add_argument(
        "--max-pending", type=int, default=256,
        help="front-door back-pressure: max in-flight requests across shards",
    )
    bench_parser.add_argument(
        "--cache-dir", default=None,
        help="operator/logit-cache spill directory: warmed before the "
             "artifacts load, re-spilled after the benchmark (cold starts "
             "become warm across processes)",
    )
    bench_parser.add_argument(
        "--mutate", type=int, default=0, metavar="N",
        help="exercise the live-update path: a writer thread applies N "
             "random single-edge GraphDeltas through router.update_shard "
             "(round-robin across shards) while the clients run",
    )

    experiment_parser = subparsers.add_parser(
        "experiment",
        help="run a declarative experiment spec (TOML/JSON) and emit the report",
    )
    experiment_parser.add_argument(
        "spec", help="path to a SweepSpec file (.json anywhere, .toml on Python 3.11+)"
    )
    experiment_parser.add_argument(
        "--out", default=None, help="write the report JSON to this path"
    )
    experiment_parser.add_argument(
        "--quick", action="store_true",
        help="smoke protocol: first seed only, epochs/patience capped",
    )
    experiment_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="override the spec's seed list",
    )
    experiment_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool bound (default: spec setting, else CPU count)",
    )
    experiment_parser.add_argument(
        "--json", action="store_true",
        help="print the report JSON to stdout instead of the table",
    )
    experiment_parser.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only the deterministic shard I of N (cells i ≡ I mod N) "
             "and emit a shard report for 'merge-reports'",
    )
    experiment_parser.add_argument(
        "--canonical", action="store_true",
        help="zero the wall-clock timing fields so reports from different "
             "runs/machines compare byte-identical",
    )
    experiment_parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="distribute the sweep over connect-back TCP workers registered "
             "on this address (port 0 picks a free one and prints it); "
             "requires --secret-file",
    )
    experiment_parser.add_argument(
        "--secret-file", default=None, metavar="FILE",
        help="file holding the shared handshake secret for --listen workers",
    )
    experiment_parser.add_argument(
        "--worker-host", action="append", default=None, metavar="HOST",
        help="ssh a connect-back worker onto HOST (repeatable; one sweep "
             "shard each; requires --listen)",
    )
    experiment_parser.add_argument(
        "--ssh-python", default="python3",
        help="python executable to run on --worker-host machines",
    )

    merge_parser = subparsers.add_parser(
        "merge-reports",
        help="merge 'experiment --shard' reports into the full sweep report",
    )
    merge_parser.add_argument(
        "reports", nargs="+", metavar="shard.json",
        help="shard report files written by 'experiment --shard I/N --out'",
    )
    merge_parser.add_argument(
        "--out", default=None, help="write the merged report JSON to this path"
    )
    merge_parser.add_argument(
        "--json", action="store_true",
        help="print the merged report JSON to stdout instead of the table",
    )
    merge_parser.add_argument(
        "--keep-timings", action="store_true",
        help="keep each shard's measured wall-clock timings instead of the "
             "canonical (zeroed, bit-comparable) form",
    )

    subparsers.add_parser("datasets", help="list registered datasets")
    models_parser = subparsers.add_parser("models", help="list registered models")
    models_parser.add_argument("--category", default=None, help="filter by registry category")
    return parser


def _session_from_args(args: argparse.Namespace) -> Session:
    return Session(
        seed=args.seed,
        train=TrainConfig(
            lr=args.lr,
            weight_decay=args.weight_decay,
            epochs=args.epochs,
            patience=args.patience,
        ),
    )


def _fit_from_args(args: argparse.Namespace):
    """Shared train/export path: Session → GraphHandle → trained ModelHandle."""
    session = _session_from_args(args)
    handle = session.load(args.dataset)
    if args.model == "pipeline":
        guided = handle.amud()
        # Only the directed branch (ADPA) takes the CLI width by default,
        # mirroring the paper's per-paradigm hyper-parameters.
        kwargs = width_kwargs(
            session.amud_config.model_for(guided.decision.keep_directed), args.hidden
        ) if guided.decision.keep_directed else {}
        return guided.fit(**kwargs)
    get_spec(args.model)  # raises KeyError for unknown names
    if args.undirected:
        handle = handle.undirected()
    return handle.fit(args.model, **width_kwargs(args.model, args.hidden))


def _print_fit_summary(args: argparse.Namespace, handle) -> None:
    if handle.decision is not None:
        print(
            f"AMUD score {handle.decision.score:.3f} -> {handle.decision.modeling}"
        )
        print(f"model: {handle.model_name}")
    else:
        view = "U-" if args.undirected else "D-"
        print(f"model: {handle.model_name}  input: {view}{args.dataset}")
    result = handle.train_result
    print(f"val accuracy:  {result.val_accuracy:.4f}")
    print(f"test accuracy: {result.test_accuracy:.4f}")


def _command_amud(args: argparse.Namespace) -> int:
    handle = Session(seed=args.seed).load(args.dataset)
    graph = handle.graph
    decision = amud_decide(graph, threshold=args.threshold)
    print(f"dataset: {graph.name}  nodes={graph.num_nodes}  edges={graph.num_edges}")
    for metric, value in homophily_report(graph).items():
        print(f"  {metric:<22s} {value:+.3f}")
    print("per-pattern R²:")
    for name, value in decision.r_squared.items():
        print(f"  {name:<6s} {value:.5f}")
    print(f"guidance score S = {decision.score:.3f} (threshold {decision.threshold})")
    print(f"decision: model as {decision.modeling}")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    handle = _fit_from_args(args)
    _print_fit_summary(args, handle)
    result = handle.train_result
    print(f"best epoch:    {result.best_epoch} / {result.epochs_run}")
    return 0


def _command_export(args: argparse.Namespace) -> int:
    handle = _fit_from_args(args)
    if handle.decision is not None:
        # Pipeline path: the modeled view is whatever AMUD decided, not
        # what the (single-model only) --undirected flag says.
        input_view = "directed" if handle.decision.keep_directed else "undirected"
    else:
        input_view = "undirected" if args.undirected else "directed"
    metadata = {
        "dataset": args.dataset,
        "dataset_seed": args.seed,
        "input_view": input_view,
    }
    try:
        path = handle.save(args.out, metadata=metadata)
    except OSError as error:
        print(f"error: cannot write artifact to {args.out!r}: {error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    _print_fit_summary(args, handle)
    print(f"artifact: {path}")
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    handle, code = _restore_handle(Session(), args.artifact)
    if handle is None:
        return code
    graph = handle.graph
    predictions = handle.predict()
    node_ids = (
        np.arange(graph.num_nodes)
        if args.nodes is None
        else np.asarray(args.nodes, dtype=np.int64)
    )

    if args.json:
        print(json.dumps({
            "model": handle.model_name,
            "graph": graph.name,
            "nodes": node_ids.tolist(),
            "predictions": predictions[node_ids].tolist(),
        }))
        return 0

    print(f"model: {handle.model_name}  graph: {graph.name}  nodes={graph.num_nodes}")
    if graph.test_mask is not None:
        print(f"test accuracy: {accuracy(predictions, graph.labels, graph.test_mask):.4f}")
    shown = node_ids[:10]
    listing = ", ".join(f"{node}->{predictions[node]}" for node in shown)
    suffix = "" if len(node_ids) <= 10 else f"  (+{len(node_ids) - 10} more)"
    print(f"predictions: {listing}{suffix}")
    return 0


def _wait_for_shutdown(for_seconds: Optional[float]) -> Optional[str]:
    """Block until the duration elapses or SIGTERM/SIGINT arrives.

    Returns the signal name when one fired (``None`` on plain timeout).
    The previous handlers are restored on exit, so nested waits and the
    test-suite's own signal use stay unaffected.
    """
    stop = threading.Event()
    fired: List[str] = []

    def _on_signal(signum, frame) -> None:
        fired.append(signal.Signals(signum).name)
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        stop.wait(for_seconds)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return fired[0] if fired else None


def _check_remote_flags(args: argparse.Namespace) -> Optional[str]:
    """Validate the --listen/--secret-file/--worker-host combination."""
    if args.listen is not None and args.secret_file is None:
        return "--listen requires --secret-file (the shared handshake secret)"
    if args.worker_host and args.listen is None:
        return "--worker-host requires --listen (the address workers dial back)"
    if args.secret_file is not None and args.listen is None:
        return "--secret-file only applies with --listen"
    return None


def _serve_cluster(args: argparse.Namespace) -> int:
    from concurrent.futures import TimeoutError as FutureTimeout

    from .cluster import WorkerError, serve_cluster

    flag_error = _check_remote_flags(args)
    if flag_error is not None:
        print(f"error: {flag_error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    try:
        server = serve_cluster(
            args.artifacts,
            workers=args.workers,
            cache_dir=args.cache_dir,
            serve=ServeConfig(
                max_batch_size=args.batch_size,
                max_wait_ms=args.max_wait_ms,
                router_max_pending=args.max_pending,
            ),
            host=args.host,
            port=args.port,
            listen=args.listen,
            secret_file=args.secret_file,
            worker_hosts=args.worker_host,
            ssh_python=args.ssh_python,
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot set up the cluster: {error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    if server.pool.listen_address is not None:
        print(
            f"worker listener at {server.pool.listen_address} "
            f"(workers: python -m repro.cluster.worker "
            f"--connect {server.pool.listen_address} --secret-file "
            f"{args.secret_file})"
        )
    try:
        server.start()
    except (WorkerError, FutureTimeout, OSError, TimeoutError) as error:
        reason = str(error) or type(error).__name__
        print(f"error: cluster workers failed to start: {reason}", file=sys.stderr)
        print(
            "hint: each worker replays a 'load' of the artifact paths; the "
            "first failure above names the culprit",
            file=sys.stderr,
        )
        server.pool.stop()
        return EXIT_ARTIFACT_ERROR
    try:
        print(
            f"serving {len(args.artifacts)} artifact(s) across "
            f"{args.workers} worker process(es) at {server.url}"
        )
        print("endpoints: POST /predict | GET /health /shards /stats /metrics")
        signame = _wait_for_shutdown(args.for_seconds)
        if signame is not None:
            print(f"\nreceived {signame}; shutting down (draining in-flight requests)")
    finally:
        server.stop()
    stats = server.stats()
    pool_stats = server.pool.stats()
    print(
        f"served {stats.requests} request(s) over {stats.connections} "
        f"connection(s), shed {stats.shed}; pool: {pool_stats.tasks} task(s), "
        f"{pool_stats.retries} retried, {pool_stats.restarts} worker restart(s)"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    if args.workers > 1 or args.listen is not None:
        return _serve_cluster(args)
    flag_error = _check_remote_flags(args)
    if flag_error is not None:
        print(f"error: {flag_error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    session = Session(
        serve=ServeConfig(
            max_batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            router_max_pending=args.max_pending,
        )
    )
    try:
        server = session.serve_http(
            *args.artifacts,
            http=HttpConfig(host=args.host, port=args.port),
            cache_dir=args.cache_dir,
        )
    except _ARTIFACT_ERRORS as error:
        return _artifact_error(" | ".join(args.artifacts), error)
    with server:
        shards = server.router.shards()
        print(f"serving {len(shards)} shard(s) at {server.url}")
        for shard in shards:
            print(f"  {shard.name}: {shard.model_name} on {shard.engine.graph.name}")
        print("endpoints: POST /predict | GET /health /shards /stats /metrics /traces")
        signame = _wait_for_shutdown(args.for_seconds)
        if signame is not None:
            print(f"\nreceived {signame}; shutting down (draining in-flight requests)")
    stats = server.stats()
    print(
        f"served {stats.requests} request(s) over {stats.connections} "
        f"connection(s), shed {stats.shed}"
    )
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    if args.mutate:
        # Sustained delta churn allocates and frees multi-MB step arrays
        # per swap; glibc's default trim threshold makes every one a fresh
        # page-fault bill (see repro.serving.allocator).
        from repro.serving import tune_allocator_for_churn

        tune_allocator_for_churn()
    session = Session(
        serve=ServeConfig(
            max_batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            router_max_pending=args.max_pending,
        )
    )
    try:
        router = session.serve(*args.artifacts, cache_dir=args.cache_dir)
    except _ARTIFACT_ERRORS as error:
        # Router construction loads artifacts one by one; report whichever
        # path failed (the message from the loader names the missing file).
        return _artifact_error(" | ".join(args.artifacts), error)
    if args.cache_dir:
        warm_stats = router.operator_cache.stats()
        print(
            f"cache dir {args.cache_dir}: {warm_stats.hits} preprocess "
            f"entr{'y' if warm_stats.hits == 1 else 'ies'} reused at load"
        )

    shards = router.shards()
    per_client = max(1, args.requests // args.clients)
    rng = np.random.default_rng(0)

    def client(worker_seed: int) -> None:
        local_rng = np.random.default_rng(worker_seed)
        tickets = []
        for index in range(per_client):
            shard = shards[index % len(shards)]
            graph = shard.engine.graph
            size = min(args.subset_size, graph.num_nodes)
            ids = local_rng.choice(graph.num_nodes, size=size, replace=False)
            tickets.append(router.submit(node_ids=ids, shard=shard.name))
        for ticket in tickets:
            ticket.result(timeout=120)

    clients_done = threading.Event()
    swaps: list = []
    writer_errors: list = []

    def writer() -> None:
        # Live-update traffic: random single-edge deltas through the
        # atomic re-route path, round-robin across shards, until the
        # budget is spent or the clients finish.
        from repro.graph import GraphDelta

        writer_rng = np.random.default_rng(1)
        for index in range(args.mutate):
            if clients_done.is_set():
                break
            shard = shards[index % len(shards)]
            n = shard.engine.graph.num_nodes
            u, v = int(writer_rng.integers(n)), int(writer_rng.integers(n))
            delta = (
                GraphDelta(add_edges=[[u, v]])
                if index % 2 == 0
                else GraphDelta(remove_edges=[[u, v]])
            )
            try:
                swaps.append(router.update_shard(shard.name, delta))
            except Exception as error:  # pragma: no cover - surfaced below
                writer_errors.append(error)
                break
            time.sleep(0.002)

    with router:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(int(rng.integers(1 << 31)),))
            for _ in range(args.clients)
        ]
        writer_thread = threading.Thread(target=writer) if args.mutate else None
        for thread in threads:
            thread.start()
        if writer_thread is not None:
            writer_thread.start()
        for thread in threads:
            thread.join()
        clients_done.set()
        if writer_thread is not None:
            writer_thread.join()
        elapsed = time.perf_counter() - start
        stats = router.stats()

    total_requests = sum(s.requests for s in stats.shards.values())
    total_batches = sum(s.batches for s in stats.shards.values())
    total_forwards = sum(s.forwards for s in stats.shards.values())
    print(f"front door: {len(shards)} shard(s), {stats.max_pending} max in-flight")
    for shard in shards:
        shard_stats = stats.shards[shard.name]
        print(
            f"  {shard.name}: {shard.model_name} on {shard.engine.graph.name} "
            f"({shard.engine.graph.num_nodes} nodes)  requests={shard_stats.requests}  "
            f"mean latency {shard_stats.mean_latency_ms:.2f} ms"
        )
    print(
        f"served {total_requests} requests in {elapsed:.3f}s "
        f"({total_requests / elapsed:.1f} req/s)"
    )
    if args.mutate:
        in_place = sum(1 for swap in swaps if swap.in_place)
        print(
            f"live updates: {len(swaps)} deltas applied "
            f"({in_place} in-place, {len(swaps) - in_place} re-preprocessed)"
        )
        if writer_errors:
            print(f"error: live-update writer failed: {writer_errors[0]}", file=sys.stderr)
            return 1
    print(
        f"batches: {total_batches}  forwards: {total_forwards}  "
        f"mean batch size: {total_requests / total_batches if total_batches else 0.0:.1f}"
    )
    # All shards share one operator cache and one logit cache; report each once.
    any_stats = next(iter(stats.shards.values()))
    cache_stats = any_stats.cache.as_dict()
    print(
        f"operator cache: {cache_stats['hits']} hits / {cache_stats['misses']} misses "
        f"(hit rate {cache_stats['hit_rate']:.2%})"
    )
    logit_stats = any_stats.logit_cache.as_dict()
    print(
        f"logit cache: {logit_stats['hits']} hits / {logit_stats['misses']} misses "
        f"(weights-versioned keys)"
    )
    if args.cache_dir:
        spilled = router.spill(args.cache_dir)
        print(
            f"spilled {spilled['operators']} preprocess "
            f"entr{'y' if spilled['operators'] == 1 else 'ies'} and "
            f"{spilled['logits']} logit entr{'y' if spilled['logits'] == 1 else 'ies'} "
            f"to {args.cache_dir}"
        )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # The overrides re-validate through the frozen configs, so a bad
    # --seeds/--workers value fails here with the same clean exit as a bad
    # spec file.
    try:
        spec = SweepSpec.from_file(args.spec)
        config = spec.config
        if args.quick:
            config = config.quick()
        if args.seeds:
            config = config.replace(seeds=tuple(args.seeds))
        if args.workers is not None:
            config = config.replace(max_workers=args.workers)
        spec = spec.replace(config=config)
    except (OSError, ValueError, KeyError, TypeError) as error:
        reason = str(error) or type(error).__name__
        print(f"error: cannot load experiment spec {args.spec!r}: {reason}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR

    if args.listen is not None or args.worker_host:
        if args.shard is not None:
            print(
                "error: --shard and --listen/--worker-host are mutually "
                "exclusive (a distributed run shards internally)",
                file=sys.stderr,
            )
            return EXIT_ARTIFACT_ERROR
        return _run_experiment_distributed(args, spec)
    if args.shard is not None:
        return _run_experiment_shard(args, spec)

    report = Session().experiment(spec)
    if args.canonical:
        report = report.canonical()
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.as_table())
    if args.out:
        path = report.save(args.out)
        print(f"report: {path}")
    return 0


def _run_experiment_distributed(args: argparse.Namespace, spec: SweepSpec) -> int:
    """Fan a sweep out over connect-back TCP workers and merge the shards.

    Each worker runs one deterministic shard (cells ``i % N``); the merge
    is the same spec-hash-validated path as ``merge-reports``, so the
    result is bit-identical to the serial run in canonical form.
    """
    from .cluster import (
        CONNECT_PLACEHOLDER,
        ShardReport,
        WorkerError,
        WorkerPool,
        merge_shard_reports,
        read_secret,
        ssh_worker_command,
    )

    flag_error = _check_remote_flags(args)
    if flag_error is not None:
        print(f"error: {flag_error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    try:
        secret = read_secret(args.secret_file)
    except (OSError, ValueError) as error:
        print(f"error: cannot read secret file: {error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    spawn_commands = None
    if args.worker_host:
        spawn_commands = [
            ssh_worker_command(
                worker_host, CONNECT_PLACEHOLDER, args.secret_file,
                python=args.ssh_python,
            )
            for worker_host in args.worker_host
        ]
        shard_count = len(spawn_commands)
    else:
        # Bare --listen: externally-started --connect workers fill the
        # slots; --workers says how many to wait for (default 2).
        shard_count = args.workers if args.workers else 2
    try:
        pool = WorkerPool(
            shard_count,
            listen=args.listen,
            secret=secret,
            spawn_commands=spawn_commands,
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot set up the worker pool: {error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    print(
        f"worker listener at {pool.listen_address}; distributing "
        f"{len(spec.cells())} cell(s) over {shard_count} shard(s)"
    )
    try:
        pool.start()
    except (WorkerError, TimeoutError, OSError) as error:
        reason = str(error) or type(error).__name__
        print(f"error: cluster workers failed to start: {reason}", file=sys.stderr)
        pool.stop()
        return EXIT_ARTIFACT_ERROR
    spec_payload = spec.as_dict()
    results: List[Optional[Dict[str, object]]] = [None] * shard_count
    errors: List[Tuple[int, Exception]] = []

    def _run_shard(index: int) -> None:
        try:
            results[index] = pool.call(
                "run_shard",
                {
                    "spec": spec_payload,
                    "shard_index": index,
                    "shard_count": shard_count,
                },
                timeout=3600.0,
            )
        except Exception as error:  # noqa: BLE001 — reported per shard below
            errors.append((index, error))

    try:
        threads = [
            threading.Thread(target=_run_shard, args=(index,), daemon=True)
            for index in range(shard_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        pool.stop()
    if errors:
        for index, error in sorted(errors, key=lambda item: item[0]):
            reason = str(error) or type(error).__name__
            print(f"error: shard {index}/{shard_count} failed: {reason}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    try:
        report = merge_shard_reports(
            [ShardReport.from_dict(payload) for payload in results],
            canonical=args.canonical,
        )
    except (ValueError, KeyError, TypeError) as error:
        print(f"error: cannot merge shard reports: {error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.as_table())
    if args.out:
        path = report.save(args.out)
        print(f"report: {path}")
    return 0


def _run_experiment_shard(args: argparse.Namespace, spec: SweepSpec) -> int:
    from .cluster import run_sweep_shard

    try:
        index_text, _, count_text = args.shard.partition("/")
        shard_index, shard_count = int(index_text), int(count_text)
    except ValueError:
        print(
            f"error: --shard expects I/N (e.g. 0/4), got {args.shard!r}",
            file=sys.stderr,
        )
        return EXIT_ARTIFACT_ERROR
    try:
        report = run_sweep_shard(spec, shard_index, shard_count)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    if args.canonical:
        report = report.canonical()
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(
            f"shard {shard_index}/{shard_count}: ran {len(report.cells)} of "
            f"{len(spec.cells())} cell(s) (indices {list(report.cell_indices)})"
        )
    if args.out:
        path = report.save(args.out)
        print(f"shard report: {path}")
    return 0


def _command_merge_reports(args: argparse.Namespace) -> int:
    from .cluster import merge_shard_files

    try:
        report = merge_shard_files(args.reports, canonical=not args.keep_timings)
    except (OSError, ValueError, KeyError, TypeError) as error:
        reason = str(error) or type(error).__name__
        print(f"error: cannot merge shard reports: {reason}", file=sys.stderr)
        return EXIT_ARTIFACT_ERROR
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.as_table())
    if args.out:
        path = report.save(args.out)
        print(f"report: {path}")
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    print(f"{'name':<18s}{'nodes':>7s}{'classes':>9s}{'E.Homo target':>15s}{'regime':>12s}")
    for name in list_datasets():
        config = dataset_config(name)
        print(
            f"{name:<18s}{config.num_nodes:>7d}{config.num_classes:>9d}"
            f"{config.homophily:>15.2f}{config.amud_regime:>12s}"
        )
    return 0


def _command_models(args: argparse.Namespace) -> int:
    for name in available_models(args.category):
        spec = get_spec(name)
        print(f"{spec.name:<12s} {spec.category}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "amud": _command_amud,
        "train": _command_train,
        "export": _command_export,
        "predict": _command_predict,
        "serve": _command_serve,
        "serve-bench": _command_serve_bench,
        "experiment": _command_experiment,
        "merge-reports": _command_merge_reports,
        "datasets": _command_datasets,
        "models": _command_models,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
