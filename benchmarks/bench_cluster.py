"""Cluster benchmark: sharded sweeps and multi-process serving throughput.

Three claims from the cluster subsystem, measured end to end:

* **distributed sweeps** — a 2-model x 2-dataset sweep run as two worker
  shards merges into a report byte-identical to the serial run (the
  canonical forms compared as JSON), while the shards run concurrently;
* **multi-process serving** — N router workers behind one
  :class:`repro.cluster.WorkerPool` beat the single-process router on
  throughput, because each worker owns its own GIL.  Mid-run one worker
  is SIGKILLed: idempotent predict ops are retried on survivors, so the
  crash costs latency, never a dropped request.
* **cross-machine transport** — the same two guarantees hold when the
  workers register over TCP loopback (``listen=127.0.0.1:0`` + HMAC
  handshake + connect-back spawn commands) instead of stdin/stdout pipes:
  the sharded sweep still merges bit-identical to serial, and one induced
  remote-worker *disconnect* (connection severed, worker respawned
  through its spawn command) still drops zero ``predict`` requests.

The serving workload is deliberately compute-heavy (ADPA propagation on
the largest synthetic graph, one forward per request, logit cache off)
so process fan-out measures compute scaling rather than IPC overhead.

Results land in ``BENCH_cluster.json`` (quick mode included, flagged),
the machine-readable trail CI archives.  The >= 2x throughput assertion
runs in full mode on multi-core hosts only (one worker per GIL cannot
outrun one process on one CPU); bit-identical merges and zero-drop crash
recovery are asserted in every mode, over pipes and over TCP.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import threading
import time
from dataclasses import asdict

import pytest

from repro.api import Session, SweepSpec, TrainConfig, ServeConfig, run_sweep
from repro.cluster import (
    CONNECT_PLACEHOLDER,
    ShardReport,
    WorkerPool,
    merge_shard_reports,
    worker_connect_command,
)
from repro.serving import ShardRouter  # noqa: F401  (re-exported for profiling)

from helpers import print_banner, write_bench_json

#: serving fleet size (full / quick).
WORKERS = 4
QUICK_WORKERS = 2

#: /predict requests per serving phase (full / quick).
REQUESTS = 160
QUICK_REQUESTS = 40

#: client threads driving each serving phase.
CLIENTS = 8

#: request shape: one ADPA forward over this many query nodes.
NODE_IDS = list(range(64))

#: full-mode floor for cluster/single-process throughput.
MIN_SPEEDUP = 2.0

SWEEP_SPEC = SweepSpec(models=("MLP", "GCN"), datasets=("texas", "cornell"))

SERVE_DATASET = "ogbn-arxiv"
SERVE_CONFIG = ServeConfig(max_batch_size=1, max_wait_ms=0.0, cache_logits=False)


def _quick_spec() -> SweepSpec:
    return SWEEP_SPEC.replace(config=SWEEP_SPEC.config.quick())


def _run_sharded_sweep(pool: WorkerPool, spec: SweepSpec) -> tuple:
    """Two pinned shards concurrently through ``pool``; (merged_json, seconds)."""
    payloads: list = [None, None]

    def run_shard(index: int) -> None:
        payloads[index] = pool.call(
            "run_shard",
            {"spec": spec.as_dict(), "shard_index": index, "shard_count": 2},
            worker=f"w{index}",
            timeout=600.0,
        )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=run_shard, args=(index,)) for index in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sharded_s = time.perf_counter() - started
    shards = [ShardReport.from_dict(payload) for payload in payloads]
    merged = merge_shard_reports(shards)
    return merged.to_json(indent=2), sharded_s


def build_sweep_profile(serial_json: str, serial_s: float) -> dict:
    """Serial sweep vs two worker shards; merge must be byte-identical."""
    spec = _quick_spec()
    with WorkerPool(2) as pool:
        merged_json, sharded_s = _run_sharded_sweep(pool, spec)
    return {
        "cells": len(spec.cells()),
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "sweep_speedup": serial_s / sharded_s if sharded_s else 0.0,
        "bit_identical": merged_json == serial_json,
    }


def _drive(submit, requests: int, clients: int) -> dict:
    """Fan ``requests`` calls over ``clients`` threads; count outcomes."""
    lock = threading.Lock()
    outcome = {"ok": 0, "dropped": 0}

    def worker(count: int) -> None:
        for _ in range(count):
            try:
                submit()
                with lock:
                    outcome["ok"] += 1
            except Exception:
                with lock:
                    outcome["dropped"] += 1

    shares = [requests // clients] * clients
    for index in range(requests % clients):
        shares[index] += 1
    threads = [
        threading.Thread(target=worker, args=(share,))
        for share in shares
        if share
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    outcome["elapsed_s"] = elapsed
    outcome["rps"] = outcome["ok"] / elapsed if elapsed else 0.0
    return outcome


def _train_artifact() -> str:
    """One small ADPA artifact all serving phases share."""
    scratch = tempfile.mkdtemp(prefix="bench-cluster-")
    handle = (
        Session(train=TrainConfig(epochs=2, patience=2))
        .load(SERVE_DATASET)
        .fit("ADPA", hidden=16, num_steps=4)
    )
    return str(handle.save(scratch + "/artifact"))


def build_serving_profile(quick: bool = False, artifact: str = "") -> dict:
    """Single-process router vs a worker fleet, with one induced crash."""
    workers = QUICK_WORKERS if quick else WORKERS
    requests = QUICK_REQUESTS if quick else REQUESTS

    if not artifact:
        artifact = _train_artifact()

    # Baseline: one in-process router, requests serialized by its engine.
    router = Session(serve=SERVE_CONFIG).serve(artifact)
    with router:
        baseline = _drive(
            lambda: router.predict(node_ids=NODE_IDS), requests, CLIENTS
        )

    # Fleet: N worker processes, each its own router (and its own GIL).
    # Mid-run one worker is SIGKILLed; retries must absorb the crash.
    init = [("load", {"artifacts": [artifact], "serve": asdict(SERVE_CONFIG)})]
    with WorkerPool(workers, init_ops=init) as pool:
        crashed = threading.Timer(0.25, lambda: pool.kill_worker("w0"))
        crashed.start()
        cluster = _drive(
            lambda: pool.call("predict", {"node_ids": NODE_IDS}, timeout=120.0),
            requests,
            CLIENTS,
        )
        crashed.cancel()
        stats = pool.stats()

    return {
        "quick": quick,
        "dataset": SERVE_DATASET,
        "workers": workers,
        "requests": requests,
        "clients": CLIENTS,
        "cpu_count": os.cpu_count() or 1,
        "baseline_rps": baseline["rps"],
        "baseline_elapsed_s": baseline["elapsed_s"],
        "baseline_dropped": baseline["dropped"],
        "cluster_rps": cluster["rps"],
        "cluster_elapsed_s": cluster["elapsed_s"],
        "cluster_ok": cluster["ok"],
        "cluster_dropped": cluster["dropped"],
        "serve_speedup": (
            cluster["rps"] / baseline["rps"] if baseline["rps"] else 0.0
        ),
        "crashes_induced": 1,
        "retries": stats.retries,
        "restarts": stats.restarts,
    }


def build_tcp_profile(quick: bool, artifact: str, serial_json: str) -> dict:
    """The pipe-mode guarantees replayed over a TCP-loopback fleet.

    Workers are real ``--connect`` subprocesses registering through the
    HMAC handshake on ``127.0.0.1:<ephemeral>``; the induced failure is a
    severed connection (``kill_worker`` closes the socket), recovered by
    the pool re-running the slot's spawn command.
    """
    workers = QUICK_WORKERS if quick else WORKERS
    requests = QUICK_REQUESTS if quick else REQUESTS
    secret = "bench-cluster-tcp-secret"
    secret_dir = tempfile.mkdtemp(prefix="bench-cluster-tcp-")
    secret_file = os.path.join(secret_dir, "secret")
    with open(secret_file, "w", encoding="utf-8") as handle:
        handle.write(secret + "\n")
    command = worker_connect_command(CONNECT_PLACEHOLDER, secret_file)

    # (a) the sharded sweep merges bit-identical to serial over TCP too.
    spec = _quick_spec()
    with WorkerPool(
        2,
        listen="127.0.0.1:0",
        secret=secret,
        spawn_commands=[command, command],
    ) as pool:
        merged_json, sharded_s = _run_sharded_sweep(pool, spec)
        sweep_transports = sorted(
            {str(entry["transport"]) for entry in pool.stats().workers.values()}
        )
    bit_identical = merged_json == serial_json

    # (b) zero dropped predicts through one induced remote disconnect.
    init = [("load", {"artifacts": [artifact], "serve": asdict(SERVE_CONFIG)})]
    with WorkerPool(
        workers,
        init_ops=init,
        listen="127.0.0.1:0",
        secret=secret,
        spawn_commands=[command] * workers,
    ) as pool:
        disconnected = threading.Timer(0.25, lambda: pool.kill_worker("w0"))
        disconnected.start()
        serving = _drive(
            lambda: pool.call("predict", {"node_ids": NODE_IDS}, timeout=120.0),
            requests,
            CLIENTS,
        )
        disconnected.cancel()
        stats = pool.stats()
        rejected = pool.listener.rejected if pool.listener is not None else 0

    return {
        "quick": quick,
        "listen": "127.0.0.1:0",
        "workers": workers,
        "requests": requests,
        "clients": CLIENTS,
        "sweep_transports": sweep_transports,
        "sweep_sharded_s": sharded_s,
        "sweep_bit_identical": bit_identical,
        "serving_rps": serving["rps"],
        "serving_elapsed_s": serving["elapsed_s"],
        "serving_ok": serving["ok"],
        "serving_dropped": serving["dropped"],
        "disconnects_induced": 1,
        "retries": stats.retries,
        "restarts": stats.restarts,
        "rejected_handshakes": rejected,
    }


def build_cluster_profile(quick: bool = False) -> dict:
    spec = _quick_spec()
    started = time.perf_counter()
    serial_json = run_sweep(spec).canonical().to_json(indent=2)
    serial_s = time.perf_counter() - started
    artifact = _train_artifact()
    profile = {
        "quick": quick,
        "sweep": build_sweep_profile(serial_json, serial_s),
    }
    profile["serving"] = build_serving_profile(quick, artifact)
    profile["tcp"] = build_tcp_profile(quick, artifact, serial_json)
    return profile


def check_cluster_profile(profile: dict) -> None:
    sweep = profile["sweep"]
    # The tentpole guarantee: sharded == serial, byte for byte.
    assert sweep["bit_identical"], sweep
    serving = profile["serving"]
    # Every request answered despite the induced crash: retried, not dropped.
    assert serving["cluster_ok"] == serving["requests"], serving
    assert serving["cluster_dropped"] == 0, serving
    assert serving["baseline_dropped"] == 0, serving
    assert serving["restarts"] >= 1, serving
    tcp = profile["tcp"]
    # The same two guarantees over the TCP transport: byte-identical merge,
    # zero drops through a severed connection plus a spawn-command respawn.
    assert tcp["sweep_bit_identical"], tcp
    assert tcp["sweep_transports"] == ["tcp"], tcp
    assert tcp["serving_ok"] == tcp["requests"], tcp
    assert tcp["serving_dropped"] == 0, tcp
    assert tcp["restarts"] >= 1, tcp
    if not profile["quick"] and serving["cpu_count"] >= 2:
        # Process fan-out must actually buy throughput.  The floor is only
        # meaningful with cores to scale onto: compute-bound work cannot
        # beat single-process on a one-CPU box, where the run still proves
        # correctness (zero drops through a crash) and records the ratio.
        assert serving["serve_speedup"] >= MIN_SPEEDUP, serving


def format_cluster_table(profile: dict) -> str:
    sweep = profile["sweep"]
    serving = profile["serving"]
    tcp = profile["tcp"]
    lines = [
        f"sweep: {sweep['cells']} cells  serial {sweep['serial_s']:.2f}s  "
        f"2 shards {sweep['sharded_s']:.2f}s  "
        f"speedup {sweep['sweep_speedup']:.2f}x  "
        f"merge {'bit-identical' if sweep['bit_identical'] else 'DIVERGED'}",
        f"serving: {serving['dataset']}, {serving['requests']} requests, "
        f"{serving['clients']} clients, 1 induced crash",
        f"{'configuration':<24s}{'req/s':>10s}{'elapsed':>10s}{'dropped':>10s}",
        f"{'single process':<24s}{serving['baseline_rps']:>10.1f}"
        f"{serving['baseline_elapsed_s']:>9.2f}s{serving['baseline_dropped']:>10d}",
        f"{str(serving['workers']) + ' workers (pipes)':<24s}{serving['cluster_rps']:>10.1f}"
        f"{serving['cluster_elapsed_s']:>9.2f}s{serving['cluster_dropped']:>10d}",
        f"{str(tcp['workers']) + ' workers (tcp)':<24s}{tcp['serving_rps']:>10.1f}"
        f"{tcp['serving_elapsed_s']:>9.2f}s{tcp['serving_dropped']:>10d}",
        f"speedup: {serving['serve_speedup']:.2f}x on {serving['cpu_count']} "
        f"cpu(s)   retries {serving['retries']}   restarts {serving['restarts']}",
        f"tcp: sweep merge "
        f"{'bit-identical' if tcp['sweep_bit_identical'] else 'DIVERGED'}  "
        f"1 induced disconnect  restarts {tcp['restarts']}  "
        f"rejected handshakes {tcp['rejected_handshakes']}",
    ]
    return "\n".join(lines)


@pytest.mark.benchmark(group="cluster")
def test_cluster_scaling(benchmark):
    profile = benchmark.pedantic(
        build_cluster_profile, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print_banner("Cluster — sharded sweeps and multi-process serving")
    print(format_cluster_table(profile))
    path = write_bench_json("cluster", profile)
    print(f"wrote {path}")
    check_cluster_profile(profile)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Cluster scaling benchmark")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 2 workers, fewer requests, no speedup floor",
    )
    cli_args = parser.parse_args()
    result = build_cluster_profile(quick=cli_args.quick)
    print(format_cluster_table(result))
    # Written in quick mode too (flagged via the payload's "quick" field):
    # the CI artifact is the point of the smoke run.
    path = write_bench_json("cluster", result)
    print(f"wrote {path}")
    check_cluster_profile(result)
