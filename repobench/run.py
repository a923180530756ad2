"""The repository benchmark: four seeded workloads behind one command.

From the root of a checkout::

    python3 repobench/run.py --workload hot_http --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``hot_http``, ``churn``,
``cluster_http`` and ``train_sweep``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are every end-to-end
metric named in ``BENCHMARK.json``, which each workload reports over its
own operations (see ``workloads.py``).  With ``--trace 1`` the
workload runs twice, untraced and then with the layer wrappers of
``tracing.py`` installed, and the metrics are every per-layer metric
named in ``BENCHMARK.json`` (zero for a layer the workload does not
exercise), the tracing overhead included; the serving workloads also
print a per-request self-time breakdown.

The command exits 1 when an answer check fails and 2 when the program's
sources are missing.  Artifacts are trained once per source version by
``prepare.py`` into ``.bench_work/`` (untimed: the first run of a
checkout pays for it).  Each run records its seed, whether it was
traced, the source digest and git sha, the CPU count, the BLAS thread
settings and the Python, numpy and scipy versions in a ``# run`` line and
under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: seconds a run may take once its artifacts are prepared (runs must end
#: within 180 s).
WATCHDOG_S = 170.0

WORKLOADS = ("hot_http", "churn", "cluster_http", "train_sweep")

#: one BLAS thread per process unless the environment says otherwise.  On
#: the two-core reference host a second BLAS thread sped no sweep up, but
#: spun: the process's CPU time read twice its wall time, a core taken
#: from the client, server and worker threads.
BLAS_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the self-test's small inputs",
    )
    parser.add_argument(
        "--inject-wrong-answer", action="store_true",
        help="corrupt one answer before it is checked (self-test)",
    )
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program sources and of the preparation script."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "prepare.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref:"):
        return head
    ref = head.split(None, 1)[1]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads() -> dict:
    settings = {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return settings
    settings["pools"] = [
        {"api": pool.get("internal_api"), "threads": pool.get("num_threads")}
        for pool in threadpool_info()
    ]
    return settings


def prepare(size: str, digest: str) -> Path:
    """Train and save the artifacts once per source version (untimed)."""
    target = WORK / f"prep-{size}-{digest}"
    if (target / "READY").is_file():
        return target
    staging = WORK / f"staging-{size}-{digest}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--out", str(staging), "--size", size],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=800,
    )
    (staging / "READY").write_text(digest + "\n")
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    return target


def start_watchdog() -> None:
    def expire() -> None:
        print(f"error: the run did not finish within {WATCHDOG_S:.0f} s", file=sys.stderr, flush=True)
        os._exit(3)

    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    timer.start()


def traced_run(run, ctx, names):
    """Run untraced, then traced; returns both outcomes, the metrics and spans."""
    import tracing

    base = run(ctx)
    recorder = tracing.SpanRecorder()
    patcher = tracing.install(recorder)
    try:
        outcome = run(dataclasses.replace(ctx, recorder=recorder))
    finally:
        patcher.restore()
    measured = {
        **tracing.summarize(recorder),
        **outcome.layers,
        "bench.tracing_overhead_ms": outcome.p50_ms - base.p50_ms,
    }
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    layers = dict.fromkeys(names, 0.0)
    layers.update(measured)
    return [base, outcome], layers, recorder


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    for name, value in BLAS_THREADS.items():
        os.environ.setdefault(name, value)
    digest = source_digest()
    prep = prepare(args.size, digest)
    start_watchdog()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads

    ctx = workloads.Context(
        prep=prep,
        seed=args.seed,
        seconds=args.seconds,
        size=workloads.SIZES[args.size],
        corrupt=args.inject_wrong_answer,
    )
    run = workloads.WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes, metrics, recorder = traced_run(run, ctx, per_layer)
        recorder.dump(WORK / "traces" / f"{label}.jsonl")
        breakdown = passes[-1].breakdown
        if breakdown:
            print(f"# self time per answered request, mean ms ({args.workload}, traced)")
            for row, value in breakdown:
                print(f"#   {row:<16}{value:12.4f}")
            print(f"#   {'= client mean':<16}{sum(value for _, value in breakdown):12.4f}")
    else:
        passes = [run(ctx)]
        metrics = {name: passes[0].metrics[name] for name in end_to_end}

    result = {
        "correct": all(outcome.wrong == 0 for outcome in passes),
        "attempted": sum(outcome.attempted for outcome in passes),
        "failed": sum(outcome.failed for outcome in passes),
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "size": args.size,
        "source_digest": digest,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps({"run": meta, "result": result}, indent=2) + "\n")
    print("# run " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
