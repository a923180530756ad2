"""Self-test of the benchmark: a tiny pass of every workload.

    python3 repobench/selftest.py

Runs ``run.py`` at the tiny size on every workload, untraced and traced,
and checks that every end-to-end metric (untraced) and every per-layer
metric (traced) of BENCHMARK.json is emitted with its unit.  Then it
corrupts one answer per workload and checks that the command fails.  The
first call prepares the tiny artifacts; the whole test takes a few
minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, *extra: str):
    """One tiny run; returns the process and its parsed last line (or None)."""
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = process.stdout.strip().splitlines()
    try:
        return process, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return process, None


def check(workload: str, trace: int, expected: set, units: dict) -> list:
    process, result = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if process.returncode != 0 or result is None:
        return [f"{label}: exit {process.returncode}\n{process.stderr[-3000:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        problems.append(f"{label}: unexpected result {json.dumps(result)[:300]}")
    if set(result["metrics"]) != expected:
        problems.append(f"{label}: metrics differ by {sorted(set(result['metrics']) ^ expected)}")
    for name, entry in result["metrics"].items():
        if entry.get("unit") != units.get(name) or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} = {entry}")
        elif trace == 0 and not 0 < entry["value"] < float("inf"):
            problems.append(f"{label}: end-to-end {name} is not a positive number: {entry}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    workloads = [workload["name"] for workload in spec["workloads"]]
    problems = []
    if sorted(workloads) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} differ from run.py's")
    for workload in workloads:
        problems += check(workload, 0, end_to_end, units)
        problems += check(workload, 1, per_layer, units)
        process, result = run(workload, 0, "--inject-wrong-answer")
        if process.returncode == 0 or result is None or result["correct"] is not False:
            problems.append(
                f"{workload}: a corrupted answer did not fail the command (exit {process.returncode})"
            )
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
