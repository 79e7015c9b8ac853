"""Benchmark of the online learner: plays it against seeded adversaries on
the workloads of BENCHMARK.json, checks every result, and prints every
metric by name with its unit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload runs in a process of its own
(`worker.py`), started one after another from this one. With `--trace 0`
the end-to-end metrics are printed, with `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 0 when every
check passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Every run ends within 180 s.
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in a worker process of its own; return its record."""
    cmd = [sys.executable, str(WORKER), "measure", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} did not end within {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(name: str, seed: int, rec: dict, wanted: list) -> dict:
    """Print one workload's record and return its metrics with units."""
    print(f"machine {json.dumps(rec['machine'])}")
    print(f"info {json.dumps(rec['info'])}")
    print(f"{name} seed {seed}: {rec['attempted']} rounds attempted, {rec['failed']} failed")
    for failure in rec["failures"]:
        print(f"CHECK FAILED {name}: {failure}")
    metrics = {}
    for m in wanted:
        if m["name"] in rec["metrics"]:
            metrics[m["name"]] = {"value": rec["metrics"][m["name"]], "unit": m["unit"]}
            print(f"  {name:<12} {m['name']:<30} {rec['metrics'][m['name']]:>14.6g} {m['unit']}")
        else:
            print(f"  {name:<12} {m['name']:<30} {'absent':>14}")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "matpred" / "__init__.py").is_file():
        print(f"run.py: the program's source is missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for name, rec in results.items():
        for key, val in report(name, args.seed, rec, wanted).items():
            metrics[key if len(selected) == 1 else f"{name}/{key}"] = val
    correct = not any(rec["failures"] for rec in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(rec["attempted"] for rec in results.values()),
        "failed": sum(rec["failed"] for rec in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
