"""One workload in one process: `run.py` starts it for the measured run,
and the measured run starts it again for each set-up probe.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds X --trace 0|1

`setup` prints the CLOCK_MONOTONIC time at which the first round is ready.
`measure` plays whole sessions until `--seconds` have passed and at least
MIN_ROUNDS rounds were played, checks every session, and prints one JSON
record. Untraced, it also times set-up probes (`setup` in fresh processes)
between the sessions. BLAS threads are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

WORKER = Path(__file__).resolve()
ROOT = WORKER.parent.parent
OUT = WORKER.parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the BLAS thread pins)

import checks  # noqa: E402
from matpred import omp  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, play_session, prepare, session_seed  # noqa: E402

# p99 needs at least ten rounds beyond it.
MIN_ROUNDS = 1000
# tracemalloc pass: retained bytes grow from round RETAINED_FROM to RETAINED_ROUNDS.
RETAINED_FROM, RETAINED_ROUNDS = 50, 200
# Set-up probes before each session and after the last, so that they spread
# over the whole run: the machine's speed switches between two levels for
# seconds at a time, and probes taken one after another all fall in one.
SETUP_PROBES_PER_GAP = 3


def machine_record(N: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    return {
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "N": N,
    }


def eigh_us(N: int, reps: int = 101) -> float:
    """Median wall time of one numpy eigh at order N, in microseconds."""
    A = np.random.default_rng(0).standard_normal((N, N))
    A = A + A.T
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        np.linalg.eigh(A)
        times.append(time.perf_counter() - t)
    return 1e6 * statistics.median(times)


def setup_probe(w, seed: int) -> float:
    """Seconds from starting a fresh process to its first round being ready."""
    cmd = [sys.executable, str(WORKER), "setup", "--workload", w.name, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - start


def retained_bytes_per_round(w, seed: int) -> tuple[float, list]:
    """Bytes the session keeps per round, measured by tracemalloc between
    round RETAINED_FROM and round RETAINED_ROUNDS of one session."""
    _, seq, session = prepare(w, seed, w.T)
    yhat = []
    tracemalloc.start()
    try:
        for t, ((i, j), lf) in enumerate(seq.rounds[:RETAINED_ROUNDS], start=1):
            pred, session = omp.omp_round(session, i, j, lf)
            yhat.append(pred)
            if t == RETAINED_FROM:
                base = tracemalloc.get_traced_memory()[0]
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (end - base) / (RETAINED_ROUNDS - RETAINED_FROM), yhat


def regret_share(w, res) -> float:
    """Realized regret over the paper's bound; for CF, the regret certified
    against the box relaxation."""
    bound = w.regret_bound(len(res.y))
    if w.kind == "cf":
        return (res.learner_loss - checks.cf_box_lower_bound(res.i, res.j, res.y, w.m, w.n)) / bound
    return (res.learner_loss - res.comparator[1]) / bound


def measure(w, seed: int, seconds: float, trace: bool) -> dict:
    play_session(w, session_seed(seed, 0), T=20)          # warm-up, not counted
    eigh_start = eigh_us(w.N)
    tracer = Tracer() if trace else None
    sessions, traced, failures, probes = [], [], [], []
    ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    k, paused = 0, 0.0           # probe time does not count in the run's length
    while True:
        if not trace:
            a = time.perf_counter()
            probes += [setup_probe(w, seed) for _ in range(SETUP_PROBES_PER_GAP)]
            paused += time.perf_counter() - a
        if (k and time.perf_counter() - t0 - paused >= seconds
                and sum(len(s.round_s) for s in sessions) >= MIN_ROUNDS):
            break
        sseed = session_seed(seed, k)
        sessions.append(play_session(w, sseed))
        failures += [f"session seed {sseed}: {f}" for f in w.check(sessions[-1])]
        if tracer:
            with tracer.active(k) as wrap:
                traced.append(play_session(w, sseed, wrap=wrap))
            failures += [f"traced session seed {sseed}: {f}" for f in w.check(traced[-1])]
        k += 1
    wall = time.perf_counter() - t0 - paused
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    round_s = np.concatenate([s.round_s for s in sessions])
    rounds_per_s = len(round_s) / float(round_s.sum())
    attempted = sum(len(s.y) for s in sessions + traced)
    failed = sum(s.failed for s in sessions + traced)
    info = {"sessions": len(sessions), "rounds_timed": len(round_s),
            "regret_over_bound": max((regret_share(w, s) for s in sessions if s.comparator),
                                     default=None),
            "cpu_over_wall": cpu / wall, "eigh_us_start": eigh_start,
            "errors": [s.error for s in sessions + traced if s.error]}
    if tracer:
        metrics = layer_metrics(tracer.spans, count_session=0)
        traced_s = np.concatenate([s.round_s for s in traced])
        metrics["trace.rounds_per_s_ratio"] = len(traced_s) / float(traced_s.sum()) / rounds_per_s
        retained, yhat = retained_bytes_per_round(w, session_seed(seed, 0))
        metrics["omp.retained_bytes_per_round"] = retained
        attempted += RETAINED_ROUNDS
        failures += checks.check_predictions(np.array(yhat), *w.prediction_range)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{w.name}.csv")
        info["absent"] = tracer.absent
        info["spans"] = len(tracer.spans)
    else:
        p50, p99 = np.percentile(1e3 * round_s, [50, 99])
        info["setup_probes"] = len(probes)
        info["setup_s_min"] = min(probes)
        metrics = {
            "setup_s": statistics.median(probes),
            "round_ms.p50": float(p50),
            "round_ms.p99": float(p99),
            "rounds_per_s": rounds_per_s,
            "experiment_s": statistics.fmean(s.experiment_s for s in sessions),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    info["eigh_us_end"] = eigh_us(w.N)
    return {"machine": machine_record(w.N), "info": info, "attempted": attempted,
            "failed": failed, "failures": failures, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        prepare(w, session_seed(args.seed, 0), w.T)
        print(repr(time.monotonic()))
        return 0
    print(json.dumps(measure(w, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
