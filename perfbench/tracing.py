"""Spans around the calls into each layer of the program.

The tracer wraps layer entry points from outside the program: numpy's
`eigh`/`eigvalsh` (the spectral primitives of `linalg`), `project_qre` and
`exp_step` as `omp` calls them, and the calls the benchmark itself makes
into `omp_round`, the comparator and the adversary. Each call records a
span (name, start, end, parent) in memory; `layer_metrics` derives the
per-layer metrics from them. An entry point that the program no longer
has is skipped, and the metrics that need it are left out.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from matpred import omp

EIGH = "linalg.eigh"
PROJECT = "mmw.project_qre"
STEP = "omp.exp_step"
ROUND = "omp.omp_round"
COMPARATOR = "problems.comparator"
SEQUENCE = "adversaries.random_adversary"

# (module, attribute, span name) patched while a traced session runs.
PATCHED = (
    (np.linalg, "eigh", EIGH),
    (np.linalg, "eigvalsh", EIGH),
    (omp, "project_qre", PROJECT),
    (omp, "exp_step", STEP),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, session]
        self.stack = []
        self.session = 0
        self.absent = sorted({name for mod, attr, name in PATCHED if not hasattr(mod, attr)})

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.session]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    @contextmanager
    def active(self, session: int):
        """Patch the program's entry points for the duration of one session."""
        self.session = session
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHED if hasattr(mod, attr)]
        try:
            for mod, attr, name in PATCHED:
                if hasattr(mod, attr):
                    setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield self.wrap
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path):
        with open(path, "w") as f:
            f.write("session,name,start_ns,end_ns,parent\n")
            for name, start, end, parent, session in self.spans:
                f.write(f"{session},{name},{start},{end},{parent}\n")


def layer_metrics(spans, count_session: int) -> dict:
    """Per-layer metrics from spans.

    Times are summed over every traced session. Counts come from the
    session `count_session` alone, whose trajectory the seed fixes, so they
    repeat exactly from run to run.
    """
    n = len(spans)
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child = [0.0] * n
    in_round = [False] * n
    in_project = [False] * n
    for k, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[k]
            in_round[k] = in_round[parent] or spans[parent][0] == ROUND
            in_project[k] = in_project[parent] or spans[parent][0] == PROJECT

    def total(name):
        return sum(dur[k] for k in range(n) if spans[k][0] == name)

    def count(name, inside=None):
        return sum(1 for k in range(n) if spans[k][0] == name and spans[k][4] == count_session
                   and (inside is None or inside[k]))

    rounds = sum(1 for s in spans if s[0] == ROUND)
    eigh = [dur[k] for k in range(n) if spans[k][0] == EIGH and in_round[k]]
    names = {s[0] for s in spans}
    m = {
        "linalg.eigh_per_round": count(EIGH, in_round) / count(ROUND),
        "linalg.eigh_ms_per_round": 1e3 * sum(eigh) / rounds,
        "omp.self_ms_per_round": 1e3 * sum(dur[k] - child[k] for k in range(n)
                                           if spans[k][0] == ROUND) / rounds,
        "problems.comparator_s": statistics.median(d for d, s in zip(dur, spans) if s[0] == COMPARATOR),
        "adversaries.sequence_s": statistics.median(d for d, s in zip(dur, spans) if s[0] == SEQUENCE),
    }
    if eigh:
        m["linalg.eigh_us"] = 1e6 * sum(eigh) / len(eigh)
    if PROJECT in names:
        m["mmw.project_ms_per_round"] = 1e3 * total(PROJECT) / rounds
        m["mmw.eigh_per_project"] = count(EIGH, in_project) / count(PROJECT)
    if STEP in names:
        m["omp.step_ms_per_round"] = 1e3 * total(STEP) / rounds
    return m
