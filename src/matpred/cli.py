"""Experiment harness CLI.

Subcommands: run (learner vs a random, lower-bound or file adversary over
seeds, with CSV trace), decompose (construct + validate a decomposition).
Exit codes: 0 success, 1 invariant/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
import warnings
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import decompose
from .adversaries import Sequence
from .harness import PROBLEMS, Params, run_learner
from .omp import OmpConfig, entry_index
from .problems import LossFn, RegretReport, evaluate_run


# ---------------------------------------------------------------------------
# file formats

def read_matrix(path: str) -> np.ndarray:
    """Plain-text matrix: first line 'm n', then exactly m rows of n decimals.

    A malformed header or row, or any other number of rows or columns,
    raises ValueError naming the file."""
    with open(path) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # no rows fails the shape check
        try:
            m, n = map(int, f.readline().split())
            W = np.loadtxt(f, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if W.shape != (m, n):
        raise ValueError(f"{path}: expected {m}x{n} matrix, got {W.shape}")
    return W


def write_matrix(path: str, W: np.ndarray):
    np.savetxt(path, W, fmt="%.12g", header=f"{W.shape[0]} {W.shape[1]}", comments="")


def read_sequence(path: str, m: int, n: int, T: int) -> Sequence:
    """Sequence CSV: t,i,j,kind,param, one round a row, for an m x n class.

    A malformed row, an entry outside [1..m] x [1..n], a loss LossFn
    rejects, or more than T rounds raises ValueError naming the line.
    """
    rounds = []
    with open(path) as f:
        header = f.readline()
        if not header.startswith("t,"):
            raise ValueError(f"{path}: missing sequence header")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                t, i, j, kind, param = line.strip().split(",")
                _, i, j = map(int, (t, i, j))
                lf = LossFn(kind, float(param))
                entry_index(i, j, m, n)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad row {line.strip()!r}: {exc}") from None
            except IndexError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(rounds) == T:
                raise ValueError(f"{path}:{lineno}: more than T={T} rounds")
            rounds.append(((i, j), lf))
    return Sequence(m=m, n=n, rounds=tuple(rounds))


def _config_argv(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A key = value config file as flags, for parsing ahead of the command line."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    argv = []
    for line in lines:
        line = line.split("#")[0].strip()
        if line:
            key, _, val = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            action = parser._option_string_actions.get(flag)
            if action is None:
                parser.error(f"unknown config key {key.strip()!r}")
            if action.nargs != 0:
                argv.append(f"{flag}={val.strip()}")
            elif val.strip() not in ("true", "false"):
                parser.error(f"config key {key.strip()!r} takes true or false")
            elif val.strip() == "true":
                argv.append(flag)
    return argv


# ---------------------------------------------------------------------------
# subcommands

@contextmanager
def _usage(args):
    """Report a ValueError raised while turning flags into a config or a
    class member as a usage error."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _read(args, flag: str, reader, *extra):
    """Read the file named by a flag; a missing flag, a missing file or a
    malformed one is a usage error."""
    path = getattr(args, flag)
    if path is None:
        args.parser.error(f"--{flag.replace('_', '-')} is required here")
    try:
        with _usage(args):
            return reader(path, *extra)
    except OSError as exc:
        args.parser.error(f"cannot read {path}: {exc.strerror}")


def _writable(args, *paths: str):
    """Open each output file to append, and remove it again if it is new,
    so that one that cannot be written is a usage error before any work."""
    for path in paths:
        try:
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                os.remove(path)
        except OSError as exc:
            args.parser.error(f"cannot write {path}: {exc.strerror}")


def _sequences(args, p: Params):
    """The adversary's sequence as a function of the seed."""
    if args.adversary == "file":
        seq = _read(args, "sequence_file", read_sequence, p.m, p.n, p.T)
        return lambda seed: seq
    if args.adversary == "lowerbound":
        lb = PROBLEMS[args.problem].lower_bound
        if lb is None:
            args.parser.error(f"no lower-bound adversary for {args.problem}")
        return partial(lb.adversary, p)
    return partial(PROBLEMS[args.problem].adversary, p)


def _games(args, sequence, comparator):
    """Each seed with its sequence, its comparator loss (None without a
    comparator) and the time its inputs were started. A ValueError from
    either input is a usage error, raised before that seed's rounds."""
    for seed in range(args.seed, args.seed + args.seeds):
        start = time.perf_counter()
        with _usage(args):
            seq = sequence(seed)
            comp = None if comparator is None else comparator(seq)
        yield seed, seq, comp, start


def _play(cfg: OmpConfig, seed: int, seq, comp, start: float,
          trace_path=None) -> RegretReport | None:
    """Run the learner on one seed's inputs from _games and print its line;
    returns its regret report against cfg.regret_bound(), or None without
    a comparator."""
    session, total = run_learner(cfg, seq, trace_path=trace_path)
    line = f"seed {seed:<4d} cumulative loss {total:.6f}"
    report = None
    if comp is not None:
        report = evaluate_run(total, comp, cfg.regret_bound())
        line += f"  comparator loss {comp:.6f}  realized regret {report.regret:.6f}"
    print(f"{line}  max eta*||L|| {session.max_eta_norm:.6g}  "
          f"({time.perf_counter() - start:.2f}s)")
    return report


def cmd_run(args) -> int:
    problem = PROBLEMS[args.problem]
    with _usage(args):
        p = Params(n=args.n, T=args.T, m=args.m, tau0=args.tau0, G=args.G, eta=args.eta)
        cfg = problem.config(p)
    comparator = None if args.no_comparator else partial(problem.comparator, p)
    sequence = _sequences(args, p)
    if args.out:
        _writable(args, args.out)
    games = _games(args, sequence, comparator)
    first = next(games)   # a usage error in the first seed's inputs comes before any output
    print(f"problem          {args.problem}")
    print(f"rounds           {p.T}")
    print(f"eta              {cfg.eta:.6g}")
    print(f"theoretical bound {cfg.regret_bound():.6f}")
    if args.adversary == "lowerbound":
        print(f"theorem value    {problem.lower_bound.theorem(p):.6f}")
    last = args.seed + args.seeds - 1   # --out is the last seed's trace
    reports = [_play(cfg, *game, args.out if game[0] == last else None)
               for game in itertools.chain([first], games)]
    if comparator is None:
        return 0
    regrets = [r.regret for r in reports]
    satisfied = all(r.bound_satisfied for r in reports)
    print(f"mean regret      {np.mean(regrets):.6f}")
    if len(regrets) > 1:
        print(f"stddev regret    {np.std(regrets, ddof=1):.6f}")
    print(f"max regret       {max(regrets):.6f}")
    print(f"bound satisfied  {satisfied}")
    return 0 if satisfied else 1


def cmd_decompose(args) -> int:
    if args.dump:
        _writable(args, args.dump + ".P", args.dump + ".N")
    with _usage(args):
        if args.klass == "cut":
            members = frozenset(int(x) for x in args.set.split(",")) if args.set else frozenset()
            c = decompose.CutSet(n=args.n, members=members)
            d = decompose.decompose_cut(c)
            W = decompose.cut_matrix(c)
        elif args.klass == "triangular":
            d = decompose.decompose_triangular(args.k)
            W = decompose.triangular(2 ** args.k)
        elif args.klass == "permutation":
            if args.perm is None:
                args.parser.error("decompose permutation needs --perm")
            mapping = tuple(int(x) for x in args.perm.split(","))
            pi = decompose.Permutation(n=len(mapping), mapping=mapping)
            d = decompose.decompose_permutation(pi)
            W = decompose.perm_matrix(pi)
        else:  # tracenorm
            W = _read(args, "file", read_matrix)
            d = decompose.decompose_trace_norm(W)
    report = decompose.validate(d, W)
    print(f"beta             {d.beta:.6g}")
    print(f"tau (guaranteed) {d.tau:.6g}")
    print(f"tau (realized)   {d.realized_trace():.6g}")
    for name, val in report.residuals.items():
        print(f"residual {name:<15} {val:.3e}")
    print(f"valid            {report.passed}")
    if args.dump:
        write_matrix(args.dump + ".P", d.P)
        write_matrix(args.dump + ".N", d.N)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {text}")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matpred",
                                     description="Online matrix prediction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the learner against an adversary")
    run.add_argument("--problem", choices=list(PROBLEMS), required=True)
    run.add_argument("--n", type=int, default=8)
    run.add_argument("--m", type=int, default=None)
    run.add_argument("--tau0", type=float, default=None, help="trace-norm bound (cf)")
    run.add_argument("--G", type=float, default=1.0, help="Lipschitz bound (cf)")
    run.add_argument("--T", type=int, default=1000)
    run.add_argument("--seed", type=int, default=1, help="first seed")
    run.add_argument("--seeds", type=_count, default=1, help="number of seeds")
    run.add_argument("--eta", type=float, default=None, help="learning rate override")
    run.add_argument("--adversary", choices=["random", "lowerbound", "file"], default="random")
    run.add_argument("--sequence-file", default=None)
    run.add_argument("--out", default=None, help="CSV trace path (of the last seed)")
    run.add_argument("--no-comparator", action="store_true",
                     help="skip the offline comparator and the regret report")
    run.add_argument("--config", default=None, help="key = value config file; flags win")
    run.set_defaults(func=cmd_run, parser=run)

    dec = sub.add_parser("decompose", help="construct and validate a decomposition")
    dec.add_argument("klass", choices=["cut", "triangular", "tracenorm", "permutation"])
    dec.add_argument("--n", type=int, default=8)
    dec.add_argument("--set", default=None, help="cut members, comma separated")
    dec.add_argument("--k", type=int, default=3)
    dec.add_argument("--perm", default=None, help="permutation values, comma separated")
    dec.add_argument("--file", default=None, help="matrix file (tracenorm)")
    dec.add_argument("--dump", default=None, help="dump P/N matrices to this prefix")
    dec.set_defaults(func=cmd_decompose, parser=dec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # The subcommand comes first; flags parsed later win over the file's.
        args = parser.parse_args(argv[:1] + _config_argv(args.config, args.parser) + argv[1:])
    try:
        return args.func(args)
    except (ValueError, IndexError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
