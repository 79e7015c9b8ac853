import io
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matpred import harness
from matpred.adversaries import Sequence, random_adversary
from matpred.cli import build_parser, main, read_matrix, read_sequence, write_matrix
from matpred.harness import run_learner
from matpred.problems import LossFn, maxcut_config

SRC = Path(__file__).resolve().parent.parent / "src"
SEED_LINE = re.compile(r"seed (\d+) +cumulative loss (\S+)  comparator loss (\S+)  "
                       r"realized regret (\S+)")


def seed_lines(out: str) -> list[tuple[int, float, float, float]]:
    return [(int(m[1]), float(m[2]), float(m[3]), float(m[4])) for m in SEED_LINE.finditer(out)]


def value(out: str, label: str) -> float:
    return float(re.search(rf"^{re.escape(label)} +(\S+)$", out, re.M)[1])


def write_sequence(path: str, seq: Sequence):
    """The sequence CSV that read_sequence reads."""
    with open(path, "w") as f:
        f.write("t,i,j,kind,param\n")
        for t, ((i, j), lf) in enumerate(seq.rounds, start=1):
            f.write(f"{t},{i},{j},{lf.kind},{lf.param:.12g}\n")


class TestMatrixIo:
    def test_round_trip(self, tmp_path):
        W = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -3.0]])
        path = tmp_path / "w.txt"
        write_matrix(str(path), W)
        assert np.array_equal(read_matrix(str(path)), W)

    def test_header_is_shape(self, tmp_path):
        path = tmp_path / "w.txt"
        write_matrix(str(path), np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "2 3"

    def test_writes_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "w.txt"
        write_matrix(str(path), np.array([[-0.0, 1.0 / 3.0], [1e-300, -2.5e300]]))
        assert path.read_text() == "2 2\n-0 0.333333333333\n1e-300 -2.5e+300\n"

    @pytest.mark.parametrize("text", ["1 2\n0.1 0.2\n0.3 0.4\n", "2 2\n0.1 0.2\n0.3\n",
                                      "2 2\n0.1 0.2\n", "1 1\n"],
                             ids=["extra-row", "short-row", "missing-row", "no-rows"])
    @pytest.mark.filterwarnings("error")   # the error alone, without numpy's empty-input warning
    def test_malformed_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_matrix(str(path))


class TestSequenceIo:
    def test_round_trip(self, tmp_path):
        seq = random_adversary("maxcut", 4, 4, T=20, seed=3)
        path = tmp_path / "seq.csv"
        write_sequence(str(path), seq)
        back = read_sequence(str(path), 4, 4, 20)
        assert back.rounds == seq.rounds

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,2,linear,0.5\n")
        with pytest.raises(ValueError):
            read_sequence(str(path), 2, 2, 1)

    @pytest.mark.parametrize("row, message", [
        ("1,1,3,linear,0.5", r"entry \(1, 3\) outside"),
        ("1,1,2,linear", "bad row"),
        ("1,1,x,linear,0.5", "bad row"),
        ("1,1,2,linear,inf", "must be finite"),
        ("1,1,2,huber,0.5", "unknown loss kind"),
        ("1,2,1,linear,0.5", "more than T=2 rounds"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,i,j,kind,param\n1,1,2,linear,0.5\n\n2,2,1,linear,0.5\n{row}\n")
        with pytest.raises(ValueError, match=rf"bad.csv:5: .*{message}"):
            read_sequence(str(path), 2, 2, 2)


class TestParser:
    @pytest.mark.parametrize("command, defaults", [
        ("run", dict(n=8, m=None, tau0=None, G=1.0, T=1000, seed=1, seeds=1)),
    ])
    def test_shared_flag_defaults(self, command, defaults):
        # Every adversary of `run` shares these defaults.
        args = build_parser().parse_args([command, "--problem", "maxcut"])
        assert {key: getattr(args, key) for key in defaults} == defaults


class TestRunCommand:
    def test_maxcut_random_run(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(["run", "--problem", "maxcut", "--n", "4", "--T", "50",
                   "--seed", "1", "--out", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bound satisfied  True" in out
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,i,j,yhat,g,loss,cumloss"
        assert len(lines) == 51
        # cumloss column is the running sum of the loss column
        losses = [float(l.split(",")[5]) for l in lines[1:]]
        cums = [float(l.split(",")[6]) for l in lines[1:]]
        assert cums[-1] == pytest.approx(sum(losses), abs=1e-9)

    def test_out_is_the_last_seeds_trace(self, tmp_path, capsys, monkeypatch):
        # Only the last seed writes the trace: no earlier seed opens the
        # file, so it holds what a run of that seed alone writes.
        paths = []

        def recorded(cfg, seq, trace_path=None):
            paths.append(trace_path)
            return run_learner(cfg, seq, trace_path=trace_path)
        monkeypatch.setattr("matpred.cli.run_learner", recorded)
        flags = ["run", "--problem", "maxcut", "--n", "4", "--T", "20", "--no-comparator"]
        many, one = tmp_path / "many.csv", tmp_path / "one.csv"
        assert main(flags + ["--seed", "1", "--seeds", "3", "--out", str(many)]) == 0
        assert paths == [None, None, str(many)]
        assert main(flags + ["--seed", "3", "--out", str(one)]) == 0
        assert many.read_text() == one.read_text()

    def test_stddev_regret_needs_two_seeds(self, capsys):
        flags = ["run", "--problem", "maxcut", "--n", "4", "--T", "20"]
        assert main(flags + ["--seeds", "2"]) == 0
        out = capsys.readouterr().out
        regrets = [row[3] for row in seed_lines(out)]
        assert value(out, "stddev regret") == pytest.approx(np.std(regrets, ddof=1), abs=1e-6)
        assert main(flags + ["--seeds", "1"]) == 0
        assert "stddev regret" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    def test_bad_size_names_n_and_m(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "cf", "--n", "4", "--T", "5", flag, "0"])
        assert exc.value.code == 2
        assert "error: n and m must be >= 1" in capsys.readouterr().err

    def test_sequence_file_adversary(self, tmp_path, capsys):
        seq = random_adversary("maxcut", 4, 4, T=30, seed=5)
        path = tmp_path / "seq.csv"
        write_sequence(str(path), seq)
        rc = main(["run", "--problem", "maxcut", "--n", "4", "--T", "30",
                   "--adversary", "file", "--sequence-file", str(path)])
        assert rc == 0
        assert "realized regret" in capsys.readouterr().out

    def test_no_comparator(self, capsys):
        rc = main(["run", "--problem", "cf", "--n", "4", "--T", "10", "--no-comparator"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cumulative loss" in out
        assert "comparator loss" not in out and "bound satisfied" not in out

    def test_config_file_fills_defaults(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 4\nT = 40  # horizon\n")
        rc = main(["run", "--problem", "maxcut", "--seed", "2",
                   "--config", str(cfgfile)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rounds           40" in out

    def test_flags_beat_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("T = 40\n")
        rc = main(["run", "--problem", "maxcut", "--n", "4", "--T", "20",
                   "--config", str(cfgfile)])
        assert rc == 0
        assert "rounds           20" in capsys.readouterr().out

    def test_config_file_eta_is_cast_to_float(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("eta = 0.1\n")
        rc = main(["run", "--problem", "maxcut", "--n", "4", "--T", "10",
                   "--config", str(cfgfile)])
        assert rc == 0
        assert value(capsys.readouterr().out, "eta") == 0.1

    def test_config_file_tau0_and_m_are_read(self, tmp_path, capsys):
        base = ["run", "--problem", "cf", "--n", "4", "--T", "10", "--no-comparator"]
        assert main(base) == 0
        default_bound = value(capsys.readouterr().out, "theoretical bound")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tau0 = 2\nm = 3\n")
        assert main(base + ["--config", str(cfgfile)]) == 0
        bound = value(capsys.readouterr().out, "theoretical bound")
        # 2 G sqrt(2 tau0 sqrt(m + n) log(2 (m + n)) T)
        assert bound == pytest.approx(2 * np.sqrt(4.0 * np.sqrt(7) * np.log(14) * 10), abs=1e-6)
        assert bound != pytest.approx(default_bound)

    def test_config_file_switch(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("no_comparator = true\n")
        assert main(["run", "--problem", "cf", "--n", "4", "--T", "10",
                     "--config", str(cfgfile)]) == 0
        assert "comparator loss" not in capsys.readouterr().out
        cfgfile.write_text("no_comparator = yes\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "cf", "--config", str(cfgfile)])
        assert exc.value.code == 2
        assert "takes true or false" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "maxcut", "--config", str(cfgfile)])
        assert exc.value.code == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err

    def test_diagonal_query_is_error(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("t,i,j,kind,param\n1,1,2,absolute_halved,1\n2,3,3,absolute_halved,1\n")
        rc = main(["run", "--problem", "maxcut", "--n", "4", "--T", "2",
                   "--adversary", "file", "--sequence-file", str(path)])
        assert rc == 1
        assert "error: entry (3, 3) is on the diagonal" in capsys.readouterr().err

    def test_large_eta_projects(self, capsys):
        # The trace dual here, log(Tr Y / tau), is large; no dual is capped.
        # At eta 1000 (the log iterate spans about -500 to 500) the sweep
        # leaves two projections unconverged, one with the -E and I duals
        # coupled, and the Newton finish solves them.
        for eta in ("30", "1000"):
            rc = main(["run", "--problem", "maxcut", "--n", "4", "--T", "5", "--eta", eta])
            assert rc == 0
            assert "bound satisfied  True" in capsys.readouterr().out

    def test_bad_eta_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "maxcut", "--n", "4", "--T", "10", "--eta", "-1.0"])
        assert exc.value.code == 2
        assert "error: eta must be > 0" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_cut(self, capsys):
        rc = main(["decompose", "cut", "--n", "4", "--set", "1,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid            True" in out
        assert "beta             1" in out

    def test_triangular_dump(self, tmp_path, capsys):
        prefix = tmp_path / "tri"
        rc = main(["decompose", "triangular", "--k", "2", "--dump", str(prefix)])
        assert rc == 0
        P = read_matrix(str(prefix) + ".P")
        N = read_matrix(str(prefix) + ".N")
        from matpred.decompose import decompose_triangular
        d = decompose_triangular(2)
        assert np.allclose(P, d.P) and np.allclose(N, d.N)

    def test_permutation(self, capsys):
        rc = main(["decompose", "permutation", "--perm", "3,1,4,5,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid            True" in out

    def test_tracenorm_from_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        rng = np.random.default_rng(0)
        write_matrix(str(path), rng.uniform(-1, 1, (3, 4)))
        rc = main(["decompose", "tracenorm", "--file", str(path)])
        assert rc == 0
        assert "valid            True" in capsys.readouterr().out

    def test_invalid_permutation_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "permutation", "--perm", "1,1,2"])
        assert exc.value.code == 2
        assert "error: mapping is not a bijection" in capsys.readouterr().err


class TestLowerboundCommand:
    """`run --adversary lowerbound`, the one command for a lower-bound adversary."""

    def test_maxcut_small(self, capsys):
        rc = main(["run", "--adversary", "lowerbound", "--problem", "maxcut", "--n", "4",
                   "--T", "64", "--seed", "1", "--seeds", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean regret" in out and "stddev regret" in out
        assert value(out, "theorem value") == 4.0

    def test_gambling_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--adversary", "lowerbound", "--problem", "gambling"])
        assert exc.value.code == 2
        assert "no lower-bound adversary for gambling" in capsys.readouterr().err

    def test_cf_small(self, capsys):
        flags = ["run", "--adversary", "lowerbound", "--problem", "cf", "--m", "4", "--n", "4",
                 "--tau0", "4.0", "--T", "32", "--seeds", "1"]
        assert main(flags) == 0
        out = capsys.readouterr().out
        theorem = pytest.approx(8 * math.sqrt(2), abs=1e-6)   # G sqrt(tau0 sqrt(n) T / 2)
        assert "mean regret" in out and value(out, "theorem value") == theorem
        # The theorem value belongs to the adversary, so it shows without a comparator too.
        assert main(flags + ["--no-comparator"]) == 0
        out = capsys.readouterr().out
        assert "mean regret" not in out and value(out, "theorem value") == theorem


class TestRunLearner:
    def test_totals_match_history(self, tmp_path):
        cfg = maxcut_config(n=4, T=25)
        seq = random_adversary("maxcut", 4, 4, T=25, seed=7)
        trace = tmp_path / "trace.csv"
        session, total = run_learner(cfg, seq, trace_path=str(trace))
        losses = [float(line.split(",")[5]) for line in trace.read_text().splitlines()[1:]]
        assert len(losses) == 25 and session.last_event.t == 25
        assert total == pytest.approx(sum(losses))


# The numbers below are those of the former sweep scripts on the same seeds:
# run_regret.py --n 4 --T 40 --seeds 3 (plus --m 4 --tau0 4 for cf) and
# run_lowerbounds.py --n 4 --T 64 --cf-m 4 --cf-n 4 --tau0 4 --seeds 2, now
# run --adversary lowerbound with those flags, which scores the lower-bound
# sequences with the problem's own exact comparator.
# The gambling rows are re-pinned since the absolute losses' subgradient
# is 0 within CLAMP_SLACK of the kink, and the cf row since its comparator
# is solved to a certified duality gap.
# Each row is (seed, learner loss, comparator loss, regret).
SWEEP_RUNS = {
    "maxcut": (18.24035763544053, [(1, 19.41843287656934, 14.0, 5.418432876569341),
                                   (2, 21.97464396038228, 19.0, 2.9746439603822807),
                                   (3, 19.577190061198902, 15.0, 4.577190061198902)]),
    "gambling": (252.74580938247928, [(1, 19.11805949472384, 13.0, 6.118059494723841),
                                      (2, 22.88679183081112, 13.0, 9.88679183081112),
                                      (3, 15.95462106457371, 9.0, 6.954621064573709)]),
    "cf": (100.18903826825529, [(1, 0.23382954395215647, -8.400123453469572, 8.633952997421728),
                                (2, -0.0801064306231696, -9.655610230066817, 9.575503799443647),
                                (3, 0.134048694199645, -7.654705278419566, 7.788753972619212)]),
}
SWEEP_LOWERBOUNDS = {
    "maxcut": (4.0, [(1, 28.229773297092034, 23.0, 5.229773297092034),
                     (2, 33.561986053174095, 29.0, 4.5619860531740954)]),
    "cf": (16.0, [(1, -5.48672461307189, -26.0, 20.51327538692811),
                  (2, -1.8176686927877095, -22.0, 20.18233130721229)]),
}


class TestSweepParity:
    @pytest.mark.parametrize("problem", sorted(SWEEP_RUNS))
    def test_run_seeds(self, problem, capsys):
        bound, rows = SWEEP_RUNS[problem]
        rc = main(["run", "--problem", problem, "--n", "4", "--m", "4", "--tau0", "4",
                   "--T", "40", "--seed", "1", "--seeds", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert seed_lines(out) == [pytest.approx(r, abs=1e-6) for r in rows]
        regrets = [r[3] for r in rows]
        assert value(out, "theoretical bound") == pytest.approx(bound, abs=1e-6)
        assert value(out, "mean regret") == pytest.approx(np.mean(regrets), abs=1e-6)
        assert value(out, "max regret") == pytest.approx(max(regrets), abs=1e-6)

    @pytest.mark.parametrize("problem", sorted(SWEEP_LOWERBOUNDS))
    def test_lowerbound(self, problem, capsys):
        theorem, rows = SWEEP_LOWERBOUNDS[problem]
        rc = main(["run", "--adversary", "lowerbound", "--problem", problem, "--n", "4",
                   "--m", "4", "--tau0", "4", "--T", "64", "--seed", "1", "--seeds", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert seed_lines(out) == [pytest.approx(r, abs=1e-6) for r in rows]
        assert value(out, "mean regret") == pytest.approx(np.mean([r[3] for r in rows]), abs=1e-4)
        assert value(out, "theorem value") == theorem


def matpred(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "matpred", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


class Rows(tuple):
    """Rows of a sequence file; test_usage_error writes them, under the
    header, to a file and passes its path."""


def file_run(*rows, extra=()):
    return ("run", "--problem", "gambling", "--n", "4", "--T", "2", *extra,
            "--adversary", "file", "--sequence-file", Rows(rows))


class TestExitCodes:
    def test_success(self):
        res = matpred("run", "--problem", "maxcut", "--n", "4", "--T", "20")
        assert (res.returncode, res.stderr) == (0, "")

    def test_bound_broken(self, tmp_path):
        # A learner frozen at 0 pays 1/2 a round on a label the best cut gets
        # right: regret 50 against a bound of sqrt(4 log(8) 100) ~ 28.8.
        path = tmp_path / "seq.csv"
        write_sequence(str(path), Sequence(4, 4, (((1, 2), LossFn("absolute_halved", 1.0)),) * 100))
        res = matpred("run", "--problem", "maxcut", "--n", "4", "--T", "100", "--eta", "1e-9",
                      "--adversary", "file", "--sequence-file", str(path))
        assert res.returncode == 1
        assert "bound satisfied  False" in res.stdout
        assert "Traceback" not in res.stderr

    def test_invariant_failure(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("t,i,j,kind,param\n1,2,2,absolute_halved,1\n")
        res = matpred("run", "--problem", "maxcut", "--n", "4", "--T", "1",
                      "--adversary", "file", "--sequence-file", str(path))
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv", [
        ("run", "--problem", "maxcut", "--seeds", "0"),
        ("run", "--problem", "maxcut", "--config", "missing.cfg"),
        ("lowerbound",),
        ("run", "--problem", "gambling", "--adversary", "lowerbound"),
        ("run", "--problem", "maxcut", "--adversary", "file"),
        ("run", "--problem", "maxcut", "--adversary", "file", "--sequence-file", "missing.csv"),
        ("run", "--problem", "maxcut", "--comparator", "none"),
        ("decompose", "tracenorm"),
        ("decompose", "tracenorm", "--file", "missing.txt"),
        ("decompose", "permutation"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--G", "0"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--G", "-1"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--tau0", "0"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--tau0", "100"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--m", "0"),
        ("run", "--problem", "maxcut", "--n", "1", "--T", "5"),
        ("run", "--adversary", "lowerbound", "--problem", "cf", "--T", "10", "--G", "0"),
        ("run", "--adversary", "lowerbound",
         "--problem", "cf", "--m", "4", "--n", "4", "--tau0", "0", "--T", "16"),
        ("decompose", "cut", "--n", "0"),
        ("decompose", "permutation", "--perm", "1,1"),
        ("verify", "all"),
        ("decompose", "cut", "--tol", "1e-8"),
        ("run", "--problem", "gambling", "--n", "9", "--T", "200"),
        ("run", "--adversary", "lowerbound", "--problem", "maxcut", "--n", "5", "--T", "10"),
        ("run", "--adversary", "lowerbound",
         "--problem", "cf", "--m", "4", "--n", "4", "--tau0", "3", "--T", "16"),
        file_run("1,1,9,absolute,1"),
        file_run("1,1,2,absolute"),
        file_run("1,1,2,absolute,1", "2,2,1,absolute,1", "3,1,3,absolute,1"),
        file_run("1,1,2,absolute,nan"),
        file_run("1,1,2,huber,1", extra=("--no-comparator",)),
        ("run", "--problem", "maxcut", "--n", "4", "--T", "5", "--eta", "nan"),
        ("run", "--problem", "maxcut", "--n", "4", "--T", "5", "--eta", "inf"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--G", "inf"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--tau0", "nan"),
        ("run", "--adversary", "lowerbound",
         "--problem", "cf", "--m", "4", "--n", "4", "--T", "16", "--G", "nan"),
        ("run", "--problem", "gambling", "--n", "5", "--m", "7", "--T", "2",
         "--adversary", "file", "--sequence-file", Rows(["1,7,2,absolute,1"])),
        ("run", "--problem", "gambling", "--n", "5", "--m", "7", "--T", "2", "--no-comparator",
         "--adversary", "file", "--sequence-file", Rows(["1,7,2,absolute,1"])),
        ("run", "--problem", "maxcut", "--n", "4", "--m", "7", "--T", "2",
         "--adversary", "file", "--sequence-file", Rows(["1,7,2,absolute_halved,1"])),
        ("run", "--problem", "maxcut", "--n", "4", "--m", "7", "--T", "2"),
        ("run", "--problem", "gambling", "--n", "5", "--m", "7", "--T", "2"),
        ("run", "--adversary", "lowerbound",
         "--problem", "maxcut", "--n", "4", "--m", "7", "--T", "16"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--G", "1e200"),
        ("run", "--adversary", "lowerbound",
         "--problem", "cf", "--m", "4", "--n", "4", "--T", "16", "--G", "1e200"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--G", "1e-200"),
        ("run", "--adversary", "lowerbound",
         "--problem", "cf", "--m", "4", "--n", "4", "--T", "16", "--G", "1e-200"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--G", "1e-160"),
        ("run", "--problem", "cf", "--n", "4", "--T", "5", "--tau0", "1e-300", "--G", "1e150"),
        # tau / 2p underflows to 0, whose log the initial iterate would take
        ("run", "--problem", "cf", "--n", "1", "--T", "1", "--tau0", "5e-324", "--no-comparator"),
        # --G and --tau0 are checked on the problems whose configs never read them
        ("run", "--problem", "maxcut", "--n", "4", "--T", "5", "--G", "nan"),
        ("run", "--problem", "gambling", "--n", "4", "--T", "5", "--G", "-3", "--tau0", "nan"),
        ("run", "--adversary", "lowerbound",
         "--problem", "maxcut", "--n", "4", "--T", "8", "--G", "inf", "--tau0", "-1"),
        # eta * G past the step's exp range (about 700 here): gambling's G is
        # 1, and cf n = 7 at 715 once failed mid-run in the projection
        ("run", "--problem", "gambling", "--n", "4", "--T", "50", "--eta", "1000", "--no-comparator"),
        ("run", "--problem", "cf", "--n", "7", "--T", "50", "--eta", "715", "--no-comparator"),
    ])
    def test_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        # In process: an uncaught exception fails the test as a traceback would.
        rounds = []
        play = harness.omp_round
        monkeypatch.setattr(harness, "omp_round", lambda *a: rounds.append(a) or play(*a))
        for k, arg in enumerate(argv):
            if isinstance(arg, Rows):
                path = tmp_path / "seq.csv"
                path.write_text("t,i,j,kind,param\n" + "".join(f"{row}\n" for row in arg))
                argv = (*argv[:k], str(path), *argv[k + 1:])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "error:" in err
        assert out == ""   # the error comes before any output
        assert rounds == []   # and before any round

    @pytest.mark.parametrize("argv, written", [
        (("run", "--problem", "maxcut", "--n", "4", "--T", "5", "--out"), ""),
        (("decompose", "triangular", "--k", "2", "--dump"), ".P"),
    ])
    def test_unwritable_output_is_usage_error(self, argv, written, tmp_path):
        path = str(tmp_path / "missing" / "x")
        res = matpred(*argv, path)
        assert res.returncode == 2
        assert f"error: cannot write {path}{written}" in res.stderr
        assert "Traceback" not in res.stderr
        assert "cumulative loss" not in res.stdout and "valid" not in res.stdout

    def test_allocation_failure_is_error_line(self, capsys):
        # The first allocation, the 2^31 x 2^31 P (32 EiB), is refused before anything large exists.
        assert main(["decompose", "triangular", "--k", "30"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_usage_error_after_path_check_leaves_no_file(self, tmp_path):
        # --out is probed before the comparator's size limit is checked.
        path = tmp_path / "trace.csv"
        res = matpred("run", "--problem", "gambling", "--n", "9", "--T", "5", "--out", str(path))
        assert res.returncode == 2 and not path.exists()

    def test_cf_comparator_needs_linear_losses(self, tmp_path):
        path = tmp_path / "seq.csv"
        write_sequence(str(path), Sequence(4, 4, (((1, 2), LossFn("absolute", 0.5)),) * 10))
        argv = ("run", "--problem", "cf", "--n", "4", "--T", "10",
                "--adversary", "file", "--sequence-file", str(path))
        res = matpred(*argv)
        assert res.returncode == 2
        assert "linear losses only" in res.stderr and "Traceback" not in res.stderr
        assert matpred(*argv, "--no-comparator").returncode == 0


def run_argv(problem, n, T, seed, eta, G, share):
    """A `run --no-comparator` call; G, and tau0 as a share of its largest
    value m sqrt(n) with m = n, are passed to CF alone."""
    argv = ["run", "--problem", problem, "--n", str(n), "--T", str(T), "--seed", str(seed),
            "--no-comparator"]
    if eta is not None:
        argv += ["--eta", repr(eta)]
    if problem == "cf":
        argv += ["--G", repr(G), "--tau0", repr(share * n * math.sqrt(n))]
    return argv


def spread_argv(seed):
    """run_argv drawn evenly over the domain: eta the default or log-uniform
    in [1e-3, 316], G log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    return run_argv(str(rng.choice(sorted(harness.PROBLEMS))), int(rng.integers(1, 9)),
                    int(rng.integers(1, 41)), int(rng.integers(0, 51)),
                    None if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 2.5),
                    10.0 ** rng.uniform(-3.0, 3.0), 1.0 - rng.random())


# The domain every accepted input must run on: each problem, n <= 8, T <=
# 40, seeds 0-50, eta the default or in [1e-3, 316]; for CF, G in [1e-3, 1e3]
# and tau0 in (0, m sqrt(n)]. Hypothesis's own draws crowd at the ends of
# each range, where they find edge cases (a tau0 of 5e-324 once crashed the
# first round); the seeded draws spread evenly, so large eta G is reached.
ACCEPTED_RUNS = st.one_of(
    st.builds(run_argv, st.sampled_from(sorted(harness.PROBLEMS)), st.integers(1, 8),
              st.integers(1, 40), st.integers(0, 50), st.none() | st.floats(1e-3, 316.0),
              st.floats(1e-3, 1e3), st.floats(0.0, 1.0, exclude_min=True)),
    st.integers(0, 2 ** 32 - 1).map(spread_argv))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ACCEPTED_RUNS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_accepted_run_projects(argv, kkt_checked):
    # In process: a run exits 0, or is refused as a usage error (exit 2)
    # before it prints anything. A ProjectionError would exit 1, and an
    # overflow warning fails the test. `kkt_checked` holds for every
    # example alike, so one patch serves them all.
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc == 0 or (rc == 2 and out.getvalue() == "")
