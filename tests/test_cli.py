import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ctower import cli, geometry, grouprings, lfun, rayclass, tower
from ctower.cli import main, parse_poly, parse_q
from ctower.ffpoly import INFINITY, FqField, FqPoly
from ctower.tower import TowerRun, algebra_suite, run_tower


F3 = FqField(3)


class TestParsing:
    def test_parse_q(self):
        assert parse_q("3").q == 3
        assert parse_q("2^2").q == 4

    def test_parse_poly_forms(self):
        assert parse_poly(F3, "1+0x+1x^2") == FqPoly(F3, (1, 0, 1))
        assert parse_poly(F3, "x^2+1") == FqPoly(F3, (1, 0, 1))
        assert parse_poly(F3, "theta^2+1") == FqPoly(F3, (1, 0, 1))
        assert parse_poly(F3, "2x") == FqPoly(F3, (0, 2))
        assert parse_poly(F3, "1") == FqPoly.one(F3)
        assert parse_poly(F3, "x^3+2x+2") == FqPoly(F3, (2, 2, 0, 1))

    def test_parse_poly_coefficients(self):
        # over a prime field integers are reduced mod p
        assert parse_poly(F3, "4x+5") == FqPoly(F3, (2, 1))
        assert parse_poly(F3, "-x") == FqPoly(F3, (0, 2))
        # over F_(p^e), e > 1, only 0..p-1 name elements; nothing is rewritten
        F4 = FqField(2, 2)
        assert parse_poly(F4, "x^2+x+1") == FqPoly(F4, (1, 1, 1))
        assert parse_poly(F4, "-x+1") == FqPoly(F4, (1, 1))
        for bad in ("2x+1", "3x^2+x", "x+3", "-2x"):
            with pytest.raises(ValueError, match="0..1"):
                parse_poly(F4, bad)


# a valid verify all config at the q=3 flagship layer 0, and a value of the
# wrong type for each key a config file may hold, with the kind it must have
CONFIG_Q3 = {"q": "3", "p": "x^2+1", "Sigma": ["x"], "N": 0}
_CONFIG_WRONG = {"q": 3, "f": 1, "p": 2, "S": [1], "Sigma": ["x", 1], "sigma_alt": 5,
                 "N": "1", "precision": "24", "budget": "100", "seed": "0", "degree": "8"}
_CONFIG_KINDS = [(key, "a string" if key in ("q", "f", "p") else
                  "a list of strings" if key in ("S", "Sigma", "sigma_alt") else
                  "an int or null" if key == "degree" else "an int")
                 for key in _CONFIG_WRONG]


class TestCommands:
    def test_theta_trivial_group_sanity(self, capsys):
        # the acceptance example: prints 1 - u
        code = main(["theta", "--q", "2", "--S", "inf,theta", "--Sigma", "theta+1",
                     "--trivial-group", "--degree", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "u^0: 1*g[]" in out
        assert "u^1: -1*g[]" in out

    def test_theta_trivial_group_checks(self, capsys):
        trivial = ["theta", "--q", "2", "--S", "inf,theta", "--Sigma", "theta+1",
                   "--trivial-group", "--degree", "12"]
        assert main(trivial + ["--check", "ordvan", "--check", "sigmaunit"]) == 0
        out = capsys.readouterr().out
        assert "check ordvan: PASS" in out and "check sigmaunit: PASS" in out
        # L = k has no layer below it, whatever --n says
        assert main(trivial + ["--n", "1", "--check", "functoriality"]) == 2
        assert "needs a tower layer with n >= 1" in capsys.readouterr().err

    def test_theta_flagship_with_checks(self, capsys):
        code = main(["theta", "--q", "3", "--p", "x^2+1", "--n", "0",
                     "--Sigma", "x", "--check", "ordvan", "--check", "sigmaunit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check ordvan: PASS" in out
        assert "check sigmaunit: PASS" in out

    def test_theta_functoriality_check(self, capsys):
        code = main(["theta", "--q", "2", "--p", "x^2+x+1", "--n", "1",
                     "--Sigma", "x", "--check", "functoriality"])
        assert code == 0
        assert "check functoriality: PASS" in capsys.readouterr().out

    def test_theta_certifies_the_window_above_D(self, capsys, monkeypatch):
        # a nonzero divisor-sum coefficient in (D, D + 2] fails ctower theta
        # as one in (bound, D] does: a StabilizationError and exit 2
        argv = ["theta", "--q", "2", "--p", "x^2+x+1", "--n", "0", "--Sigma", "x"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(lfun, "divisor_sum_series", _shift_tail(lfun.divisor_sum_series))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: nonzero coefficient at degree 6 > bound 1\n"
        assert captured.out == ""

    def test_zero_theta_prints_degree_minus_inf(self, capsys, monkeypatch):
        # Theta = 0 is the empty coefficient list: degree -inf, no u^i line
        real = cli.theta_op

        def zero_theta(layer, D=None):
            tr = real(layer, D=D)
            tr.theta = []
            return tr

        monkeypatch.setattr(cli, "theta_op", zero_theta)
        assert main(["theta", "--q", "2", "--p", "x^2+x+1", "--n", "0", "--Sigma", "x"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Theta_(S,Sigma) at layer n=0: degree -inf, bound 1, D 5\n{")
        assert json.loads(out[out.index("{"):])["theta"]["theta"]["coeffs_by_degree"] == []

    def test_lpoly(self, capsys):
        code = main(["lpoly", "--q", "3", "--p", "x^2+1", "--n", "0", "--Sigma", "x"])
        assert code == 0
        assert "order 4" in capsys.readouterr().out

    def test_layer_dump(self, capsys, tmp_path):
        out_file = tmp_path / "layer.json"
        code = main(["layer", "dump", "--q", "3", "--p", "x^2+1", "--n", "0",
                     "--Sigma", "x", "--out", str(out_file)])
        assert code == 0
        blob = json.loads(out_file.read_text())
        assert blob["layer"]["order"] == 4

    def test_count_points(self, capsys):
        code = main(["count-points", "--q", "3", "--p", "x^2+1", "--n", "0",
                     "--Sigma", "x", "--max-i", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree=True" in out

    def test_zeta(self, capsys):
        code = main(["zeta", "--q", "3", "--p", "x^2+1", "--n", "0", "--Sigma", "x"])
        out = capsys.readouterr().out
        assert code == 0
        assert "h = 1" in out

    def test_verify_cnf(self, capsys, tmp_path):
        report = tmp_path / "cnf.json"
        code = main(["verify", "cnf", "--q", "3", "--p", "x^2+1", "--Sigma", "x",
                     "--out", str(report)])
        names = ["theta_stabilization", "theta_recompute_D_plus_2", "zeta_functional_equation",
                 "class_number_fitting_identity", "charpoly_theta_identity"]
        assert code == 0
        assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == [
            ["[PASS]", name] for name in names]
        blob = json.loads(report.read_text())
        assert blob["config"] == {"q": "3^1", "f": "[1]@q=3^1", "p": "[1,0,1]@q=3^1",
                                  "S": ["[1,0,1]@q=3^1"], "Sigma": ["[0,1]@q=3^1"],
                                  "n": 0, "max_i": 6}
        assert blob["zeta"]["h"] == 1
        assert [(v["name"], v["layer"], v["passed"]) for v in blob["verdicts"]] == [
            (name, 0, True) for name in names]
        assert blob["verdicts"][3]["precision_k"] == 24

    def test_verify_cnf_certifies_the_window_above_D(self, tmp_path):
        # at a layer that verify all does not reach, verify cnf certifies
        # the divisor-sum coefficients D + 1 and D + 2 as well
        report = tmp_path / "cnf.json"
        assert main(["verify", "cnf", "--q", "2", "--p", "x^2+x+1", "--Sigma", "x",
                     "--n", "1", "--max-i", "18", "--out", str(report)]) == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        assert [(v["name"], v["layer"], v["passed"]) for v in verdicts[:2]] == [
            ("theta_stabilization", 1, True), ("theta_recompute_D_plus_2", 1, True)]
        assert verdicts[1]["D"] == verdicts[0]["D"] + 2 == 9
        assert len(verdicts) == 5 and all(v["passed"] for v in verdicts)

    def test_verify_cnf_matches_verify_all(self, tmp_path):
        # both commands read the class-number verdicts off one suite
        flags = ["--q", "3", "--p", "x^2+1", "--Sigma", "x", "--sigma-alt", "x+1"]
        cnf, full = tmp_path / "cnf.json", tmp_path / "all.json"
        assert main(["verify", "cnf", *flags, "--out", str(cnf)]) == 0
        assert main(["verify", "all", *flags, "--N", "0", "--cases", "0",
                     "--out", str(full)]) == 0
        names = {"class_number_fitting_identity", "charpoly_theta_identity"}

        def entries(path):
            return [v for v in json.loads(path.read_text())["verdicts"] if v["name"] in names]

        assert len(entries(cnf)) == 2 and entries(cnf) == entries(full)

    def test_verify_cnf_refusal_is_a_verdict(self, capsys, tmp_path):
        # outside hypothesis (a) the identity is refused, as in verify all
        report = tmp_path / "cnf.json"
        assert main(["verify", "cnf", "--q", "2", "--p", "x^2+x+1", "--S", "x^2+x+1,inf",
                     "--Sigma", "x", "--out", str(report)]) == 0
        last = json.loads(report.read_text())["verdicts"][-1]
        assert last["name"] == "class_number_fitting_identity"
        assert last["passed"] and last["refused"].startswith("nabla bookkeeping requires")

    def test_verify_fitting_small(self, capsys):
        code = main(["verify", "fitting", "--cases", "5", "--seed", "1"])
        assert code == 0

    def test_verify_all_with_config(self, capsys, tmp_path):
        cfg = {"q": "2", "f": "1", "p": "x^2+x+1", "Sigma": ["x"], "N": 1,
               "precision": 12, "seed": 0, "sigma_alt": ["x+1"]}
        cfg_file = tmp_path / "flagship_q2.json"
        cfg_file.write_text(json.dumps(cfg))
        report = tmp_path / "report.json"
        code = main(["verify", "all", "--config", str(cfg_file), "--cases", "5",
                     "--out", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        blob = json.loads(report.read_text())
        assert blob["all_passed"] is True

    def test_verify_all_infinity_in_s_refuses_nzd(self, capsys, tmp_path):
        # inf and p both in S: every character is trivial on a decomposition
        # group of S, so Theta(1) = 0 and the nzd shadow refuses
        report = tmp_path / "report.json"
        code = main(["verify", "all", "--q", "2", "--p", "x^2+x+1", "--S", "x^2+x+1,inf",
                     "--Sigma", "x", "--N", "1", "--out", str(report)])
        assert code == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        nzd = [v for v in verdicts if v["name"] == "special_value_nzd_shadow"]
        assert [v["layer"] for v in nzd] == [0, 1]
        assert all(v["passed"] and v["refused"] and "slack_c" not in v for v in nzd)
        assert all(v["passed"] for v in verdicts)

    def test_unknown_flag_exit_2(self):
        assert main(["theta", "--nonsense"]) == 2

    def test_unknown_subcommand_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_bad_poly_exit_2(self, capsys):
        code = main(["theta", "--q", "3", "--p", "x^2+2", "--n", "0", "--Sigma", "x"])
        # x^2+2 = (x+1)(x+2) over F_3: not irreducible -> usage error
        assert code == 2

    def test_coefficient_outside_prime_field_exit_2(self, capsys):
        # x+3 over F_4 used to become the place x+1
        code = main(["theta", "--q", "2^2", "--p", "x+3", "--n", "0", "--Sigma", "x"])
        assert code == 2
        assert "coefficients must lie in 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["verify", "all", "--p", "x^2+1", "--Sigma", "x"], "--q"),
        (["verify", "all", "--q", "3", "--p", "x^2+1"], "--Sigma"),
        (["theta", "--q", "3", "--p", "x^2+1"], "--Sigma"),
        (["verify", "all", "--config", "NO_SIGMA"], "lacks Sigma"),
        (["verify", "all", "--config", "MISSING"], "cannot read config file"),
        (["verify", "all", "--q", "3", "--p", "x^2+1", "--Sigma", "x", "--N", "-1"],
         "N must be >= 0, not -1"),
        (["verify", "all", "--config", "NEGATIVE_N"], "N must be >= 0, not -2"),
        (["verify", "all", "--q", "3", "--p", "x^2+1", "--Sigma", "x", "--N", "0",
          "--precision", "0"], "precision must be >= 1, not 0"),
        (["verify", "all", "--config", "NO_PRECISION"], "precision must be >= 1, not 0"),
        (["verify", "fitting", "--cases", "-3"], "--cases must be >= 0, not -3"),
        (["verify", "all", "--q", "3", "--p", "x^2+1", "--Sigma", "x", "--cases", "-3"],
         "--cases must be >= 0, not -3"),
        (["verify", "fitting", "--seed", "-1"], "--seed must be >= 0, not -1"),
        (["verify", "all", "--q", "3", "--p", "x^2+1", "--Sigma", "x", "--seed", "-1"],
         "--seed must be >= 0, not -1"),
        (["verify", "all", "--config", "NEGATIVE_SEED"], "seed must be >= 0, not -4"),
        (["verify", "ordvan", "--q", "3", "--p", "x^2+1", "--Sigma", "x"],
         "invalid choice: 'ordvan'"),
        (["verify", "functoriality", "--q", "3"], "invalid choice: 'functoriality'"),
        (["verify", "sigmaunit", "--q", "3"], "invalid choice: 'sigmaunit'"),
        (["zeta", "--q", "2", "--p", "x^2+x+1", "--n", "1", "--Sigma", "x", "--max-i", "0"],
         "needs at least one point count"),
        (["verify", "cnf", "--q", "3", "--p", "x^2+1", "--Sigma", "x", "--max-i", "0"],
         "needs at least one point count"),
        *((["verify", "all", "--config", f"WRONG_{key}"], f"key {key} must be {kind}")
          for key, kind in _CONFIG_KINDS),
    ], ids=["verify-no-q", "verify-no-Sigma", "theta-no-Sigma", "config-no-Sigma",
            "config-missing", "verify-N-negative", "config-N-negative",
            "verify-precision-0", "config-precision-0", "fitting-cases-negative",
            "all-cases-negative", "fitting-seed-negative", "all-seed-negative",
            "config-seed-negative", "verify-ordvan-removed", "verify-functoriality-removed",
            "verify-sigmaunit-removed", "zeta-no-counts", "cnf-no-counts",
            *(f"config-{key}-wrong-type" for key, _ in _CONFIG_KINDS)])
    def test_missing_input_exit_2(self, capsys, tmp_path, argv, named):
        # a missing or invalid input is a usage error that names it, not a
        # traceback; a negative --cases checks nothing and a negative seed
        # aliases other seeds' chunk streams, so each is one too
        configs = {"NO_SIGMA": {"q": "3", "p": "x^2+1", "N": 0},
                   "NEGATIVE_N": {"q": "3", "p": "x^2+1", "Sigma": ["x"], "N": -2},
                   "NO_PRECISION": {"q": "3", "p": "x^2+1", "Sigma": ["x"], "N": 0,
                                    "precision": 0},
                   "NEGATIVE_SEED": {"q": "3", "p": "x^2+1", "Sigma": ["x"], "N": 0,
                                     "seed": -4},
                   **{f"WRONG_{key}": {**CONFIG_Q3, key: value}
                      for key, value in _CONFIG_WRONG.items()}}
        paths = {"MISSING": str(tmp_path / "missing.json")}
        for name, blob in configs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(blob))
        code = main([paths.get(a, a) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        # main reports its own usage errors on one line; argparse, which
        # rejects an unknown suite, prints the usage first
        assert err.startswith("usage: " if "invalid choice" in named else "error: "), err
        assert named in err, err

    @pytest.mark.parametrize("key", ["N", "precision", "budget", "seed", "degree"])
    def test_config_bool_is_not_an_int(self, tmp_path, key):
        # JSON true is a Python bool, an int subclass: refused all the same
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**CONFIG_Q3, key: True}))
        with pytest.raises(ValueError, match=f"{path}: key {key} must be an int"):
            cli._load_config_file(str(path))

    def test_reports_reproducible(self, tmp_path):
        args = ["zeta", "--q", "3", "--p", "x^2+1", "--n", "0", "--Sigma", "x",
                "--max-i", "4"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_text() == f2.read_text()


class TestModuleEntry:
    def test_python_m_ctower_help(self):
        # python -m ctower runs the command line from src/ with no install
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "ctower", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "verify" in proc.stdout


SMALL_ALL = ["verify", "all", "--q", "2", "--p", "x^2+x+1", "--N", "1", "--Sigma", "x",
             "--sigma-alt", "x+1", "--cases", "5"]
BATTERY = {name for name, *_ in tower.battery_sections(1)}
Q3_LAYER0 = ["--q", "3", "--p", "x^2+1", "--n", "0", "--Sigma", "x"]
# a genus-3 layer over F_4: f = x, so S holds x besides p
F4_GENUS3 = ["--q", "2^2", "--f", "x", "--p", "x+1", "--n", "1", "--Sigma", "x^3+x+1"]


class TestVerifyAllWorker:
    """verify all runs the algebra battery in one forked worker beside
    run_tower, and the parent drains what is left of the chunk queue when
    the tower is done; every exit path reaps the worker."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_report_is_the_in_process_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        assert main(SMALL_ALL + ["--out", str(report)]) == 0
        cfg, N, opts = cli._verify_config(cli.build_parser().parse_args(SMALL_ALL))
        run = run_tower(cfg, N, opts)
        run.verdicts.extend(algebra_suite(seed=opts.seed, cases=5))
        assert report.read_text() == json.dumps(run.to_json(), indent=2, sort_keys=True) + "\n"
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[PASS]")]
        assert names == [v["name"] for v in run.verdicts]

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError, ZeroDivisionError])
    def test_battery_error_is_a_usage_error(self, capsys, monkeypatch, error):
        # the drain itself raises, outside every check: a usage error
        def broken(*args):
            raise error("no such ring")

        monkeypatch.setattr(cli, "drain_battery", broken)
        assert main(SMALL_ALL) == 2
        assert capsys.readouterr().err == "error: no such ring\n"

    def test_dead_worker_fails_loudly(self, monkeypatch):
        parent, drain = os.getpid(), cli.drain_battery
        monkeypatch.setattr(cli, "drain_battery", lambda *args: (
            os._exit(3) if os.getpid() != parent else drain(*args)))
        with pytest.raises(RuntimeError, match="exit status 3"):
            main(SMALL_ALL)

    def test_tower_failure_kills_the_battery(self, capsys, monkeypatch, tmp_path):
        def failing(cfg, N, opts):
            return TowerRun(cfg=cfg, N=N, options=opts).until_failure(
                lambda run: run.record("theta_stabilization", 0, False, "forced failure"))

        # a battery that would outlive the test: only a kill ends it in time
        monkeypatch.setattr(cli, "drain_battery", lambda *args: time.sleep(60))
        monkeypatch.setattr(cli, "run_tower", failing)
        report = tmp_path / "report.json"
        start = time.monotonic()
        assert main(SMALL_ALL + ["--out", str(report)]) == 1
        assert time.monotonic() - start < 30
        verdicts = json.loads(report.read_text())["verdicts"]
        assert [v["name"] for v in verdicts] == ["theta_stabilization"]
        assert not BATTERY & {v["name"] for v in verdicts}
        assert "[FAIL] theta_stabilization" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [ValueError("bad tower"), KeyboardInterrupt()])
    def test_usage_error_and_interrupt_reap_the_battery(self, capsys, monkeypatch, error):
        def interrupted(cfg, N, opts):
            raise error

        monkeypatch.setattr(cli, "drain_battery", lambda *args: time.sleep(60))
        monkeypatch.setattr(cli, "run_tower", interrupted)
        start = time.monotonic()
        if isinstance(error, ValueError):
            assert main(SMALL_ALL) == 2
            assert capsys.readouterr().err == "error: bad tower\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                main(SMALL_ALL)
        assert time.monotonic() - start < 30

    def _stub_tower(self, monkeypatch, wait=None):
        """Replace run_tower by the SMALL_ALL tower computed here, returned
        at once (or after wait()); returns the report main must write."""
        cfg, N, opts = cli._verify_config(cli.build_parser().parse_args(SMALL_ALL))
        tower_verdicts = run_tower(cfg, N, opts).verdicts

        def stub(cfg, N, opts):
            if wait is not None:
                wait()
            return TowerRun(cfg=cfg, N=N, options=opts, verdicts=list(tower_verdicts))

        monkeypatch.setattr(cli, "run_tower", stub)
        run = TowerRun(cfg=cfg, N=N, options=opts, verdicts=list(tower_verdicts))
        run.verdicts.extend(algebra_suite(seed=opts.seed, cases=5))
        return json.dumps(run.to_json(), indent=2, sort_keys=True) + "\n"

    def _spy_drain(self, monkeypatch, worker_claim=None):
        """Wrap the drain: returns the chunks the parent claims, and calls
        worker_claim(chunk) after each claim of the worker."""
        parent, drain = os.getpid(), cli.drain_battery
        claimed = []

        def spy(seed, sections, chunks, claim):
            in_worker = os.getpid() != parent

            def counted():
                c = claim()
                if in_worker and worker_claim is not None:
                    worker_claim(c)
                elif not in_worker and c is not None:
                    claimed.append(c)
                return c
            return drain(seed, sections, chunks, counted)

        monkeypatch.setattr(cli, "drain_battery", spy)
        return claimed

    def test_parent_claims_chunks_after_a_quick_tower(self, monkeypatch, tmp_path):
        expected = self._stub_tower(monkeypatch)
        # a slow worker: the parent, whose tower returns at once, takes chunks
        claimed = self._spy_drain(monkeypatch, lambda c: time.sleep(0.02))
        report = tmp_path / "report.json"
        assert main(SMALL_ALL + ["--out", str(report)]) == 0
        assert claimed and claimed == sorted(claimed)
        assert report.read_text() == expected

    def test_parent_claims_nothing_after_a_slow_tower(self, monkeypatch, tmp_path):
        empty = tmp_path / "queue-empty"

        def until_empty():
            deadline = time.monotonic() + 30
            while not empty.exists() and time.monotonic() < deadline:
                time.sleep(0.01)

        def worker_claim(c):
            if c is None:  # end of file: the worker emptied the queue
                empty.touch()

        expected = self._stub_tower(monkeypatch, until_empty)
        claimed = self._spy_drain(monkeypatch, worker_claim)
        report = tmp_path / "report.json"
        assert main(SMALL_ALL + ["--out", str(report)]) == 0
        assert empty.exists() and claimed == []
        assert report.read_text() == expected

    @staticmethod
    def _broken_battery(monkeypatch, check):
        """Replace the battery by the one section "broken" of 8 cases, whose
        case i draws i and is checked by check(i)."""
        monkeypatch.setattr(cli, "battery_sections", lambda cases: [
            ("broken", 8, lambda rng, i: i, check, {})])

    @staticmethod
    def _battery_verdict(report, capsys):
        """The verdict "broken" of the written report, which must be its
        last and its only failed one, with exit 1 printed as [FAIL]."""
        *passed, verdict = json.loads(report.read_text())["verdicts"]
        assert all(v["passed"] for v in passed)
        assert (verdict["name"], verdict["passed"]) == ("broken", False)
        assert "[FAIL] broken" in capsys.readouterr().out
        return verdict

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError])
    def test_battery_error_in_the_parent_share(self, capsys, monkeypatch, tmp_path, error):
        # the checks raise in the parent only; a slow worker leaves the
        # parent cases, and the lowest of them is the verdict's first failure
        self._stub_tower(monkeypatch)
        parent, raised = os.getpid(), []

        def check(i):
            if os.getpid() != parent:
                time.sleep(0.05)
                return True
            raised.append(i)
            raise error(f"case {i}")

        self._broken_battery(monkeypatch, check)
        report = tmp_path / "report.json"
        assert main(SMALL_ALL + ["--out", str(report)]) == 1
        verdict = self._battery_verdict(report, capsys)
        assert raised and verdict["first_failure"] == raised[0]
        assert verdict["error"] == f"{error.__name__}: case {raised[0]}"

    def test_error_of_the_lowest_chunk_is_reported(self, capsys, monkeypatch, tmp_path):
        # every case raises; the parent starts late, so the worker takes
        # chunk 0 and raises last: its error, not the parent's, is reported
        def raising(i):
            if i == 0:
                time.sleep(0.3)
            raise ValueError(f"case {i}")

        self._broken_battery(monkeypatch, raising)
        parent, drain = os.getpid(), cli.drain_battery

        def late_parent(*args):
            if os.getpid() == parent:
                time.sleep(0.1)
            return drain(*args)

        monkeypatch.setattr(cli, "drain_battery", late_parent)
        report = tmp_path / "fitting.json"
        assert main(["verify", "fitting", "--cases", "5", "--out", str(report)]) == 1
        verdict = self._battery_verdict(report, capsys)
        assert (verdict["first_failure"], verdict["error"]) == (0, "ValueError: case 0")

    @pytest.mark.parametrize("suite", ["fitting", "all"])
    def test_false_check_in_both_processes(self, capsys, monkeypatch, tmp_path, suite):
        # every case fails without an error; each process checks the first
        # case it claims (and leaves a file named by its pid and the case),
        # none after its first failure, and case 0 is the first failure
        def check(i):
            (tmp_path / f"{os.getpid()}-{i}").touch()
            time.sleep(0.2)
            return False

        self._broken_battery(monkeypatch, check)
        argv = ["verify", "fitting", "--cases", "5"]
        if suite == "all":
            self._stub_tower(monkeypatch)
            argv = SMALL_ALL
        report = tmp_path / "report.json"
        assert main(argv + ["--out", str(report)]) == 1
        verdict = self._battery_verdict(report, capsys)
        assert (verdict["first_failure"], "error" in verdict) == (0, False)
        runs = [path.name.split("-") for path in tmp_path.glob("*-*")]
        assert len({pid for pid, _ in runs}) == len(runs) == 2
        assert min(int(i) for _, i in runs) == 0

    def test_no_cases_is_the_reference_report(self, tmp_path):
        # the battery part of the report of the single-process battery
        battery = [
            {"name": "fitting_presentation_invariance", "cases": 0, "ring": "Z/3^6[G[4]]"},
            {"name": "fitting_direct_sum", "cases": 0},
            {"name": "fitting_base_change", "cases": 0},
            {"name": "matrix_lifting_lemma", "cases": 0, "precisions": [8, 4]},
            {"name": "coherent_nzd_systems", "systems": 20},
            {"name": "sharp_kills_trivial_action", "d_s_values": [2, 4, 6]},
            {"name": "sharp_exactness_ses", "systems": 20},
        ]
        argv = SMALL_ALL[:-1] + ["0"]
        report = tmp_path / "report.json"
        assert main(argv + ["--out", str(report)]) == 0
        cfg, N, opts = cli._verify_config(cli.build_parser().parse_args(argv))
        run = run_tower(cfg, N, opts)
        run.verdicts.extend({"layer": None, "passed": True,
                             "shadows": "exact algebra property", **v} for v in battery)
        assert report.read_text() == json.dumps(run.to_json(), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("seed, sha256", [
        (0, "261faa73e158457c6e9d0296740f576121a9205782e416f8db66048d213e264f"),
        (1, "f8891ee44cdf074f8632f3d18bd59776edbf834c62242c9f3ff9055ee75e0df2"),
    ], ids=["0", "1"])
    def test_verify_fitting_bytes(self, capsys, tmp_path, seed, sha256):
        # the report of the single-process battery
        report = tmp_path / "fitting.json"
        assert main(["verify", "fitting", "--seed", str(seed), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["seed"] == seed
        assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256
        assert capsys.readouterr().out == "".join(f"[PASS] {name}\n" for name in (
            "fitting_presentation_invariance", "fitting_direct_sum", "fitting_base_change",
            "matrix_lifting_lemma", "coherent_nzd_systems", "sharp_kills_trivial_action",
            "sharp_exactness_ses"))

    @pytest.mark.parametrize("argv, sha256", [
        (["--q", "3", "--p", "x^2+1", "--N", "2", "--Sigma", "x", "--sigma-alt", "x+1"],
         "5677ae6a3f2b242e05d774bcf742ea7338141ffc390d83f02f8c02805aa37493"),
        (["--q", "2", "--p", "x^2+x+1", "--N", "4", "--Sigma", "x"],
         "b58ab942d9c5e6b9709d5c6d710f26e71f65ecedba39c809c4af3eddde4e2946"),
    ], ids=["q3-N2", "q2-N4"])
    def test_flagship_report_bytes(self, capsys, tmp_path, argv, sha256):
        # the two flagship verify all reports, byte for byte
        report = tmp_path / "all.json"
        assert main(["verify", "all", *argv, "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, sha256", [
        (["--q", "3", "--p", "x^2+1", "--n", "1", "--Sigma", "x"],
         "90175e1b94625fc323f0a1b6deb15ff87d908fed283ac29627be93f9f67dfd1c"),
        (["--q", "2", "--p", "x^2+x+1", "--n", "2", "--Sigma", "x"],
         "5ca18dbd38ced3bfcfd4a078933e731fd6f459a5ba739c1d5f7c12170e2933d8"),
    ], ids=["q3-n1", "q2-n2"])
    def test_lpoly_bytes(self, capsys, argv, sha256):
        # the every-character table of ctower lpoly --json, byte for byte:
        # the per-character lines and the JSON document on stdout
        assert main(["lpoly", *argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, sha256", [
        (["--q", "3", "--p", "x^2+1", "--n", "1", "--Sigma", "x"],
         "1f05d5b7575b8bfca7f92f5dc5acf417f224f336840a250c17201c7745fb028f"),
        (["--q", "2", "--p", "x^2+x+1", "--n", "2", "--Sigma", "x"],
         "df473e093eda9bca928d033fc3388c8ef97398be4200d2281a53334610279bbe"),
        (["--q", "2", "--S", "inf,theta", "--Sigma", "theta+1", "--trivial-group",
          "--degree", "12", "--check", "ordvan", "--check", "sigmaunit"],
         "1b1dd2f77df5cbb5a6f9d9b7af6a849769a9ace5df0e7abdd0b74c59631cf8d4"),
    ], ids=["q3-n1", "q2-n2", "trivial-group-checks"])
    def test_theta_bytes(self, capsys, argv, sha256):
        # ctower theta --json, byte for byte: the human-readable coefficient
        # lines, the check lines and Theta's JSON document on stdout
        assert main(["theta", *argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_verify_cnf_bytes(self, capsys, tmp_path):
        # verify cnf at the q=3 flagship layer 0, with Sigma-independence
        report = tmp_path / "cnf.json"
        assert main(["verify", "cnf", *Q3_LAYER0, "--sigma-alt", "x+1",
                     "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == \
            "271d8ad77accf9744cc62350b37648b4018954be1fc193e82aaf235ef5ee2fc3"

    @pytest.mark.parametrize("command, argv, sha256", [
        ("count-points", Q3_LAYER0,
         "1df49d13dbb1560def592c2340200c18a98b2f2c08e9032d597dca6dfb49b756"),
        ("zeta", Q3_LAYER0,
         "30a39cdce2503d5c4bd3e8b3960c95b2f470ef1f4e9c40a3ff3b0b08575327b6"),
        ("count-points", F4_GENUS3,
         "eac177c30f5b6fd565415aa0da360cbf354d62603a4a1e20f621f24dcfa8162e"),
        ("zeta", F4_GENUS3,
         "01a824cb907661d5dcb3417f2fa42e1b6c7a7ddb8004d5f2347b7ab1314ff5e1"),
    ], ids=["count-points-q3", "zeta-q3", "count-points-f4", "zeta-f4"])
    def test_point_count_and_zeta_bytes(self, capsys, command, argv, sha256):
        # the printed lines and the JSON document on stdout, byte for byte
        assert main([command, *argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_cli_import_loads_no_process_pool_or_pickle(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, ctower.cli\n"
                "print(sorted({m.split('.')[0] for m in sys.modules} & "
                "{'multiprocessing', 'concurrent', 'pickle', 'subprocess'}))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _shift_series(real):
    def shifted(layer, D):  # off at degrees 2 and 3: the first is named
        out = real(layer, D)
        out[2], out[3] = [c + 1 for c in out[2]], [c + 1 for c in out[3]]
        return out
    return shifted


def _shift_tail(real):
    def shifted(layer, D):  # off at D - 1, the first degree past theta's D
        out = real(layer, D)
        out[D - 1] = [c + 1 for c in out[D - 1]]
        return out
    return shifted


def _shift_symbolic(real):
    def shifted(layer):
        out = real(layer)
        out[1] += 1
        return out
    return shifted


def _shift_characters(real):
    def shifted(layer, chi, D):  # off at every character but the trivial one
        out = real(layer, chi, D)
        return out if chi.is_trivial() else out + [chi.ring.one]
    return shifted


def _shift_frobenius(real):
    return lambda lm, exps: lm.target.group.identity


def _shift_fiber_table(real):
    def shifted(layer):  # one more point above each finite place of S
        model = real(layer)
        return dataclasses.replace(model, exceptional={
            v: (dw, cnt if v is INFINITY else cnt + 1)
            for v, (dw, cnt) in model.exceptional.items()})
    return shifted


def _shift_one_fiber(real):
    calls = itertools.count()

    def shifted(*args):  # one more root on the first fiber, theta0 = 0 at i = 1: p(0) = 1
        return real(*args) + (next(calls) == 0)
    return shifted


def _shift_charpoly(real):
    def shifted(*args):  # Q + u
        out = real(*args)
        out[1] += 1
        return out
    return shifted


def _shift_last_count(real):
    return lambda counts, q: real(counts[:-1] + [counts[-1] + 1], q)


def _raise_outside_mu(real):
    def raising(*args):
        raise ArithmeticError("character value outside mu_M")
    return raising


def _shift_alt_special_value(real):
    def shifted(layer, D=None, cross_check=True):
        tr = real(layer, D=D, cross_check=cross_check)
        if not cross_check:  # the Sigma' side of Sigma-independence only
            value = tr.special_value()
            value[0] += 1
            tr.special_value = lambda: value
        return tr
    return shifted


def _shift_split_count(real):
    return lambda layer, chi: real(layer, chi) + 1  # the predicted side of order_of_vanishing


def _shift_geometric_series(real):
    def shifted(layer, v):  # 1 + n + ... + n^(M-1) off by one in its first coefficient
        add = grouprings.PolyGroupRing.add  # only the series adds: x is a sub and checked by mul

        def add_one(ring, a, b):
            out = add(ring, a, b)
            out[0] += 1
            return out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grouprings.PolyGroupRing, "add", add_one)
            return real(layer, v)
    return shifted


def _shift_nabla(real):
    def shifted(*args):
        nab = real(*args)
        return dataclasses.replace(nab, total_p_exponent=nab.total_p_exponent + 1)
    return shifted


def _lower_degree_bound(real):
    return lambda layer, chi: real(layer, chi) - 1


def _zero_last_block(real):
    def shifted(group, x, p, k):  # the image side: the last Delta-block reads zero
        blocks = real(group, x, p, k)
        ring, _ = blocks[-1]
        blocks[-1] = ring, ring.zero
        return blocks
    return shifted


def _zero_nontrivial_at_one(real):
    return lambda tr, chi: real(tr, chi) if chi.is_trivial() else chi.ring.zero


class TestFailuresAreVerdicts:
    """An error raised inside a check of verify all, or an injected change
    that a check catches, is that check's failed verdict: exit 1, a written
    report that ends with it, the detail (key, prefix) that names the
    failure, and no battery."""

    @pytest.mark.parametrize("module, name, shift, verdict, layer, detail", [
        (lfun, "divisor_sum_series", _shift_series, "theta_stabilization", 0,
         ("error", "ArithmeticError: Euler product and divisor-sum series disagree at degree 2")),
        (lfun, "divisor_sum_series", _shift_tail, "theta_recompute_D_plus_2", 0,
         ("error", "StabilizationError: nonzero coefficient at degree 6 > bound 1")),
        (lfun, "trivial_character_symbolic", _shift_symbolic, "theta_stabilization", 0,
         ("error", "ArithmeticError: symbolic trivial-character component disagrees at u^1")),
        (lfun, "per_character_euler_product", _shift_characters, "theta_stabilization", 0,
         ("error", "ArithmeticError: per-character Euler product disagrees at character [1]")),
        (rayclass.LayerMap, "apply", _shift_frobenius, "functoriality", [1, 0],
         ("error", "ArithmeticError: Frobenius incompatibility at ")),
        (tower, "curve_model", _shift_fiber_table, "point_count_cross_check", 0,
         ("error", "FiberMismatchError: fiber above ")),
        (geometry, "_fiber_root_count", _shift_one_fiber, "point_count_cross_check", 0,
         ("first_mismatch", "{'i': 1, 'model': 4, 'splitting': 3}")),
        (geometry, "tate_charpoly", _shift_charpoly, "charpoly_theta_identity", 0,
         ("failed_parts", "['exact_identity', 'pinned_discrepancy_matches']")),
        (tower, "zeta_numerator", _shift_last_count, "zeta_functional_equation", 0,
         ("error", "ArithmeticError: no integral zeta numerator fits the counts")),
        (tower, "delta_blocks", _raise_outside_mu, "special_value_nzd_shadow", 0,
         ("error", "ArithmeticError: character value outside mu_M")),
        (tower, "theta", _shift_alt_special_value, "sigma_independence", 0,
         ("first_mismatch", "[0]")),
        (rayclass.Layer, "split_count", _shift_split_count, "order_of_vanishing", 0,
         ("first_mismatch", "[1]")),
        (tower, "sigma_factor_unit", _shift_geometric_series, "sigma_factor_unit", 0,
         ("place", "[0,1]@q=2^1")),
        (tower, "nabla_order", _shift_nabla, "class_number_fitting_identity", 0,
         ("nabla_p_exponent", "2")),
        # theta checks every character's degree against its bound before
        # per_character_degree_bounds runs, so that verdict never fails first
        (lfun, "per_character_degree_bound", _lower_degree_bound, "theta_stabilization", 0,
         ("error", "StabilizationError: character (0,): degree 1 exceeds its bound 0")),
        (tower, "delta_blocks", _zero_last_block, "special_value_nzd_shadow", 0,
         ("first_mismatch", "{'block': 1}")),
        (lfun.ThetaResult, "chi_at_one", _zero_nontrivial_at_one, "special_value_nzd_shadow", 0,
         ("first_mismatch", "{'chi': [1]}")),
    ], ids=["divisor-sum", "divisor-sum-tail", "symbolic-trivial", "per-character",
            "frobenius", "fiber-mismatch", "fiber-count", "charpoly", "zeta-no-fit", "delta-blocks",
            "sigma-alt-side", "split-count", "geometric-series", "nabla", "degree-bound",
            "zero-block", "zero-character"])
    def test_injected_error_is_a_failed_verdict(self, capsys, monkeypatch, tmp_path,
                                                module, name, shift, verdict, layer, detail):
        monkeypatch.setattr(module, name, shift(getattr(module, name)))
        report = tmp_path / "report.json"
        assert main(SMALL_ALL + ["--out", str(report)]) == 1
        blob = json.loads(report.read_text())
        *passed, failed = blob["verdicts"]
        assert not blob["all_passed"] and all(v["passed"] for v in passed)
        assert (failed["name"], failed["layer"], failed["passed"]) == (verdict, layer, False)
        key, prefix = detail
        assert str(failed[key]).startswith(prefix), failed
        assert not BATTERY & {v["name"] for v in blob["verdicts"]}
        assert f"[FAIL] {verdict}" in capsys.readouterr().out

    def test_f_nontrivial_zero_blocks_are_predicted(self, tmp_path):
        # with f = x, S holds x besides p, so more characters vanish at u = 1;
        # at layer 0 they fill Delta-block 0, which is zero, and at layer 1
        # they share every block with characters that do not vanish
        report = tmp_path / "report.json"
        assert main(["verify", "all", "--q", "2", "--f", "x", "--p", "x^2+x+1", "--N", "1",
                     "--Sigma", "x+1", "--cases", "5", "--out", str(report)]) == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        assert all(v["passed"] for v in verdicts)
        nzd = [v for v in verdicts if v["name"] == "special_value_nzd_shadow"]
        assert [v.get("zero_blocks") for v in nzd] == [[0], None]
