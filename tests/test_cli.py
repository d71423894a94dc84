import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ctower import cli
from ctower.cli import main, parse_poly, parse_q
from ctower.ffpoly import FqField, FqPoly
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

    def test_verify_cnf(self, capsys):
        code = main(["verify", "cnf", "--q", "3", "--p", "x^2+1", "--Sigma", "x"])
        out = capsys.readouterr().out
        assert code == 0
        assert "class-number identity" in out

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
BATTERY = {v["name"] for v in algebra_suite(cases=1, systems=1)}


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
        run.verdicts.extend(algebra_suite(seed=opts.seed, cases=5, systems=20))
        assert report.read_text() == json.dumps(run.to_json(), indent=2, sort_keys=True) + "\n"
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[PASS]")]
        assert names == [v["name"] for v in run.verdicts]

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError, ZeroDivisionError])
    def test_battery_error_is_a_usage_error(self, capsys, monkeypatch, error):
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
            TowerRun(cfg=cfg, N=N, options=opts).record(
                "theta_stabilization", 0, False, "forced failure")

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
        run.verdicts.extend(algebra_suite(seed=opts.seed, cases=5, systems=20))
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

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError])
    def test_battery_error_in_the_parent_share(self, capsys, monkeypatch, error):
        self._stub_tower(monkeypatch)
        parent, drain = os.getpid(), cli.drain_battery

        def parent_fails(seed, sections, chunks, claim):
            if os.getpid() != parent:
                return drain(seed, sections, chunks, claim)
            claim()
            raise error("no such ring")

        monkeypatch.setattr(cli, "drain_battery", parent_fails)
        assert main(SMALL_ALL) == 2
        assert capsys.readouterr().err == "error: no such ring\n"

    def test_error_of_the_lowest_chunk_is_reported(self, capsys, monkeypatch):
        # every case raises; the parent starts late, so the worker takes
        # chunk 0 and raises last: its error, not the parent's, is reported
        def raising(i):
            if i == 0:
                time.sleep(0.3)
            raise ValueError(f"case {i}")

        monkeypatch.setattr(cli, "battery_sections", lambda cases, systems: [
            ("broken", 8, lambda rng, i: i, raising, {})])
        parent, drain = os.getpid(), cli.drain_battery

        def late_parent(*args):
            if os.getpid() == parent:
                time.sleep(0.1)
            return drain(*args)

        monkeypatch.setattr(cli, "drain_battery", late_parent)
        assert main(["verify", "fitting", "--cases", "5"]) == 2
        assert capsys.readouterr().err == "error: case 0\n"

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_verify_fitting_bytes(self, capsys, tmp_path, seed):
        # the report of the single-process battery; it does not record the seed
        report = tmp_path / "fitting.json"
        assert main(["verify", "fitting", "--seed", str(seed), "--out", str(report)]) == 0
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == "0dacfa94c4a6f4d7b24702942fc68186baeb1a45ec886535f298ef607725c002"
        assert capsys.readouterr().out == "".join(f"[PASS] {name}\n" for name in (
            "fitting_presentation_invariance", "fitting_direct_sum", "fitting_base_change",
            "matrix_lifting_lemma", "coherent_nzd_systems", "sharp_kills_trivial_action",
            "sharp_exactness_ses"))

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
