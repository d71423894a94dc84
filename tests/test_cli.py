import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctower.cli import main, parse_poly, parse_q
from ctower.ffpoly import FqField, FqPoly


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
