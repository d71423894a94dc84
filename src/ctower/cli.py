"""Command-line surface.

Subcommands: theta, lpoly, layer, count-points, zeta, verify
{functoriality, ordvan, sigmaunit, cnf, fitting, all}.

Polynomial syntax on flags and in config files: coefficients ascending with
the variable spelled x (or theta), e.g. "1+0x+1x^2" or "x^2+1" for
theta^2 + 1.  Over F_(p^e) with e > 1 the coefficients must lie in 0..p-1
(the prime field); over F_p they are reduced mod p.  The infinite place is
"inf".  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import re
import sys

from .ffpoly import FinitePlace, FqField, FqPoly, INFINITY, is_irreducible
from .geometry import (
    charpoly_theta_report,
    count_points_model,
    count_points_splitting,
    curve_model,
    nabla_order,
    s_divisor_data,
    zeta_numerator,
)
from .grouprings import characters, quotient_order_exponent
from .lfun import (
    functoriality_check,
    order_of_vanishing_table,
    sigma_factor_unit,
    theta as theta_op,
)
from .rayclass import TowerConfig, TrivialLayer, build_layer, default_s, layer_projection
from .tower import (
    RunOptions,
    TowerVerificationError,
    battery_chunks,
    battery_sections,
    battery_verdicts,
    drain_battery,
    run_tower,
)

_TERM_RE = re.compile(r"^(\d+)?\*?(?:(x|theta)(?:\^(\d+))?)?$")


def parse_q(s: str):
    if "^" in s:
        p, e = s.split("^")
        return FqField(int(p), int(e))
    return FqField(int(s))


def parse_poly(field: FqField, s: str) -> FqPoly:
    s = s.replace(" ", "").replace("-", "+-")
    if not s:
        raise ValueError("empty polynomial string")
    coeffs = {}
    for term in s.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        c, var, exp = m.groups()
        if c is None and var is None:
            raise ValueError(f"cannot parse term {term!r}")
        coeff = int(c) if c is not None else 1
        if field.e > 1 and coeff >= field.p:
            # only F_p has a notation; a larger integer is not reduced mod p
            raise ValueError(f"coefficient {coeff} in {term!r} is not in F_{field.p}: "
                             f"over F_{field.q} coefficients must lie in 0..{field.p - 1}")
        power = 0 if var is None else (int(exp) if exp is not None else 1)
        coeffs[power] = (coeffs.get(power, 0) + (-coeff if neg else coeff)) % field.p
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for power, val in coeffs.items():
        out[power] = val
    return FqPoly(field, out)


def parse_place(field: FqField, s: str):
    if s.strip().lower() in ("inf", "infty", "infinity", "oo"):
        return INFINITY
    g = parse_poly(field, s).monic()
    if not is_irreducible(g):
        raise ValueError(f"{s!r} is not irreducible: places need irreducible generators")
    return FinitePlace(g)


def parse_places(field: FqField, s: str):
    return {parse_place(field, part) for part in s.split(",") if part.strip()}


def build_tower_config(field, f_str, p_str, s_str, sigma_str) -> TowerConfig:
    f = parse_poly(field, f_str or "1").monic() if (f_str or "1") != "1" else FqPoly.one(field)
    p_place = parse_place(field, p_str)
    if p_place is INFINITY:
        raise ValueError("p must be a finite place")
    S = parse_places(field, s_str) if s_str else default_s(f, p_place)
    sigma = parse_places(field, sigma_str)
    return TowerConfig(field, f, p_place, frozenset(S), frozenset(sigma))


def _config_from_args(args):
    field = parse_q(args.q)
    if getattr(args, "trivial_group", False):
        if not args.S or not args.Sigma:
            raise ValueError("--trivial-group requires explicit --S and --Sigma")
        return TrivialLayer(field, parse_places(field, args.S),
                            parse_places(field, args.Sigma)), None
    if not args.p:
        raise ValueError("--p is required (or use --trivial-group)")
    cfg = build_tower_config(field, args.f, args.p, args.S, args.Sigma)
    return None, cfg


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False) or not getattr(args, "out", None):
        print(text)


def _resolved_config_blob(args, cfg):
    blob = {"q": args.q, "f": args.f or "1", "p": args.p, "S": args.S,
            "Sigma": args.Sigma, "n": getattr(args, "n", None),
            "degree": getattr(args, "degree", None),
            "seed": getattr(args, "seed", 0)}
    if not getattr(args, "trivial_group", False):
        # S may default to the ramification support: record the S in use
        blob["S_resolved"] = sorted(
            ("inf" if v is INFINITY else v.gen.serialize()) for v in cfg.S)
        blob["Sigma_resolved"] = sorted(v.gen.serialize() for v in cfg.sigma)
    return blob


def _theta_poly_human(tp):
    lines = []
    for i, c in enumerate(tp.coeffs):
        if any(c.coeffs):
            lines.append(f"  u^{i}: {c!r}")
    return lines


def cmd_theta(args):
    layer, cfg = _config_from_args(args)
    if layer is None:
        layer = build_layer(cfg, args.n)
    tr = theta_op(layer, D=args.degree)
    payload = {
        "config": _resolved_config_blob(args, cfg),
        "theta": tr.to_json(),
    }
    print(f"Theta_(S,Sigma) at layer n={layer.n}: "
          f"degree {tr.theta.degree}, bound {tr.bound}, D {tr.D}")
    for line in _theta_poly_human(tr.theta):
        print(line)
    failures = 0
    if args.check:
        for check in args.check:
            ok = _run_theta_check(check, layer, tr)
            print(f"check {check}: {'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    _emit(payload, args)
    return 1 if failures else 0


def _run_theta_check(check, layer, tr):
    if check == "functoriality":
        if layer.n < 1:
            raise ValueError("functoriality check needs a tower layer with n >= 1")
        lower = build_layer(layer.cfg, layer.n - 1)
        tr_low = theta_op(lower)
        lm = layer_projection(layer, lower)
        return functoriality_check(tr, tr_low, lm).equal
    if check == "ordvan":
        return all(mult == predicted for _, mult, predicted in order_of_vanishing_table(layer, tr))
    if check == "sigmaunit":
        return all(sigma_factor_unit(layer, v, k=6, M=6).verified for v in layer.sigma)
    raise ValueError(f"unknown check {check!r}")


def cmd_lpoly(args):
    layer, cfg = _config_from_args(args)
    if layer is None:
        layer = build_layer(cfg, args.n)
    tr = theta_op(layer, D=args.degree)
    table = []
    for chi in characters(layer.group):
        coeffs = tr.chi_theta[chi.exps]
        table.append({"chi": list(chi.exps), "order": chi.order,
                      "coeffs": [list(c) for c in coeffs]})
        print(f"chi{list(chi.exps)} (order {chi.order}): "
              f"{[list(c) for c in coeffs]}")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["chi", "order", "coeffs"])
            for row in table:
                w.writerow([";".join(map(str, row["chi"])), row["order"],
                            repr(row["coeffs"])])
    _emit({"config": _resolved_config_blob(args, cfg), "l_polynomials": table}, args)
    return 0


def cmd_layer(args):
    if args.action != "dump":
        raise ValueError("layer supports the single action 'dump'")
    _, cfg = _config_from_args(args)
    layer = build_layer(cfg, args.n)
    payload = {"config": _resolved_config_blob(args, cfg), "layer": layer.to_json()}
    print(f"layer n={args.n}: order {layer.order}, "
          f"generator orders {list(layer.group.orders)}")
    _emit(payload, args)
    return 0


def cmd_count_points(args):
    _, cfg = _config_from_args(args)
    layer = build_layer(cfg, args.n)
    rows = []
    model = None
    if not args.splitting_only:
        model = curve_model(layer)
    for i in range(1, args.max_i + 1):
        ns = count_points_splitting(layer, i)
        row = {"i": i, "splitting": ns}
        if model is not None and cfg.field.q ** i <= args.budget:
            row["model"] = count_points_model(model, i, budget=args.budget)
            row["agree"] = row["model"] == ns
        rows.append(row)
        print(f"N_{i}: " + ", ".join(f"{k}={v}" for k, v in row.items() if k != "i"))
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "splitting", "model", "agree"])
            for r in rows:
                w.writerow([r["i"], r["splitting"], r.get("model", ""),
                            r.get("agree", "")])
    _emit({"config": _resolved_config_blob(args, cfg), "counts": rows}, args)
    bad = [r for r in rows if "agree" in r and not r["agree"]]
    return 1 if bad else 0


def cmd_zeta(args):
    _, cfg = _config_from_args(args)
    layer = build_layer(cfg, args.n)
    counts = [count_points_splitting(layer, i) for i in range(1, args.max_i + 1)]
    z = zeta_numerator(counts, cfg.field.q)
    print(f"genus {z.genus}, numerator {z.numerator}, h = {z.h}")
    _emit({"config": _resolved_config_blob(args, cfg), "zeta": z.to_json()}, args)
    return 0


def _load_config_file(path):
    with open(path) as fh:
        return json.load(fh)


def _verify_config(args):
    if args.config:
        blob = _load_config_file(args.config)
        field = parse_q(blob["q"])
        cfg = build_tower_config(field, blob.get("f", "1"), blob["p"],
                                 ",".join(blob.get("S", [])) if blob.get("S") else None,
                                 ",".join(blob["Sigma"]))
        opts = RunOptions(
            precision_k=blob.get("precision", 24),
            degree=blob.get("degree"),
            point_budget=blob.get("budget", 10 ** 7),
            seed=blob.get("seed", 0),
        )
        if blob.get("sigma_alt"):
            opts.sigma_alt = parse_places(field, ",".join(blob["sigma_alt"]))
        return cfg, blob.get("N", 1), opts
    _, cfg = _config_from_args(args)
    opts = RunOptions(precision_k=args.precision, point_budget=args.budget,
                      seed=args.seed)
    if args.sigma_alt:
        opts.sigma_alt = parse_places(cfg.field, args.sigma_alt)
    return cfg, args.N, opts


class _BatteryWorker:
    """The algebra battery (seed, cases, systems=20) drained by two
    processes: one forked worker and, once it calls verdicts(), the parent.

    The chunk plan of tower.battery_chunks is written as one byte per chunk
    into a pipe before the fork, and its write end is closed, so the pipe is
    the queue: each process claims the next chunk with a one-byte os.read
    and stops at end of file.  The worker drains from the start; the parent
    drains what is left when it asks for the verdicts, then ANDs its
    per-section results with the ones the worker sends back by marshal over
    a second pipe.  A battery ValueError or ArithmeticError stops the process
    that raised it, which empties the queue so the other stops after its
    current chunk; the error of the lowest chunk is raised again in the
    parent, so the report does not depend on who ran what.  Leaving the with
    block kills and reaps a worker whose reply was not read, so no exit path
    leaves a process behind.  Needs POSIX fork, which is safe here because
    the CLI starts no threads.
    """

    def __init__(self, seed: int, cases: int):
        self.seed = seed
        self.sections = battery_sections(cases, systems=20)
        self.chunks = battery_chunks(self.sections)
        self.claimed = -1  # the last chunk this process claimed
        self.queue, queue_in = os.pipe()
        os.write(queue_in, bytes(range(len(self.chunks))))
        os.close(queue_in)
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                reply = self._drain()
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(marshal.dumps(reply))
                status = 0
            except Exception:
                import traceback

                traceback.print_exc()  # the parent reports the exit status
            finally:
                os._exit(status)  # never the parent's cleanup or buffered output
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def _claim(self):
        token = os.read(self.queue, 1)
        if not token:
            return None
        self.claimed = token[0]
        return self.claimed

    def _drain(self):
        """Drain the queue in this process.  Returns (None, per-section
        results, None), or (error class name, message, chunk) for the
        battery error that stopped it, chunk -1 before any claim."""
        try:
            return None, drain_battery(self.seed, self.sections, self.chunks, self._claim), None
        except (ValueError, ArithmeticError) as exc:
            while os.read(self.queue, 256):  # no writer is left: b"" once empty
                pass
            error = "ArithmeticError" if isinstance(exc, ArithmeticError) else "ValueError"
            return error, str(exc), self.claimed

    def verdicts(self) -> list:
        """Drain the rest of the queue, wait for the worker and return the
        battery's verdicts, or raise the battery's error."""
        mine = self._drain()
        data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"the algebra battery worker died (exit status {code})")
        theirs = marshal.loads(data)
        errors = [reply for reply in (mine, theirs) if reply[0] is not None]
        if errors:
            error, message, _ = min(errors, key=lambda reply: reply[2])
            raise (ArithmeticError if error == "ArithmeticError" else ValueError)(message)
        return battery_verdicts(self.sections, [a and b for a, b in zip(mine[1], theirs[1])])

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.pipe.close()
        os.close(self.queue)
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def cmd_verify(args):
    if args.suite == "fitting":
        with _BatteryWorker(args.seed, args.cases) as battery:
            verdicts = battery.verdicts()
        for v in verdicts:
            print(f"[{'PASS' if v['passed'] else 'FAIL'}] {v['name']}")
        _emit({"verdicts": verdicts}, args)
        return 0 if all(v["passed"] for v in verdicts) else 1

    cfg, N, opts = _verify_config(args)
    if args.suite == "all":
        # the battery does not read the tower: the worker starts on it at
        # once, and the parent joins it when the tower is done
        with _BatteryWorker(opts.seed, args.cases) as battery:
            try:
                run = run_tower(cfg, N, opts)
            except TowerVerificationError as exc:
                run = exc.run
            else:
                run.verdicts.extend(battery.verdicts())
        for line in run.summary_lines():
            print(line)
        _emit(run.to_json(), args)
        return 0 if run.all_passed else 1

    layer = build_layer(cfg, args.n)
    tr = theta_op(layer)
    if args.suite == "functoriality":
        if args.n < 1:
            print("functoriality needs n >= 1", file=sys.stderr)
            return 2
        lower = build_layer(cfg, args.n - 1)
        lm = layer_projection(layer, lower)
        rep = functoriality_check(tr, theta_op(lower), lm)
        print(f"[{'PASS' if rep.equal else 'FAIL'}] functoriality n={args.n}->{args.n - 1}")
        return 0 if rep.equal else 1
    if args.suite == "ordvan":
        ok = True
        for chi, mult, predicted in order_of_vanishing_table(layer, tr):
            status = "PASS" if mult == predicted else "FAIL"
            print(f"[{status}] chi{list(chi.exps)}: mult {mult}, predicted {predicted}")
            ok = ok and mult == predicted
        return 0 if ok else 1
    if args.suite == "sigmaunit":
        ok = True
        for v in sorted(cfg.sigma, key=lambda v: v.gen.sort_key()):
            w = sigma_factor_unit(layer, v, k=6, M=6)
            print(f"[{'PASS' if w.verified else 'FAIL'}] sigma unit at {v.gen.serialize()}")
            ok = ok and w.verified
        return 0 if ok else 1
    if args.suite == "cnf":
        counts = [count_points_splitting(layer, i) for i in range(1, args.max_i + 1)]
        z = zeta_numerator(counts, cfg.field.q)
        sdiv = s_divisor_data(layer)
        nab = nabla_order(layer, z, sdiv)
        quot = quotient_order_exponent(tr.special_value(), cfg.char, args.precision)
        ok = quot == nab.total_p_exponent
        print(f"[{'PASS' if ok else 'FAIL'}] class-number identity: "
              f"nabla p-exponent {nab.total_p_exponent}, quotient {quot} "
              f"(precision p^{args.precision})")
        report = charpoly_theta_report(layer, tr, z, sdiv)
        ok2 = report["exact_identity"] and report["unit_certified"]
        print(f"[{'PASS' if ok2 else 'FAIL'}] charpoly-vs-theta identity")
        return 0 if ok and ok2 else 1
    raise ValueError(f"unknown suite {args.suite!r}")


def _add_config_flags(sp, with_n=True):
    sp.add_argument("--q", required=True, help="field size, e.g. 3 or 2^2")
    sp.add_argument("--f", default="1", help="conductor part f (default 1)")
    sp.add_argument("--p", help="the prime p of the tower, e.g. x^2+1")
    sp.add_argument("--S", help="comma list of places (default: ramification support)")
    sp.add_argument("--Sigma", help="comma list of finite places")
    if with_n:
        sp.add_argument("--n", type=int, default=0, help="layer index")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--json", action="store_true", help="print JSON to stdout")


def build_parser():
    ap = argparse.ArgumentParser(prog="ctower",
                                 description="Exact arithmetic for Carlitz cyclotomic towers")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("theta", help="compute the equivariant L-polynomial")
    _add_config_flags(sp)
    sp.add_argument("--degree", type=int, help="enumeration degree D")
    sp.add_argument("--trivial-group", action="store_true",
                    help="degenerate layer L = k")
    sp.add_argument("--check", action="append",
                    choices=["functoriality", "ordvan", "sigmaunit"])
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("lpoly", help="per-character L-polynomials")
    _add_config_flags(sp)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--trivial-group", action="store_true")
    sp.add_argument("--csv", help="also write a flat CSV character table")
    sp.set_defaults(func=cmd_lpoly)

    sp = sub.add_parser("layer", help="layer inspection")
    sp.add_argument("action", choices=["dump"])
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_layer)

    sp = sub.add_parser("count-points", help="point counts of the layer curve")
    _add_config_flags(sp)
    sp.add_argument("--max-i", type=int, default=6)
    sp.add_argument("--budget", type=int, default=10 ** 7)
    sp.add_argument("--splitting-only", action="store_true")
    sp.add_argument("--csv", help="also write the counts as a flat CSV table")
    sp.set_defaults(func=cmd_count_points)

    sp = sub.add_parser("zeta", help="zeta numerator and class number")
    _add_config_flags(sp)
    sp.add_argument("--max-i", type=int, default=6)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("verify", help="verification suites")
    sp.add_argument("suite", choices=["functoriality", "ordvan", "sigmaunit",
                                      "cnf", "fitting", "all"])
    sp.add_argument("--config", help="JSON config file (for 'all')")
    sp.add_argument("--q")
    sp.add_argument("--f", default="1")
    sp.add_argument("--p")
    sp.add_argument("--S")
    sp.add_argument("--Sigma")
    sp.add_argument("--sigma-alt", dest="sigma_alt")
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--max-i", type=int, default=6,
                    help="count points N_1..N_i for 'cnf'; 'all' always uses i = 6")
    sp.add_argument("--precision", type=int, default=24)
    sp.add_argument("--budget", type=int, default=10 ** 7)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--out")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
