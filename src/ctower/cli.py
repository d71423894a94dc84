"""Command-line surface.

Subcommands: theta (with --check functoriality, ordvan, sigmaunit), lpoly,
layer, count-points, zeta, verify {cnf, fitting, all}.

Polynomial syntax on flags and in config files: coefficients ascending with
the variable spelled x (or theta), e.g. "1+0x+1x^2" or "x^2+1" for
theta^2 + 1.  Over F_(p^e) with e > 1 the coefficients must lie in 0..p-1
(the prime field); over F_p they are reduced mod p.  The infinite place is
"inf".  Exit codes: 0 success, 1 verification failure, 2 usage error.  In
verify all and verify cnf an ArithmeticError raised inside a check is that
check's failed verdict (tower.TowerRun.check): exit 1 and a report that ends
with it.  In the algebra battery of verify fitting and verify all, a check
that returns False or raises an ArithmeticError or a ValueError fails its
section's verdict, which names the lowest failing case (first_failure) and
the error: exit 1 and a written report.  Errors outside a check stay usage
errors.
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
    DEFAULT_POINT_BUDGET,
    count_points_model,
    count_points_splitting,
    curve_model,
    zeta_numerator,
)
from .grouprings import characters, group_index
from .lfun import (
    functoriality_check,
    order_of_vanishing_table,
    sigma_factor_unit,
    theta as theta_op,
)
from .rayclass import TowerConfig, TrivialLayer, build_layer, default_s, layer_projection
from .tower import (
    DEFAULT_PRECISION,
    POINT_MAX_I,
    RunOptions,
    TowerRun,
    battery_chunks,
    battery_sections,
    battery_verdicts,
    cnf_suite,
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
    if args.q is None:
        raise ValueError("--q is required (or --config)")
    field = parse_q(args.q)
    if getattr(args, "trivial_group", False):
        if not args.S or not args.Sigma:
            raise ValueError("--trivial-group requires explicit --S and --Sigma")
        return TrivialLayer(field, parse_places(field, args.S),
                            parse_places(field, args.Sigma)), None
    if not args.p:
        raise ValueError("--p is required (or use --trivial-group)")
    if args.Sigma is None:
        raise ValueError("--Sigma is required")
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


def _theta_poly_human(group, theta):
    """One line "  u^i: c*g[e] + ..." per nonzero coefficient of Theta, with
    the nonzero coefficients c of its group elements of exponents e."""
    elems, _ = group_index(group)
    return [f"  u^{i}: " + " + ".join(f"{v}*g{list(g)}" for g, v in zip(elems, c) if v)
            for i, c in enumerate(theta) if any(c)]


def cmd_theta(args):
    layer, cfg = _config_from_args(args)
    if layer is None:
        layer = build_layer(cfg, args.n)
    tr = theta_op(layer, D=args.degree)
    tr.certify_tail()
    payload = {
        "config": _resolved_config_blob(args, cfg),
        "theta": tr.to_json(),
    }
    degree = len(tr.theta) - 1 if tr.theta else float("-inf")
    print(f"Theta_(S,Sigma) at layer n={layer.n}: "
          f"degree {degree}, bound {tr.bound}, D {tr.D}")
    for line in _theta_poly_human(layer.group, tr.theta):
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
        return all(sigma_factor_unit(layer, v) for v in layer.sigma)
    raise ValueError(f"unknown check {check!r}")


def cmd_lpoly(args):
    layer, cfg = _config_from_args(args)
    if layer is None:
        layer = build_layer(cfg, args.n)
    tr = theta_op(layer, D=args.degree)
    table = []
    for chi in characters(layer.group):
        coeffs = tr.chi_poly(chi)
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


def _check_max_i(args):
    if args.max_i < 1:  # the zeta numerator needs at least N_1
        raise ValueError(f"--max-i must be >= 1, not {args.max_i}")


def cmd_zeta(args):
    _check_max_i(args)
    _, cfg = _config_from_args(args)
    layer = build_layer(cfg, args.n)
    counts = [count_points_splitting(layer, i) for i in range(1, args.max_i + 1)]
    z = zeta_numerator(counts, cfg.field.q)
    print(f"genus {z.genus}, numerator {z.numerator}, h = {z.h}")
    _emit({"config": _resolved_config_blob(args, cfg), "zeta": z.to_json()}, args)
    return 0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# key -> (the kind its value must have, the test of that kind)
_CONFIG_KINDS = {
    **dict.fromkeys(("q", "f", "p"), ("a string", lambda v: isinstance(v, str))),
    **dict.fromkeys(("S", "Sigma", "sigma_alt"), (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))),
    **dict.fromkeys(("N", "precision", "budget", "seed"), ("an int", _is_int)),
    "degree": ("an int or null", lambda v: v is None or _is_int(v)),
}


def _load_config_file(path):
    """The config file's JSON object; a ValueError names what is wrong with
    it (unreadable, without one of the keys q, p and Sigma, or a key whose
    value is not of its kind in _CONFIG_KINDS)."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    if not isinstance(blob, dict):
        raise ValueError(f"config file {path} is not a JSON object")
    missing = [key for key in ("q", "p", "Sigma") if key not in blob]
    if missing:
        raise ValueError(f"config file {path} lacks {', '.join(missing)}")
    for key, (kind, fits) in _CONFIG_KINDS.items():
        if key in blob and not fits(blob[key]):
            raise ValueError(f"config file {path}: key {key} must be {kind}, "
                             f"not {json.dumps(blob[key])}")
    return blob


# the defaults of verify's tower flags and config keys
_VERIFY_DEFAULTS = {"q": None, "f": "1", "p": None, "S": None, "Sigma": None,
                    "sigma_alt": None, "N": 1, "precision": DEFAULT_PRECISION,
                    "budget": DEFAULT_POINT_BUDGET, "seed": 0, "degree": None}


def _verify_config(args):
    """(cfg, N, opts) from the flags of args over _VERIFY_DEFAULTS, with the
    keys of the --config file laid over them, lists joined with commas; a
    ValueError names a depth N < 0, a precision < 1, a seed < 0 or a
    sigma_alt that TowerConfig refuses as a Sigma (one that meets S or holds
    inf), before any layer is built."""
    values = {**_VERIFY_DEFAULTS, **vars(args)}
    if args.config:
        blob = _load_config_file(args.config)
        values.update((key, ",".join(v) if isinstance(v, list) else v)
                      for key, v in blob.items() if key in _CONFIG_KINDS)
    args = argparse.Namespace(**values)
    for name, value, least in (("the tower depth N", args.N, 0),
                               ("the precision", args.precision, 1),
                               ("the seed", args.seed, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, not {value}")
    _, cfg = _config_from_args(args)
    sigma_alt = None
    if args.sigma_alt:
        sigma_alt = parse_places(cfg.field, args.sigma_alt)
        TowerConfig(cfg.field, cfg.f, cfg.p_place, cfg.S, frozenset(sigma_alt))
    return cfg, args.N, RunOptions(precision_k=args.precision, degree=args.degree,
                                   point_budget=args.budget, seed=args.seed,
                                   sigma_alt=sigma_alt)


class _BatteryWorker:
    """The algebra battery (seed, cases) drained by two processes: one
    forked worker and, once it calls verdicts(), the parent.

    The chunk plan of tower.battery_chunks is written as one byte per chunk
    into a pipe before the fork, and its write end is closed, so the pipe is
    the queue: each process claims the next chunk with a one-byte os.read
    and stops at end of file.  Each chunk draws from its own seeded stream,
    so neither process draws for the other.  The worker drains from the
    start; the parent drains what is left when it asks for the verdicts, and
    tower.battery_verdicts merges its per-section first failures with the
    ones the worker sends back by marshal over a second pipe: a failing
    case, a check that returns False or raises, is a failed verdict, and the
    lowest one is reported whichever process ran it.  A worker that dies
    raises RuntimeError in the parent.  Leaving the with block kills and
    reaps a worker whose reply was not read, so no exit path leaves a
    process behind.  Needs POSIX fork, which is safe here because the CLI
    starts no threads.
    """

    def __init__(self, seed: int, cases: int):
        self.seed = seed
        self.sections = battery_sections(cases)
        self.chunks = battery_chunks(self.sections)
        self.queue, queue_in = os.pipe()
        os.write(queue_in, bytes(range(len(self.chunks))))
        os.close(queue_in)
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                reply = drain_battery(seed, self.sections, self.chunks, self._claim)
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
        return token[0] if token else None

    def verdicts(self) -> list:
        """Drain the rest of the queue, wait for the worker and return the
        battery's verdicts."""
        mine = drain_battery(self.seed, self.sections, self.chunks, self._claim)
        data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"the algebra battery worker died (exit status {code})")
        return battery_verdicts(self.sections, mine, marshal.loads(data))

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
    if args.cases < 0:
        raise ValueError(f"--cases must be >= 0, not {args.cases}")
    if args.seed < 0:  # random.Random(n) seeds by |n|: chunk streams would alias
        raise ValueError(f"--seed must be >= 0, not {args.seed}")
    if args.suite == "fitting":
        with _BatteryWorker(args.seed, args.cases) as battery:
            verdicts = battery.verdicts()
        for v in verdicts:
            print(f"[{'PASS' if v['passed'] else 'FAIL'}] {v['name']}")
        _emit({"seed": args.seed, "verdicts": verdicts}, args)
        return 0 if all(v["passed"] for v in verdicts) else 1

    cfg, N, opts = _verify_config(args)
    if args.suite == "cnf":
        _check_max_i(args)
        run = TowerRun(cfg=cfg, N=args.n, options=opts).until_failure(
            cnf_suite, build_layer(cfg, args.n), args.max_i)
        report = {"config": {**cfg.to_json(), "n": args.n, "max_i": args.max_i},
                  "zeta": run.zeta and run.zeta.to_json(), "verdicts": run.verdicts}
    else:
        # the battery does not read the tower: the worker starts on it at
        # once, and the parent joins it when the tower has passed
        with _BatteryWorker(opts.seed, args.cases) as battery:
            run = run_tower(cfg, N, opts)
            if run.all_passed:
                run.verdicts.extend(battery.verdicts())
        report = run.to_json()
    for line in run.summary_lines():
        print(line)
    _emit(report, args)
    return 0 if run.all_passed else 1


def _add_config_flags(sp):
    sp.add_argument("--q", required=True, help="field size, e.g. 3 or 2^2")
    sp.add_argument("--f", default="1", help="conductor part f (default 1)")
    sp.add_argument("--p", help="the prime p of the tower, e.g. x^2+1")
    sp.add_argument("--S", help="comma list of places (default: ramification support)")
    sp.add_argument("--Sigma", help="comma list of finite places")
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
    sp.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    sp.add_argument("--splitting-only", action="store_true")
    sp.add_argument("--csv", help="also write the counts as a flat CSV table")
    sp.set_defaults(func=cmd_count_points)

    sp = sub.add_parser("zeta", help="zeta numerator and class number")
    _add_config_flags(sp)
    sp.add_argument("--max-i", type=int, default=6)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("verify", help="verification suites")
    sp.add_argument("suite", choices=["cnf", "fitting", "all"])
    sp.add_argument("--config", help="JSON config file (for 'cnf' and 'all')")
    sp.add_argument("--q")
    sp.add_argument("--f")
    sp.add_argument("--p")
    sp.add_argument("--S")
    sp.add_argument("--Sigma")
    sp.add_argument("--sigma-alt", dest="sigma_alt")
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--N", type=int)
    sp.add_argument("--max-i", type=int, default=POINT_MAX_I,
                    help=f"count points N_1..N_i for 'cnf'; 'all' always uses i = {POINT_MAX_I}")
    sp.add_argument("--precision", type=int)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--out")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify, **_VERIFY_DEFAULTS)

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
