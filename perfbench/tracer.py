"""Outside-in per-layer tracer for one ``ctower`` CLI run.

    python perfbench/tracer.py SUMMARY_FILE -- CLI_ARGV...

Wraps public functions of the package (and three methods, on their class)
in place, runs ``ctower.cli.main`` in this fresh interpreter, and writes the
per-layer metrics as JSON to SUMMARY_FILE.  For each wrapped function it
records ``calls``, ``total_s`` (outermost calls only, so recursion is not
counted twice) and ``self_s`` (time not covered by wrapped callees).

Modules copy references (``from .lfun import theta`` in tower.py, ``theta
as theta_op`` in cli.py), so ``install`` rebinds every module attribute
that is the original object and then checks that no module or class still
holds an unwrapped original.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# (module, attribute) -> span name.  Attributes with a dot are methods.
TRACED = {
    ("ffpoly", "_irreducible_list"): "ffpoly.irreducible_list",
    ("geometry", "count_points_model"): "geometry.count_points_model",
    ("geometry", "count_points_splitting"): "geometry.count_points_splitting",
    ("geometry", "curve_model"): "geometry.curve_model",
    ("geometry", "nabla_order"): "geometry.nabla_order",
    ("geometry", "charpoly_theta_report"): "geometry.charpoly_theta_report",
    ("rayclass", "build_layer"): "rayclass.build_layer",
    ("rayclass", "GaloisLayer.decomposition_group"): "rayclass.decomposition_group",
    ("rayclass", "GaloisLayer.inertia_group"): "rayclass.inertia_group",
    ("abelian", "AbelianGroup.subgroup_span"): "abelian.subgroup_span",
    ("lfun", "theta"): "lfun.theta",
    ("lfun", "euler_factors"): "lfun.euler_factors",
    ("lfun", "euler_series"): "lfun.euler_series",
    ("lfun", "divisor_sum_series"): "lfun.divisor_sum_series",
    ("lfun", "per_character_euler_product"): "lfun.per_character_euler_product",
    ("lfun", "order_of_vanishing_check"): "lfun.order_of_vanishing_check",
    ("snf", "zpk_smith"): "snf.zpk_smith",
    ("snf", "zpk_kernel"): "snf.zpk_kernel",
    ("tower", "nzd_slack"): "tower.nzd_slack",
    ("tower", "algebra_suite"): "tower.algebra_suite",
    ("tower", "run_tower"): "tower.run_tower",
    ("grouprings", "fitting_ideal"): "grouprings.fitting_ideal",
    ("grouprings", "ideal_equal"): "grouprings.ideal_equal",
    ("grouprings", "is_unit"): "grouprings.is_unit",
    ("grouprings", "quotient_order_exponent"): "grouprings.quotient_order_exponent",
    ("grouprings", "chi_component"): "grouprings.chi_component",
}

# The module-level caches a fresh process starts cold: (module, attribute).
CACHES = {
    "ffpoly.irreducible_list": ("ffpoly", "_irreducible_list"),
    "grouprings.cyclotomic_polynomial": ("grouprings", "cyclotomic_polynomial"),
    "grouprings.lifted_cyclotomic_factors": ("grouprings", "_lifted_cyclotomic_factors"),
    "carlitz.rho_theta_power": ("carlitz", "_rho_theta_power"),
}

# Every per-layer metric the summary holds, with its unit.  Times are the
# seconds of one traced CLI run; counts repeat exactly from run to run.
PER_LAYER = {
    "ffpoly.irreducible_list.self_s": "s",
    "ffpoly.irreducible_list.misses": "count",
    "geometry.count_points_model.self_s": "s",
    "geometry.count_points_splitting.total_s": "s",
    "geometry.curve_model.total_s": "s",
    "geometry.nabla_order.total_s": "s",
    "geometry.charpoly_theta_report.total_s": "s",
    "rayclass.decomposition_group.calls": "count",
    "rayclass.decomposition_group.distinct": "count",
    "rayclass.decomposition_group.total_s": "s",
    "rayclass.inertia_group.self_s": "s",
    "abelian.subgroup_span.self_s": "s",
    "rayclass.build_layer.self_s": "s",
    "rayclass.build_layer.max_order": "count",
    "lfun.theta.total_s": "s",
    "lfun.theta.max_D": "count",
    "lfun.euler_factors.self_s": "s",
    "lfun.euler_series.self_s": "s",
    "lfun.divisor_sum_series.self_s": "s",
    "lfun.per_character_euler_product.self_s": "s",
    "lfun.order_of_vanishing_check.total_s": "s",
    "snf.zpk_smith.calls": "count",
    "snf.zpk_smith.self_s": "s",
    "snf.zpk_smith.max_dim": "count",
    "snf.zpk_kernel.total_s": "s",
    "tower.nzd_slack.total_s": "s",
    "grouprings.fitting_ideal.total_s": "s",
    "grouprings.ideal_equal.total_s": "s",
    "grouprings.is_unit.total_s": "s",
    "grouprings.quotient_order_exponent.total_s": "s",
    "grouprings.chi_component.total_s": "s",
    "grouprings.cyclotomic_polynomial.misses": "count",
    "grouprings.lifted_cyclotomic_factors.misses": "count",
    "carlitz.rho_theta_power.misses": "count",
    "tower.algebra_suite.total_s": "s",
    "tower.run_tower.total_s": "s",
    "tower.run_tower.self_s": "s",
    "tower.run_tower.covered_share": "share",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Aggregated spans of wrapped functions plus a few exact counters."""

    def __init__(self):
        self.spans = {}
        self._covered = []  # one child-time accumulator per open span
        self.decomposition_keys = set()
        self.smith_max_dim = 0
        self.layer_orders = {}  # n -> |G_n| of the layers built
        self.theta_D = {}  # n -> largest enumeration degree D used at layer n

    def wrap(self, name, fn, observe=None):
        span = self.spans.setdefault(name, Span())
        covered = self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span.calls += 1
            span.depth += 1
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.self_s += elapsed - covered.pop()
                span.depth -= 1
                if span.depth == 0:
                    span.total_s += elapsed
                if covered:
                    covered[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        traced.traced_original = fn
        return traced

    # -- exact counters -----------------------------------------------------

    def _observe_decomposition(self, args, result):
        layer, v = args[0], args[1]
        self.decomposition_keys.add((layer.cfg, layer.n, v))

    def _observe_smith(self, args, result):
        mat = args[0]
        self.smith_max_dim = max(self.smith_max_dim, len(mat), len(mat[0]) if mat else 0)

    def _observe_layer(self, args, result):
        self.layer_orders[result.n] = result.order

    def _observe_theta(self, args, result):
        n = getattr(result.layer, "n", 0)
        self.theta_D[n] = max(self.theta_D.get(n, 0), result.D)

    # -- binding ------------------------------------------------------------

    def install(self):
        """Wrap every TRACED function wherever the package refers to it."""
        modules = _package_modules()
        observers = {
            "rayclass.decomposition_group": self._observe_decomposition,
            "snf.zpk_smith": self._observe_smith,
            "rayclass.build_layer": self._observe_layer,
            "lfun.theta": self._observe_theta,
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for (mod_name, attr), name in TRACED.items():
            owner, leaf = _resolve_owner(modules[mod_name], attr)
            original = vars(owner)[leaf]
            wrappers[id(original)] = (original, self.wrap(name, original, observers.get(name)))
        # The defining module or class is one of these namespaces too.
        for namespace in _namespaces(modules):
            for key, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, key, hit[1])
        self.check_bound(modules)

    @staticmethod
    def check_bound(modules=None):
        """Raise if a module or class of the package still holds an original."""
        modules = modules or _package_modules()
        originals = set()
        for (mod_name, attr), name in TRACED.items():
            owner, leaf = _resolve_owner(modules[mod_name], attr)
            current = vars(owner)[leaf]
            if not hasattr(current, "traced_original"):
                raise RuntimeError(f"{name} is not wrapped")
            originals.add(id(current.traced_original))
        for namespace in _namespaces(modules):
            for key, value in vars(namespace).items():
                if id(value) in originals:
                    raise RuntimeError(f"{namespace.__name__}.{key} escapes the tracer")

    # -- results ------------------------------------------------------------

    def metrics(self, caches, overhead_per_call_s):
        """Flat {metric: value} with every key of PER_LAYER."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.total_s"] = span.total_s
            out[f"{name}.self_s"] = span.self_s
        for name, info in caches.items():
            out[f"{name}.misses"] = info.misses
        out["rayclass.decomposition_group.distinct"] = len(self.decomposition_keys)
        out["snf.zpk_smith.max_dim"] = self.smith_max_dim
        out["rayclass.build_layer.max_order"] = max(self.layer_orders.values(), default=0)
        out["lfun.theta.max_D"] = max(self.theta_D.values(), default=0)
        tower = self.spans["tower.run_tower"]
        out["tower.run_tower.covered_share"] = (
            1.0 - tower.self_s / tower.total_s if tower.total_s else 0.0)
        calls = sum(span.calls for span in self.spans.values())
        out["trace.overhead_s"] = calls * overhead_per_call_s
        return {name: out[name] for name in PER_LAYER}


def _package_modules():
    import ctower

    modules = {}
    for info in pkgutil.iter_modules(ctower.__path__):
        modules[info.name] = importlib.import_module(f"ctower.{info.name}")
    return modules


def _resolve_owner(module, attr):
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _namespaces(modules):
    """Every module of the package and every class it defines."""
    for module in modules.values():
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def overhead_per_call(calls=200_000):
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (clock() - start - plain) / calls)


def main(argv):
    sep = argv.index("--")
    summary_path, cli_argv = argv[0], argv[sep + 1:]

    from ctower import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_argv)
    modules = _package_modules()
    caches = {}
    for name, (mod, attr) in CACHES.items():
        fn = getattr(modules[mod], attr)
        caches[name] = getattr(fn, "traced_original", fn).cache_info()
    summary = {
        "metrics": tracer.metrics(caches, overhead_per_call()),
        "self_s": {name: span.self_s for name, span in tracer.spans.items()},
        "layer_orders": sorted(tracer.layer_orders.items()),
        "theta_D": sorted(tracer.theta_D.items()),
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
