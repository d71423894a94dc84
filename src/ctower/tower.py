"""Multi-layer verification runs: build layers 0..N, compute Theta at each,
and run every suite (stabilization, functoriality, order of vanishing,
Sigma units, non-zero-divisor slack, geometry cross-checks, Fitting-ideal
quotient comparison, Sigma-independence, charpoly identity).

Infinite-level statements are never asserted; each verdict records the
finite-layer statement it certifies together with the precision or bound at
which it was certified.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .abelian import AbelianGroup
from .ffpoly import is_infinite
from .geometry import (
    ConfigurationRefused,
    charpoly_theta_report,
    count_points_model,
    count_points_splitting,
    curve_model,
    nabla_order,
    s_divisor_data,
    sigma_factor_poly,
    zeta_numerator,
)
from .grouprings import (
    GroupRingElem,
    PresentationMatrix,
    ZpkGroupRing,
    ZpkRing,
    block_exponents,
    characters,
    cyclic_submodule_presentation,
    delta_blocks,
    e_delta_presentation,
    fitting_ideal,
    ideal_equal,
    is_unit,
    module_order_exponent,
    mult_matrix,
    quotient_exponents,
    quotient_order_exponent,
    sharp_presentation,
)
from .lfun import (
    functoriality_check,
    order_of_vanishing_table,
    sigma_factor_unit,
    stabilized_theta,
    theta,
)
from .rayclass import TowerConfig, build_layer, layer_projection
from .snf import zpk_kernel

DEFAULT_PRECISION = 24
POINT_MAX_I = 6


class TowerVerificationError(AssertionError):
    """A sub-verification failed; carries the structured report so far."""

    def __init__(self, run):
        self.run = run
        failed = [v["name"] for v in run.verdicts if not v["passed"]]
        super().__init__(f"verification failed: {failed}")


@dataclass
class RunOptions:
    precision_k: int = DEFAULT_PRECISION
    degree: object = None  # explicit enumeration degree D (None: bound + 4)
    point_budget: int = 10 ** 7
    seed: int = 0
    geometry: bool = True
    sigma_alt: object = None  # alternative Sigma for the independence check


@dataclass
class TowerRun:
    cfg: TowerConfig
    N: int
    options: RunOptions
    layers: list = dc_field(default_factory=list)
    theta_results: list = dc_field(default_factory=list)
    zeta: object = None  # ZetaData of the geometry layer, when computed
    verdicts: list = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def record(self, name, layer, passed, shadows, **details):
        """Append a verdict; a failed one ends the run."""
        self.verdicts.append({
            "name": name,
            "layer": layer,
            "passed": bool(passed),
            "shadows": shadows,
            **details,
        })
        if not passed:
            raise TowerVerificationError(self)

    def to_json(self):
        return {
            "q": f"{self.cfg.field.p}^{self.cfg.field.e}",
            "f": self.cfg.f.serialize(),
            "p": self.cfg.p_place.gen.serialize(),
            "S": sorted("inf" if is_infinite(v) else v.gen.serialize() for v in self.cfg.S),
            "Sigma": sorted(v.gen.serialize() for v in self.cfg.sigma),
            "N": self.N,
            "precision_k": self.options.precision_k,
            "degree": self.options.degree,
            "point_budget": self.options.point_budget,
            "seed": self.options.seed,
            "all_passed": self.all_passed,
            "verdicts": self.verdicts,
        }

    def summary_lines(self):
        out = []
        for v in self.verdicts:
            status = "PASS" if v["passed"] else "FAIL"
            layer = f"n={v['layer']}" if v["layer"] is not None else "tower"
            out.append(f"[{status}] {v['name']:38s} {layer:8s} ({v['shadows']})")
        return out


def nzd_slack(special: GroupRingElem, p: int, k: int) -> int:
    """Smallest c with Ann(Theta(1)) contained in p^(k-c) Z/p^k[G]: the
    finite-precision non-zero-divisor slack.

    With U M V = diag(p^v_j), the annihilator is generated by the columns
    p^(k - v_j) V_j, and each column of the unimodular V has a unit entry, so
    c is the largest Smith exponent of multiplication by Theta(1), or 0 when
    Theta(1) is a unit.  The exponents are read block by block off the
    chi-components of Theta(1) (grouprings.quotient_exponents): unit blocks
    are certified by their P-augmentation and only the others are
    eliminated.  run_tower reads c and the quotient order off one list of
    blocks per layer.
    """
    return max(quotient_exponents(special, p, k), default=0)


def run_tower(cfg: TowerConfig, N: int, options: RunOptions = None) -> TowerRun:
    """Build layers 0..N and run the full verification battery."""
    opts = options or RunOptions()
    run = TowerRun(cfg=cfg, N=N, options=opts)
    p = cfg.char
    k = opts.precision_k

    layers = [build_layer(cfg, n) for n in range(N + 1)]
    run.layers = layers
    trs = []
    for layer in layers:
        tr = theta(layer, D=opts.degree, cross_check=True)
        trs.append(tr)
        run.record("theta_stabilization", layer.n, tr.stabilization_ok,
                   "polynomiality of the equivariant L-function",
                   bound=tr.bound, D=tr.D, checks=tr.checks)
        _, _, _, theta2 = stabilized_theta(layer, tr.D + 2)
        run.record("theta_recompute_D_plus_2", layer.n, tr.theta == theta2,
                   "stabilization certificate", D=tr.D + 2)
        ok_degrees = all(d <= b for d, b in tr.per_char_degrees.values())
        run.record("per_character_degree_bounds", layer.n, ok_degrees,
                   "conductor-based degree formula",
                   degrees={str(kk): v for kk, v in tr.per_char_degrees.items()})
    run.theta_results = trs

    for n in range(N):
        lm = layer_projection(layers[n + 1], layers[n])
        rep = functoriality_check(trs[n + 1], trs[n], lm)
        run.record("functoriality", (n + 1, n), rep.equal,
                   "coherent family of L-polynomials under Galois restriction",
                   first_mismatch=rep.first_mismatch_degree)

    for layer, tr in zip(layers, trs):
        table = order_of_vanishing_table(layer, tr)
        run.record("order_of_vanishing", layer.n,
                   all(mult == predicted for _, mult, predicted in table),
                   "vanishing order at u=1 vs split decomposition groups",
                   table=[{"chi": list(chi.exps), "mult": mult, "predicted": predicted}
                          for chi, mult, predicted in table])

    for layer in layers:
        for v in sorted(cfg.sigma, key=lambda v: v.gen.sort_key()):
            w = sigma_factor_unit(layer, v, k=6, M=6)
            run.record("sigma_factor_unit", layer.n, w.verified,
                       "Sigma Euler factors are units", place=v.gen.serialize(),
                       precision=(6, 6))

    # one projection of Theta(1) per Frobenius orbit of Delta-characters:
    # the component test reads the images, the slack the largest exponent of
    # the non-unit blocks and the quotient order (geometry suite) their sum
    theta_one_exps = []
    for layer, tr in zip(layers, trs):
        blocks = delta_blocks(tr.special_value(), p, k)
        exps = block_exponents(blocks)
        theta_one_exps.append(exps)
        unsplit = [chi for chi in characters(layer.group) if layer.split_count(chi) == 0]
        if not unsplit:
            # every chi(Theta) vanishes at u = 1, so Theta(1) = 0: there is
            # no chi(Theta(1)) to test and no component that can be nonzero
            run.record("special_value_nzd_shadow", layer.n, True,
                       "Theta(1) annihilator slack (refused: outside supported case)",
                       refused="every character is trivial on the decomposition group "
                               "of a place in S, so Theta(1) = 0")
            continue
        slack = max(exps, default=0)
        chars_ok = not any(chi.ring.is_zero(tr.chi_at_one(chi)) for chi in unsplit)
        # Delta-component images of Theta(1) at precision p^k
        components_ok = not any(ring.equal(img, ring.zero) for ring, img in blocks)
        run.record("special_value_nzd_shadow", layer.n, chars_ok and components_ok,
                   "Theta(1) annihilator slack at finite precision",
                   slack_c=slack, precision_k=k)

    if opts.geometry:
        _geometry_suite(run, layers[0], trs[0], sum(theta_one_exps[0]))

    return run


def _geometry_suite(run: TowerRun, layer, tr, quot):
    """quot is log_p |Z/p^k[G] / (Theta(1))| at this layer."""
    cfg = run.cfg
    opts = run.options
    q = cfg.field.q
    p = cfg.char
    k = opts.precision_k

    counts = []
    model = None
    model_err = None
    try:
        model = curve_model(layer)
    except (ArithmeticError, ValueError) as exc:  # no model: splitting only
        model_err = str(exc)
    agree = True
    for i in range(1, POINT_MAX_I + 1):
        ns = count_points_splitting(layer, i)
        if model is not None and q ** i <= opts.point_budget:
            nm = count_points_model(model, i, budget=opts.point_budget)
            agree = agree and nm == ns
        counts.append(ns)
    run.record("point_count_cross_check", layer.n, agree,
               "model counting vs class-field splitting law",
               counts=counts, model=None if model is None else "plane model",
               note=model_err)

    z = zeta_numerator(counts, q)
    run.zeta = z
    run.record("zeta_functional_equation", layer.n, True,
               "Weil numerator with functional equation and bounds",
               genus=z.genus, numerator=z.numerator, h=z.h)

    special = tr.special_value()
    sdiv = s_divisor_data(layer)
    try:
        nab = nabla_order(layer, z, sdiv)
        run.record("class_number_fitting_identity", layer.n,
                   quot == nab.total_p_exponent,
                   "finite-layer Fitting ideal of the divisor-class module",
                   nabla_p_exponent=nab.total_p_exponent,
                   quotient_p_exponent=quot, precision_k=k,
                   hypotheses=nab.hypotheses)
    except ConfigurationRefused as exc:
        run.record("class_number_fitting_identity", layer.n, True,
                   "finite-layer Fitting ideal (refused: outside supported case)",
                   refused=str(exc))
        nab = None

    if opts.sigma_alt is not None:
        alt_cfg = TowerConfig(cfg.field, cfg.f, cfg.p_place, cfg.S,
                              frozenset(opts.sigma_alt))
        alt_layer = build_layer(alt_cfg, layer.n)
        alt_tr = theta(alt_layer, cross_check=False)
        ring = ZpkGroupRing(p, k, layer.group)
        alt_special = alt_tr.special_value()
        s1 = ring.from_group_ring(special)
        s2 = ring.from_group_ring(alt_special)
        # W = Theta'(1) * Theta(1)^{-1} need not exist in the group ring
        # (Theta(1) can be a zero divisor); certify via the Sigma factor
        # ratio instead: Theta'(1) = Theta(1) * W with W a unit
        w1 = sigma_factor_poly(layer).evaluate_at_one()
        w2 = sigma_factor_poly(alt_layer).evaluate_at_one()
        w1r = ring.from_group_ring(w1)
        ok_w1, w1_inv = is_unit(w1r, ring)
        w = ring.mul(ring.from_group_ring(w2), w1_inv) if ok_w1 else None
        unit_ok, _ = is_unit(w, ring) if w is not None else (False, None)
        same = w is not None and ring.equal(s2, ring.mul(s1, w))
        q2 = quotient_order_exponent(alt_special, p, k)
        run.record("sigma_independence", layer.n,
                   bool(unit_ok and same and quot == q2),
                   "Sigma-smoothing changes Theta(1) by a unit",
                   quotient_exponents=(quot, q2), precision_k=k)

    if nab is not None:
        report = charpoly_theta_report(layer, tr, z, sdiv, k=12, M=12)
        run.record("charpoly_theta_identity", layer.n,
                   report["exact_identity"] and report["unit_certified"] and
                   report["pinned_discrepancy_matches"],
                   "Frobenius characteristic polynomial vs Theta",
                   precision=(12, 12))


# ---------------------------------------------------------------------------
# toy projective systems and the coherent non-zero-divisor lemma
# ---------------------------------------------------------------------------


COHERENT_ENUM_BUDGET = 300_000


@dataclass
class ToyProjectiveSystem:
    """A finite chain R_0 <- R_1 <- ... <- R_T of finite rings with ring
    surjections, carrying a coherent element sequence alpha."""

    rings: list          # ring objects (ZpkRing / ZpkGroupRing)
    transitions: list    # transitions[m]: R_{m+1} -> R_m
    alpha: list          # alpha[m] in rings[m]

    def __post_init__(self):
        if len(self.rings) != len(self.alpha) or len(self.transitions) != len(self.rings) - 1:
            raise ValueError("system lengths are inconsistent")
        for m, t in enumerate(self.transitions):
            img = t(self.alpha[m + 1])
            if not self.rings[m].equal(img, self.alpha[m]):
                raise ValueError(f"alpha is not coherent at level {m}")


@dataclass
class CoherentNzdReport:
    precondition_ok: bool
    failing_level: object
    conclusion_ok: bool
    extra_elements: int  # elements of the limit ideal not in alpha_T R_T

    @property
    def passed(self):
        return self.precondition_ok and self.conclusion_ok


def _additive_span(gens, pk: int) -> set:
    """The Z/p^k-span of the vectors gens, as a set of tuples.  Each
    generator g adds the cosets span + c g for c = 1, 2, ... until c g
    falls back into the span built so far."""
    span = {tuple([0] * len(gens[0]))}
    for g in gens:
        grown = set(span)
        step = tuple(g)
        while step not in span:
            grown.update(tuple((a + b) % pk for a, b in zip(x, step)) for x in span)
            step = tuple((a + b) % pk for a, b in zip(step, g))
        span = grown
    return span


def coherent_nzd_check(sys: ToyProjectiveSystem,
                       budget: int = COHERENT_ENUM_BUDGET) -> CoherentNzdReport:
    """Finite shadow of the coherent-nzd lemma.

    Precondition: the annihilator of alpha_m dies in the next ring down
    (Ann(alpha_m) maps to 0 under R_m -> R_{m-1}); a genuine zero divisor at
    some level is flagged.  Conclusion: an element of the top ring whose
    projections all lie in the ideals (alpha_m R_m) must already lie in
    alpha_T R_T; verified by exhaustive enumeration.
    """
    top = sys.rings[-1]
    if top.pk ** top.basis_size > budget:
        raise ValueError("top ring exceeds the enumeration budget")

    precondition_ok = True
    failing = None
    for m in range(len(sys.rings) - 1, 0, -1):
        ring = sys.rings[m]
        kern = zpk_kernel(mult_matrix(ring, [[sys.alpha[m]]]), ring.p, ring.k)
        lower = sys.rings[m - 1]
        for vec in kern:
            elem = ring.from_vec(vec)
            if not ring.equal(ring.mul(elem, sys.alpha[m]), ring.zero):
                continue
            img = sys.transitions[m - 1](elem)
            if not lower.equal(img, lower.zero):
                precondition_ok = False
                failing = m
                break
        if not precondition_ok:
            break
    # also flag a zero divisor at the bottom level of a constant chain:
    # annihilators there have nowhere to die only if the chain is constant
    # in precision; covered by the loop above for m >= 1.

    # conclusion by enumeration of the top ring; alpha_m R_m is the
    # Z/p^k-span of the products b_i alpha_m with the basis of R_m
    ideals = [_additive_span(ring.basis_products(alpha), ring.pk)
              for ring, alpha in zip(sys.rings, sys.alpha)]
    top_ideal = ideals[-1]
    extra = 0
    for vec in itertools.product(range(top.pk), repeat=top.basis_size):
        in_all = True
        img = top.from_vec(list(vec))
        for m in range(len(sys.rings) - 2, -1, -1):
            img = sys.transitions[m](img)
            if tuple(sys.rings[m].to_vec(img)) not in ideals[m]:
                in_all = False
                break
        if in_all and vec not in top_ideal:
            extra += 1
    return CoherentNzdReport(precondition_ok=precondition_ok, failing_level=failing,
                             conclusion_ok=extra == 0, extra_elements=extra)


def zpk_chain_system(p: int, ks, alpha_int: int, group: AbelianGroup = None,
                     alpha_elem=None) -> ToyProjectiveSystem:
    """Chain Z/p^{k_0} <- ... <- Z/p^{k_T} (or group rings over them) with a
    constant coherent element."""
    rings = []
    for kk in ks:
        rings.append(ZpkRing(p, kk) if group is None else ZpkGroupRing(p, kk, group))
    transitions = [(lambda x, pk=lo.pk: x % pk) if group is None else lo.from_vec
                   for lo in rings[:-1]]
    if group is None:
        alpha = [alpha_int % r.pk for r in rings]
    else:
        alpha = [r.from_mapping(alpha_elem) for r in rings]
    return ToyProjectiveSystem(rings=rings, transitions=transitions, alpha=alpha)


# ---------------------------------------------------------------------------
# randomized algebra property battery (seeded, exact)
# ---------------------------------------------------------------------------
#
# The battery is a list of sections (name, n, draw, check, details): case i
# of a section draws its inputs with draw(rng, i) from the one seeded stream
# shared by all sections, in section and case order, and check(inputs) is a
# pure function of them.  The checks call fitting_ideal, ideal_equal, is_unit
# and module_order_exponent through this module's globals, so whatever
# rebinds those names here sees every call.

MAX_CHUNKS = 255  # one byte per chunk token


def _rand_vecs(rng, ring, count):
    """Coefficient lists of count random elements of ring, in draw order."""
    pk = ring.pk
    randrange = rng.randrange
    return [[randrange(pk) for _ in ring.elems] for _ in range(count)]


def _presentation_invariance(cases):
    """Fitt is unchanged by invertible column operations."""
    ring = ZpkGroupRing(3, 6, AbelianGroup((4,)))

    def draw(rng, i):
        vecs = _rand_vecs(rng, ring, 9)
        perm = rng.sample(range(3), 3)
        c_from, c_to = rng.sample(range(3), 2)
        g = rng.randrange(4)
        return vecs, perm, c_from, c_to, g, 1 + 3 * rng.randrange(9)

    def check(inputs):
        vecs, perm, c_from, c_to, g, unit = inputs
        rows = [[ring.from_vec(v) for v in vecs[r:r + 3]] for r in (0, 3, 6)]
        mult = ring.from_mapping({(g,): unit})
        rows2 = []
        for row in rows:
            r2 = list(row)
            r2[c_to] = ring.add(r2[c_to], ring.mul(mult, r2[c_from]))
            rows2.append([r2[perm[j]] for j in range(3)])
        f1 = fitting_ideal(PresentationMatrix(ring, rows))
        f2 = fitting_ideal(PresentationMatrix(ring, rows2))
        return ideal_equal(f1.generators, f2.generators, ring)

    return ("fitting_presentation_invariance", cases, draw, check,
            {"cases": cases, "ring": ring.describe()})


def _direct_sum(cases):
    """Fitt(M + N) = Fitt(M) Fitt(N)."""
    ring = ZpkGroupRing(3, 6, AbelianGroup((4,)))

    def draw(rng, i):
        return _rand_vecs(rng, ring, 2)

    def check(inputs):
        a, b = (ring.from_vec(v) for v in inputs)
        f_sum = fitting_ideal(PresentationMatrix(ring, [[a, ring.zero], [ring.zero, b]]))
        return ideal_equal(f_sum.generators, [ring.mul(a, b)], ring)

    return "fitting_direct_sum", cases, draw, check, {"cases": cases}


def _base_change(cases):
    """Fitt commutes with base change: the group quotient C4 -> C2 on even
    cases, and gamma -> 1 from C4 x C3 to C4 on odd ones."""
    ring = ZpkGroupRing(3, 6, AbelianGroup((4,)))
    ring_s = ZpkGroupRing(3, 6, AbelianGroup((2,)))
    ring_b = ZpkGroupRing(3, 6, AbelianGroup((4, 3)))

    def push_c4_c2(x):
        out = [0, 0]
        for (g,), v in zip(ring.elems, x):
            out[g % 2] += v
        return ring_s.from_vec(out)

    def kill_gamma(x):
        out = [0] * 4
        for (g, _), v in zip(ring_b.elems, x):
            out[g] += v
        return ring.from_vec(out)

    def draw(rng, i):
        return i % 2, _rand_vecs(rng, ring if i % 2 == 0 else ring_b, 4)

    def check(inputs):
        odd, vecs = inputs
        top, bottom, push = (ring_b, ring, kill_gamma) if odd else (ring, ring_s, push_c4_c2)
        rows = [[top.from_vec(v) for v in vecs[r:r + 2]] for r in (0, 2)]
        fi = fitting_ideal(PresentationMatrix(top, rows))
        fi_down = fitting_ideal(PresentationMatrix(bottom, [[push(e) for e in row]
                                                            for row in rows]))
        return ideal_equal([push(g) for g in fi.generators], fi_down.generators, bottom)

    return "fitting_base_change", cases, draw, check, {"cases": cases}


def _lifting_lemma(cases):
    """A 2 x 2 matrix over Z/3^8[C4] is invertible iff its image over
    Z/3^4[C4] is."""
    hi = ZpkGroupRing(3, 8, AbelianGroup((4,)))
    lo = ZpkGroupRing(3, 4, hi.group)

    def draw(rng, i):
        return _rand_vecs(rng, hi, 4)

    def check(inputs):
        a, b, c, d = (hi.from_vec(v) for v in inputs)
        det_hi = hi.sub(hi.mul(a, d), hi.mul(b, c))
        det_lo = lo.sub(lo.mul(lo.from_vec(a), lo.from_vec(d)),
                        lo.mul(lo.from_vec(b), lo.from_vec(c)))
        return is_unit(det_hi, hi)[0] == is_unit(det_lo, lo)[0]

    return "matrix_lifting_lemma", cases, draw, check, {"cases": cases, "precisions": (8, 4)}


def _coherent_nzd(systems):
    """The coherent-nzd lemma on toy projective systems: the chains must
    pass, the flagged ones must fail the precondition.  Draws nothing."""
    params = []
    for p_ in (2, 3, 5):
        params.append(("chain", p_, [3, 4, 5], p_, True))
        params.append(("chain", p_, [2, 3, 4, 5], p_ * (1 + p_), True))
        params.append(("chain", p_, [3, 4, 5], 1, True))
        params.append(("chain", p_, [2, 4, 6], p_ ** 2, True))
        params.append(("flag", p_, [3, 3, 3], p_, False))
    params.append(("group", 3, [2, 3, 4], {(0,): 3}, True))
    params.append(("group", 3, [2, 3], {(0,): 3, (1,): 9}, True))
    params.append(("group", 5, [2, 3], {(0,): 5}, True))
    params.append(("group", 3, [2, 3, 4], {(0,): 1, (1,): 3}, True))
    params.append(("flag-group", 3, [2, 2], {(0,): 3}, False))
    params = params[:max(systems, 1)]
    grp = AbelianGroup((2,))

    def draw(rng, i):
        return params[i]

    def check(inputs):
        kind, p_, ks, alpha, expect_ok = inputs
        if kind.endswith("group"):
            sys_ = zpk_chain_system(p_, ks, None, group=grp, alpha_elem=alpha)
        else:
            sys_ = zpk_chain_system(p_, ks, alpha)
        rep = coherent_nzd_check(sys_)
        return rep.passed if expect_ok else not rep.precondition_ok

    return "coherent_nzd_systems", len(params), draw, check, {"systems": len(params)}


def _sharp_kills_trivial_action():
    """(Z_p/d_S)^sharp = 0 for d_S in (2, 4, 6).  Draws nothing."""
    grp3 = AbelianGroup((3,))
    ring = ZpkGroupRing(2, 6, grp3)
    d_s_values = (2, 4, 6)

    def draw(rng, i):
        return d_s_values[i]

    def check(d_s):
        rows = [[ring.scale_int(d_s, ring.one)]]
        for g in grp3.elements():
            if g != grp3.identity:
                rows.append([ring.sub(ring.from_mapping({g: 1}), ring.one)])
        sharp = sharp_presentation(PresentationMatrix(ring, rows), (0,))
        return module_order_exponent(sharp) == 0

    return ("sharp_kills_trivial_action", len(d_s_values), draw, check,
            {"d_s_values": d_s_values})


def _sharp_exactness(systems):
    """The sharp functor and the module order are exact on random short
    exact sequences A -> B -> C = B / (extra)."""
    ring = ZpkGroupRing(3, 4, AbelianGroup((2, 3)))

    def draw(rng, i):
        return _rand_vecs(rng, ring, 6)

    def check(inputs):
        b11, b12, b21, b22, x1, x2 = (ring.from_vec(v) for v in inputs)
        rows_b = [[b11, b12], [b21, b22]]
        extra = [x1, x2]
        pm_b = PresentationMatrix(ring, rows_b)
        pm_c = PresentationMatrix(ring, rows_b + [extra])
        pm_a = cyclic_submodule_presentation(pm_b, extra)
        ob, oc, oa = (module_order_exponent(x) for x in (pm_b, pm_c, pm_a))
        sb = module_order_exponent(sharp_presentation(pm_b, (0,)))
        sc = module_order_exponent(sharp_presentation(pm_c, (0,)))
        sa = module_order_exponent(sharp_presentation(pm_a, (0,)))
        eb = module_order_exponent(e_delta_presentation(pm_b, (0,)))
        return oa == ob - oc and sa == sb - sc and ob == sb + eb

    return "sharp_exactness_ses", systems, draw, check, {"systems": systems}


def battery_sections(cases: int = 200, systems: int = 20) -> list:
    """The seven sections of the Fitting-ideal / lifting / coherence / sharp
    property battery, in draw order."""
    return [_presentation_invariance(cases), _direct_sum(cases), _base_change(cases),
            _lifting_lemma(cases), _coherent_nzd(systems), _sharp_kills_trivial_action(),
            _sharp_exactness(systems)]


def battery_chunks(sections) -> list:
    """The fixed plan of chunks (section index, start, stop): each section's
    cases cut into at most MAX_CHUNKS // len(sections) ranges of near-equal
    size, in section and case order."""
    per_section = MAX_CHUNKS // len(sections)
    chunks = []
    for s, (_, n, _, _, _) in enumerate(sections):
        parts = min(n, per_section)
        chunks.extend((s, n * j // parts, n * (j + 1) // parts) for j in range(parts))
    return chunks


def drain_battery(seed: int, sections, chunks, claim) -> list:
    """Run every chunk that claim() hands out until it returns None, and
    return the per-section AND of the checks run here.

    Claims must increase.  The seeded stream moves forward only: the draws
    of the chunks between two claims (the ones another process took) are
    replayed and dropped.  A section's checks stop at its first failure.
    """
    rng = random.Random(seed)
    oks = [True] * len(sections)
    done = 0  # chunks whose draws the stream has passed
    while (c := claim()) is not None:
        if c < done:
            raise RuntimeError(f"chunk {c} claimed after chunk {done - 1}")
        for s, start, stop in chunks[done:c]:
            draw = sections[s][2]
            for i in range(start, stop):
                draw(rng, i)
        s, start, stop = chunks[c]
        _, _, draw, check, _ = sections[s]
        for i in range(start, stop):
            inputs = draw(rng, i)
            if oks[s] and not check(inputs):
                oks[s] = False
        done = c + 1
    return oks


def battery_verdicts(sections, oks) -> list:
    """One verdict per section, shaped like TowerRun verdicts."""
    return [{"name": name, "layer": None, "passed": bool(ok),
             "shadows": "exact algebra property", **details}
            for (name, _, _, _, details), ok in zip(sections, oks)]


def algebra_suite(seed: int = 0, cases: int = 200, systems: int = 20) -> list:
    """The Fitting-ideal / lifting / coherence / sharp property battery in
    this process: the drain of every chunk in order.

    Every check is exact; randomness is seeded for reproducibility.  Returns
    a verdict list shaped like TowerRun verdicts.
    """
    sections = battery_sections(cases, systems)
    chunks = battery_chunks(sections)
    order = iter(range(len(chunks)))
    return battery_verdicts(sections, drain_battery(seed, sections, chunks,
                                                    lambda: next(order, None)))
