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
# randomized algebra property suites (seeded, exact)
# ---------------------------------------------------------------------------


def algebra_suite(seed: int = 0, cases: int = 200, systems: int = 20) -> list:
    """The Fitting-ideal / lifting / coherence / sharp property battery.

    Every check is exact; randomness is seeded for reproducibility.  Returns
    a verdict list shaped like TowerRun verdicts.
    """
    rng = random.Random(seed)
    verdicts = []

    def record(name, passed, **details):
        verdicts.append({"name": name, "layer": None, "passed": bool(passed),
                         "shadows": "exact algebra property", **details})

    c4 = AbelianGroup((4,))
    ring = ZpkGroupRing(3, 6, c4)

    def rand_elem(r):
        return r.from_vec([rng.randrange(r.pk) for _ in r.elems])

    # 1. presentation invariance under invertible column operations
    ok = True
    for _ in range(cases):
        rows = [[rand_elem(ring) for _ in range(3)] for _ in range(3)]
        perm = rng.sample(range(3), 3)
        c_from, c_to = rng.sample(range(3), 2)
        mult = ring.from_mapping({(rng.randrange(4),): 1 + 3 * rng.randrange(9)})
        rows2 = []
        for row in rows:
            r2 = list(row)
            r2[c_to] = ring.add(r2[c_to], ring.mul(mult, r2[c_from]))
            rows2.append([r2[perm[j]] for j in range(3)])
        f1 = fitting_ideal(PresentationMatrix(ring, rows))
        f2 = fitting_ideal(PresentationMatrix(ring, rows2))
        ok = ok and ideal_equal(f1.generators, f2.generators, ring)
    record("fitting_presentation_invariance", ok, cases=cases, ring=ring.describe())

    # 2. Fitt(M + N) = Fitt(M) Fitt(N)
    ok = True
    for _ in range(cases):
        a = rand_elem(ring)
        b = rand_elem(ring)
        block = [[a, ring.zero], [ring.zero, b]]
        f_sum = fitting_ideal(PresentationMatrix(ring, block))
        prod = [ring.mul(a, b)]
        ok = ok and ideal_equal(f_sum.generators, prod, ring)
    record("fitting_direct_sum", ok, cases=cases)

    # 3. base change: group quotient C4 -> C2, and gamma -> 1 on C4 x C3
    ok = True
    small = AbelianGroup((2,))
    ring_s = ZpkGroupRing(3, 6, small)

    def push_c4_c2(x):
        out = [0, 0]
        for (g,), v in zip(ring.elems, x):
            out[g % 2] += v
        return ring_s.from_vec(out)

    big = AbelianGroup((4, 3))
    ring_b = ZpkGroupRing(3, 6, big)

    def kill_gamma(x):
        out = [0] * 4
        for (g, _), v in zip(ring_b.elems, x):
            out[g] += v
        return ring.from_vec(out)

    for case in range(cases):
        if case % 2 == 0:
            rows = [[rand_elem(ring) for _ in range(2)] for _ in range(2)]
            fi = fitting_ideal(PresentationMatrix(ring, rows))
            rows_s = [[push_c4_c2(e) for e in row] for row in rows]
            fi_s = fitting_ideal(PresentationMatrix(ring_s, rows_s))
            ok = ok and ideal_equal([push_c4_c2(g) for g in fi.generators],
                                    fi_s.generators, ring_s)
        else:
            rows = [[rand_elem(ring_b) for _ in range(2)] for _ in range(2)]
            fi = fitting_ideal(PresentationMatrix(ring_b, rows))
            rows_k = [[kill_gamma(e) for e in row] for row in rows]
            fi_k = fitting_ideal(PresentationMatrix(ring, rows_k))
            ok = ok and ideal_equal([kill_gamma(g) for g in fi.generators],
                                    fi_k.generators, ring)
    record("fitting_base_change", ok, cases=cases)

    # 4. matrix lifting lemma: GL_2 over Z/3^8[C4] <-> Z/3^4[C4]
    ok = True
    hi = ZpkGroupRing(3, 8, c4)
    lo = ZpkGroupRing(3, 4, c4)

    for _ in range(cases):
        mat = [[rand_elem(hi) for _ in range(2)] for _ in range(2)]
        det_hi = hi.sub(hi.mul(mat[0][0], mat[1][1]), hi.mul(mat[0][1], mat[1][0]))
        det_lo = lo.sub(lo.mul(lo.from_vec(mat[0][0]), lo.from_vec(mat[1][1])),
                        lo.mul(lo.from_vec(mat[0][1]), lo.from_vec(mat[1][0])))
        ok = ok and (is_unit(det_hi, hi)[0] == is_unit(det_lo, lo)[0])
    record("matrix_lifting_lemma", ok, cases=cases, precisions=(8, 4))

    # 5. coherent nzd on toy projective systems
    ok = True
    count = 0
    params = []
    for p_ in (2, 3, 5):
        params.append(("chain", p_, [3, 4, 5], p_, True))
        params.append(("chain", p_, [2, 3, 4, 5], p_ * (1 + p_), True))
        params.append(("chain", p_, [3, 4, 5], 1, True))
        params.append(("chain", p_, [2, 4, 6], p_ ** 2, True))
        params.append(("flag", p_, [3, 3, 3], p_, False))
    grp = AbelianGroup((2,))
    params.append(("group", 3, [2, 3, 4], {(0,): 3}, True))
    params.append(("group", 3, [2, 3], {(0,): 3, (1,): 9}, True))
    params.append(("group", 5, [2, 3], {(0,): 5}, True))
    params.append(("group", 3, [2, 3, 4], {(0,): 1, (1,): 3}, True))
    params.append(("flag-group", 3, [2, 2], {(0,): 3}, False))
    for kind, p_, ks, alpha, expect_ok in params[:max(systems, 1)]:
        count += 1
        if kind.endswith("group"):
            sys_ = zpk_chain_system(p_, ks, None, group=grp, alpha_elem=alpha)
        else:
            sys_ = zpk_chain_system(p_, ks, alpha)
        rep = coherent_nzd_check(sys_)
        if expect_ok:
            ok = ok and rep.passed
        else:
            ok = ok and not rep.precondition_ok
    record("coherent_nzd_systems", ok, systems=count)

    # 6. sharp functor: (Z_p/d_S)^sharp = 0 and exactness on random SES
    ok = True
    grp3 = AbelianGroup((3,))
    ring_sharp = ZpkGroupRing(2, 6, grp3)
    for d_s in (2, 4, 6):
        rows = [[ring_sharp.scale_int(d_s, ring_sharp.one)]]
        for g in grp3.elements():
            if g != grp3.identity:
                rows.append([ring_sharp.sub(ring_sharp.from_mapping({g: 1}), ring_sharp.one)])
        pm = PresentationMatrix(ring_sharp, rows)
        sharp = sharp_presentation(pm, (0,))
        ok = ok and module_order_exponent(sharp) == 0
    record("sharp_kills_trivial_action", ok, d_s_values=(2, 4, 6))

    ok = True
    grp_m = AbelianGroup((2, 3))
    ring_m = ZpkGroupRing(3, 4, grp_m)
    for _ in range(systems):
        rows_b = [[rand_elem(ring_m) for _ in range(2)] for _ in range(2)]
        pm_b = PresentationMatrix(ring_m, rows_b)
        extra = [rand_elem(ring_m) for _ in range(2)]
        pm_c = PresentationMatrix(ring_m, rows_b + [extra])
        pm_a = cyclic_submodule_presentation(pm_b, extra)
        ob, oc, oa = (module_order_exponent(x) for x in (pm_b, pm_c, pm_a))
        sb = module_order_exponent(sharp_presentation(pm_b, (0,)))
        sc = module_order_exponent(sharp_presentation(pm_c, (0,)))
        sa = module_order_exponent(sharp_presentation(pm_a, (0,)))
        eb = module_order_exponent(e_delta_presentation(pm_b, (0,)))
        ok = ok and oa == ob - oc and sa == sb - sc and ob == sb + eb
    record("sharp_exactness_ses", ok, systems=systems)

    return verdicts
