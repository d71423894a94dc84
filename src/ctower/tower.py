"""Multi-layer verification runs: build layers 0..N, compute Theta at each,
and run every suite (stabilization, functoriality, order of vanishing,
Sigma units, non-zero-divisor slack, geometry cross-checks, Fitting-ideal
quotient comparison, Sigma-independence, charpoly identity).

Infinite-level statements are never asserted; each verdict records the
finite-layer statement it certifies together with the precision or bound at
which it was certified.  A run ends at its first failed verdict.  Every
tower verdict is computed inside TowerRun.check, so an ArithmeticError
raised while computing it is that verdict's failure.
"""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

from .abelian import TRIVIAL_GROUP, AbelianGroup
from .geometry import (
    CHARPOLY_PRECISION,
    DEFAULT_POINT_BUDGET,
    ConfigurationRefused,
    charpoly_theta_report,
    count_points_model,
    count_points_splitting,
    curve_model,
    nabla_order,
    s_divisor_data,
    sigma_factor_at_one,
    zeta_numerator,
)
from .grouprings import (
    PresentationMatrix,
    ZpkGroupRing,
    block_exponents,
    characters,
    cyclic_submodule_presentation,
    delta_blocks,
    delta_orbits,
    e_delta_presentation,
    fitting_ideal,
    group_index,
    ideal_equal,
    is_unit,
    module_order_exponent,
    mult_matrix,
    quotient_exponents,
    quotient_order_exponent,
    sharp_presentation,
)
from .lfun import (
    SIGMA_UNIT_PRECISION,
    functoriality_check,
    order_of_vanishing_table,
    sigma_factor_unit,
    theta,
)
from .rayclass import TowerConfig, build_layer, layer_projection
from .snf import zpk_cokernel_exponents, zpk_kernel

DEFAULT_PRECISION = 24
POINT_MAX_I = 6


class TowerVerificationError(AssertionError):
    """Raised by TowerRun.record on a failed verdict, to end the suite that
    TowerRun.until_failure runs."""


@dataclass
class RunOptions:
    precision_k: int = DEFAULT_PRECISION
    degree: object = None  # explicit enumeration degree D (None: bound + 4)
    point_budget: int = DEFAULT_POINT_BUDGET
    seed: int = 0
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
            raise TowerVerificationError(name)

    @contextmanager
    def check(self, name, layer, shadows):
        """The block computes the verdict name and records it with the
        record(passed, **details) it is given.  An ArithmeticError raised in
        the block is that verdict's failure: it is recorded with its error."""
        try:
            yield functools.partial(self.record, name, layer, shadows=shadows)
        except ArithmeticError as exc:
            self.record(name, layer, False, shadows, error=f"{type(exc).__name__}: {exc}")

    def until_failure(self, suite, *args):
        """Run suite(self, *args) up to its first failed verdict; returns self."""
        try:
            suite(self, *args)
        except TowerVerificationError:
            pass
        return self

    def to_json(self):
        return {
            **self.cfg.to_json(),
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


def nzd_slack(group: AbelianGroup, special, p: int, k: int) -> int:
    """Smallest c with Ann(Theta(1)) contained in p^(k-c) Z/p^k[G], G =
    group and special = Theta(1) in Z[G]: the finite-precision
    non-zero-divisor slack.

    With U M V = diag(p^v_j), the annihilator is generated by the columns
    p^(k - v_j) V_j, and each column of the unimodular V has a unit entry, so
    c is the largest Smith exponent of multiplication by Theta(1), or 0 when
    Theta(1) is a unit.  The exponents are read block by block off the
    chi-components of Theta(1) (grouprings.quotient_exponents): unit blocks
    are certified by their P-augmentation and only the others are
    eliminated.  run_tower reads c and the quotient order off one list of
    blocks per layer.
    """
    return max(quotient_exponents(group, special, p, k), default=0)


def run_tower(cfg: TowerConfig, N: int, options: RunOptions = None) -> TowerRun:
    """Build layers 0..N and run the tower's verdicts up to the first failed
    one.  The run is returned whether it passed or failed."""
    run = TowerRun(cfg=cfg, N=N, options=options or RunOptions())
    run.layers = [build_layer(cfg, n) for n in range(N + 1)]
    return run.until_failure(_tower_suite)


def _theta_verdict(run: TowerRun, layer):
    """Theta at layer with its stabilization and cross-checks, recorded as
    the verdict theta_stabilization, then the vanishing of its divisor-sum
    coefficients D + 1 and D + 2, the verdict theta_recompute_D_plus_2."""
    with run.check("theta_stabilization", layer.n,
                   "polynomiality of the equivariant L-function") as record:
        tr = theta(layer, D=run.options.degree, cross_check=True)
        record(True, bound=tr.bound, D=tr.D, checks=tr.checks)
    with run.check("theta_recompute_D_plus_2", layer.n,
                   "stabilization certificate") as record:
        tr.certify_tail()
        record(True, D=tr.D + 2)
    return tr


def _zero_blocks(layer, p: int, live) -> list:
    """The indices of the delta_blocks of Theta(1) that vanish exactly,
    given the characters chi with chi(Theta(1)) != 0: a block is zero when
    no such chi has its Delta-part in the block's Frobenius orbit."""
    delta_idx, _, reps, orbit = delta_orbits(layer.group, p)
    nonzero = {orbit[tuple(chi.exps[i] for i in delta_idx)] for chi in live}
    return [b for b in range(len(reps)) if b not in nonzero]


def _live_characters(layer, tr) -> tuple:
    """The characters chi of the layer whose chi(Theta) does not vanish at
    u = 1, as (the set of their rational-orbit reps in tr, the list of them
    all in characters order).  chi(Theta) vanishes there to order
    split_count(chi) - [chi trivial], one number per rational orbit."""
    live_reps = {rep for rep in set(tr.orbit_rep.values())
                 if layer.split_count(rep) == rep.is_trivial()}
    return live_reps, [chi for chi in characters(layer.group)
                       if tr.orbit_rep[chi.exps] in live_reps]


def _tower_suite(run: TowerRun):
    cfg = run.cfg
    opts = run.options
    layers = run.layers
    p = cfg.char
    k = opts.precision_k

    trs = run.theta_results
    for layer in layers:
        tr = _theta_verdict(run, layer)
        trs.append(tr)
        with run.check("per_character_degree_bounds", layer.n,
                       "conductor-based degree formula") as record:
            record(all(d <= b for d, b in tr.per_char_degrees.values()),
                   degrees={str(kk): v for kk, v in tr.per_char_degrees.items()})

    for n in range(run.N):
        with run.check("functoriality", (n + 1, n),
                       "coherent family of L-polynomials under Galois restriction") as record:
            rep = functoriality_check(trs[n + 1], trs[n], layer_projection(layers[n + 1], layers[n]))
            record(rep.equal, first_mismatch=rep.first_mismatch_degree)

    for layer, tr in zip(layers, trs):
        with run.check("order_of_vanishing", layer.n,
                       "vanishing order at u=1 vs split decomposition groups") as record:
            table = order_of_vanishing_table(layer, tr)
            bad = next((chi for chi, mult, predicted in table if mult != predicted), None)
            record(bad is None,
                   table=[{"chi": list(chi.exps), "mult": mult, "predicted": predicted}
                          for chi, mult, predicted in table],
                   **({} if bad is None else {"first_mismatch": list(bad.exps)}))

    for layer in layers:
        for v in sorted(cfg.sigma, key=lambda v: v.gen.sort_key()):
            with run.check("sigma_factor_unit", layer.n,
                           "Sigma Euler factors are units") as record:
                record(sigma_factor_unit(layer, v), place=v.gen.serialize(),
                       precision=SIGMA_UNIT_PRECISION)

    # one projection of Theta(1) per Frobenius orbit of Delta-characters:
    # the component test reads the images, the slack the largest exponent of
    # the non-unit blocks and the quotient order (geometry suite) their sum
    theta_one_exps = []
    for layer, tr in zip(layers, trs):
        with run.check("special_value_nzd_shadow", layer.n,
                       "Theta(1) annihilator slack at finite precision") as record:
            blocks = delta_blocks(layer.group, tr.special_value(), p, k)
            exps = block_exponents(blocks)
            theta_one_exps.append(exps)
            live_reps, live = _live_characters(layer, tr)
            if not live:
                # every chi(Theta) vanishes at u = 1, so Theta(1) = 0: there is
                # no chi(Theta(1)) to test and no component that can be nonzero
                record(True, shadows="Theta(1) annihilator slack (refused: outside "
                                     "supported case)",
                       refused="every character is trivial on the decomposition group "
                               "of a place in S, so Theta(1) = 0")
                continue
            # chi(Theta(1)) = 0 is one answer per rational orbit too
            bad = next(({"chi": list(rep.exps)}
                        for rep in sorted(live_reps, key=lambda r: r.exps)
                        if rep.ring.is_zero(tr.chi_at_one(rep))), None)
            # the Delta-component images of Theta(1) at precision p^k that are
            # zero must be the blocks that vanish exactly
            zero = _zero_blocks(layer, p, live)
            seen = [b for b, (_, img) in enumerate(blocks) if not any(img)]
            bad = bad or next(({"block": b} for b in range(len(blocks))
                               if (b in seen) != (b in zero)), None)
            record(bad is None, slack_c=max(exps, default=0), precision_k=k,
                   **({"zero_blocks": zero} if zero else {}),
                   **({} if bad is None else {"first_mismatch": bad}))

    layer, tr = layers[0], trs[0]
    model = model_err = None
    try:
        model = curve_model(layer)
    except (ArithmeticError, ValueError) as exc:  # no model: splitting only
        model_err = str(exc)
    counts = [count_points_splitting(layer, i) for i in range(1, POINT_MAX_I + 1)]
    with run.check("point_count_cross_check", layer.n,
                   "model counting vs class-field splitting law") as record:
        mismatch = None
        for i, ns in enumerate(counts, 1):
            if model is None or cfg.field.q ** i > opts.point_budget:
                break
            nm = count_points_model(model, i, budget=opts.point_budget)
            if nm != ns:
                mismatch = {"i": i, "model": nm, "splitting": ns}
                break
        record(mismatch is None, counts=counts, model=None if model is None else "plane model",
               note=model_err, **({} if mismatch is None else {"first_mismatch": mismatch}))
    _class_number_suite(run, layer, tr, counts, sum(theta_one_exps[0]))


def _sigma_mismatch(layer, alt_layer, special, alt_special, p: int):
    """The first group element at which Sigma-independence fails, or None.

    With W, W' the Sigma factors of layer and alt_layer at u = 1 (the same
    S and group, Sigma and Sigma'), Theta'(1) W = Theta(1) W' holds exactly
    in Z[G], and W = W' = 1 mod p because p | q.  So W and W' are units of
    Z/p^k[G] (1 + p y is, p y being nilpotent), and Theta'(1) is Theta(1)
    times the unit W' W^-1: no Z/p^k[G] ring is built and nothing is
    eliminated."""
    one = [1] + [0] * (layer.group.order - 1)
    lhs = sigma_factor_at_one(layer, alt_special)
    rhs = sigma_factor_at_one(alt_layer, special)
    w, w_alt = sigma_factor_at_one(layer, one), sigma_factor_at_one(alt_layer, one)
    elems, _ = group_index(layer.group)
    return next((g for g, a, b, c, d, e in zip(elems, lhs, rhs, w, w_alt, one)
                 if a != b or (c - e) % p or (d - e) % p), None)


def cnf_suite(run: TowerRun, layer, max_i: int):
    """The class-number suite at one layer of any depth: Theta there, the
    splitting-law counts N_1..N_(max_i) and the quotient order of Theta(1)."""
    tr = _theta_verdict(run, layer)
    counts = [count_points_splitting(layer, i) for i in range(1, max_i + 1)]
    quot = quotient_order_exponent(layer.group, tr.special_value(), run.cfg.char,
                                   run.options.precision_k)
    _class_number_suite(run, layer, tr, counts, quot)


def _class_number_suite(run: TowerRun, layer, tr, counts, quot):
    """The verdicts read off the point counts N_1, N_2, ... of the layer: the
    zeta numerator, the class-number Fitting identity, Sigma-independence
    and the charpoly identity.  quot is log_p |Z/p^k[G] / (Theta(1))|."""
    cfg = run.cfg
    opts = run.options
    p = cfg.char
    k = opts.precision_k

    with run.check("zeta_functional_equation", layer.n,
                   "Weil numerator with functional equation and bounds") as record:
        run.zeta = z = zeta_numerator(counts, cfg.field.q)
        record(True, genus=z.genus, numerator=z.numerator, h=z.h)

    with run.check("class_number_fitting_identity", layer.n,
                   "finite-layer Fitting ideal of the divisor-class module") as record:
        sdiv = s_divisor_data(layer)
        try:
            nab = nabla_order(layer, z, sdiv)
        except ConfigurationRefused as exc:
            nab = None
            record(True, shadows="finite-layer Fitting ideal (refused: outside supported case)",
                   refused=str(exc))
        else:
            record(quot == nab.total_p_exponent, nabla_p_exponent=nab.total_p_exponent,
                   quotient_p_exponent=quot, precision_k=k, hypotheses=nab.hypotheses)

    if opts.sigma_alt is not None:
        alt_cfg = TowerConfig(cfg.field, cfg.f, cfg.p_place, cfg.S,
                              frozenset(opts.sigma_alt))
        alt_layer = build_layer(alt_cfg, layer.n)
        with run.check("sigma_independence", layer.n,
                       "Sigma-smoothing changes Theta(1) by a unit") as record:
            alt_special = theta(alt_layer, cross_check=False).special_value()
            q2 = quotient_order_exponent(layer.group, alt_special, p, k)
            bad = _sigma_mismatch(layer, alt_layer, tr.special_value(), alt_special, p)
            record(bad is None and quot == q2, quotient_exponents=(quot, q2), precision_k=k,
                   **({} if bad is None else {"first_mismatch": list(bad)}))

    if nab is not None:
        with run.check("charpoly_theta_identity", layer.n,
                       "Frobenius characteristic polynomial vs Theta") as record:
            report = charpoly_theta_report(layer, tr, z, sdiv)
            failed = [part for part in ("exact_identity", "unit_certified",
                                        "pinned_discrepancy_matches") if not report[part]]
            record(not failed, precision=CHARPOLY_PRECISION,
                   **({} if not failed else {"failed_parts": failed,
                                             "first_mismatch_degree": report["first_mismatch_degree"]}))


# ---------------------------------------------------------------------------
# toy projective systems and the coherent non-zero-divisor lemma
# ---------------------------------------------------------------------------


@dataclass
class ToyProjectiveSystem:
    """A finite chain R_0 <- R_1 <- ... <- R_T of finite rings with ring
    surjections, carrying a coherent element sequence alpha."""

    rings: list          # ZpkGroupRing objects (Z/p^k: the trivial group)
    transitions: list    # transitions[m]: R_{m+1} -> R_m
    alpha: list          # alpha[m] in rings[m]

    def __post_init__(self):
        if len(self.rings) != len(self.alpha) or len(self.transitions) != len(self.rings) - 1:
            raise ValueError("system lengths are inconsistent")
        for m, t in enumerate(self.transitions):
            img = t(self.alpha[m + 1])
            if img != self.alpha[m]:
                raise ValueError(f"alpha is not coherent at level {m}")


@dataclass
class CoherentNzdReport:
    precondition_ok: bool
    conclusion_ok: bool

    @property
    def passed(self):
        return self.precondition_ok and self.conclusion_ok


def _log_span(mat, p: int, k: int) -> int:
    """log_p of the order of the Z/p^k-span of the columns of mat."""
    return len(mat) * k - sum(zpk_cokernel_exponents(mat, p, k))


def coherent_nzd_check(sys: ToyProjectiveSystem) -> CoherentNzdReport:
    """Finite shadow of the coherent-nzd lemma.

    Precondition: the annihilator of alpha_m dies in the next ring down
    (Ann(alpha_m) maps to 0 under R_m -> R_{m-1}); a genuine zero divisor at
    some level is flagged.  Conclusion: an element of the top ring whose
    projections all lie in the ideals (alpha_m R_m) must already lie in
    alpha_T R_T.  The transitions are ring maps and alpha is coherent, so an
    element whose image lies in alpha_(T-1) R_(T-1) has every lower image in
    its ideal: those elements are the preimage of alpha_(T-1) R_(T-1) under
    the top transition P, which contains alpha_T R_T, and the conclusion
    holds when the two have the same order.
    """
    precondition_ok = True
    for m in range(len(sys.rings) - 1, 0, -1):
        ring = sys.rings[m]
        # the kernel of multiplication by alpha_m spans Ann(alpha_m)
        kern = zpk_kernel(mult_matrix(ring, [[sys.alpha[m]]]), ring.p, ring.k)
        if any(any(sys.transitions[m - 1](ring.from_vec(vec))) for vec in kern):
            precondition_ok = False
            break

    top = sys.rings[-1]
    p, k, n = top.p, top.k, top.basis_size
    log_pre = n * k
    if len(sys.rings) > 1:
        # x is in the preimage iff d (P x - A y) = 0 mod p^k for some y, with
        # A spanning alpha_(T-1) R_(T-1) and d = p^(k - k_(T-1)): the
        # preimage is the x-part of the kernel of d [P | -A]
        below = sys.rings[-2]
        d = p ** (k - below.k)
        cols = [sys.transitions[-1]([int(i == j) for i in range(n)]) for j in range(n)]
        rows = [[d * a for a in prow] + [-d * a for a in arow]
                for prow, arow in zip(zip(*cols), mult_matrix(below, [[sys.alpha[-2]]]))]
        kern = zpk_kernel(rows, p, k)
        log_pre = _log_span([[vec[i] for vec in kern] for i in range(n)], p, k)
    return CoherentNzdReport(
        precondition_ok=precondition_ok,
        conclusion_ok=log_pre == _log_span(mult_matrix(top, [[sys.alpha[-1]]]), p, k))


def zpk_chain_system(p: int, ks, alpha,
                     group: AbelianGroup = TRIVIAL_GROUP) -> ToyProjectiveSystem:
    """Chain Z/p^{k_0}[G] <- ... <- Z/p^{k_T}[G] (by default G is trivial:
    the chain of Z/p^k) with the constant coherent element alpha, a mapping
    exponent tuple -> int."""
    rings = [ZpkGroupRing(p, kk, group) for kk in ks]
    return ToyProjectiveSystem(rings=rings, transitions=[lo.from_vec for lo in rings[:-1]],
                               alpha=[r.from_mapping(alpha) for r in rings])


# ---------------------------------------------------------------------------
# randomized algebra property battery (seeded, exact)
# ---------------------------------------------------------------------------
#
# The battery is a list of sections (name, n, draw, check, details): case i
# of a section draws its inputs with draw(rng, i) from the seeded stream of
# its chunk (drain_battery), and check(inputs) is a pure function of them.
# The checks call fitting_ideal, ideal_equal, is_unit and
# module_order_exponent through this module's globals, so whatever rebinds
# those names here sees every call.

MAX_CHUNKS = 255  # one byte per chunk token


def _rand_vecs(rng, ring, count):
    """Coefficient lists of count random elements of ring, in draw order:
    each coefficient is drawn by the getrandbits rejection loop that
    rng.randrange(pk) runs, so the stream is the same."""
    pk, n = ring.pk, ring.basis_size
    bits, getrandbits = pk.bit_length(), rng.getrandbits
    out = []
    for _ in range(count * n):
        r = getrandbits(bits)
        while r >= pk:
            r = getrandbits(bits)
        out.append(r)
    return [out[i:i + n] for i in range(0, count * n, n)]


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
        return ideal_equal(f1, f2, ring)

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
        return ideal_equal(f_sum, [ring.mul(a, b)], ring)

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
        return ideal_equal([push(g) for g in fi], fi_down, bottom)

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


def _coherent_nzd():
    """The coherent-nzd lemma on 20 toy projective systems over Z/p^k and
    Z/p^k[C2]: the chains must pass, the flagged ones (expect_ok False) must
    fail the precondition.  Draws nothing."""
    c2 = AbelianGroup((2,))
    params = []
    for p_ in (2, 3, 5):
        params.append((p_, [3, 4, 5], TRIVIAL_GROUP, {(): p_}, True))
        params.append((p_, [2, 3, 4, 5], TRIVIAL_GROUP, {(): p_ * (1 + p_)}, True))
        params.append((p_, [3, 4, 5], TRIVIAL_GROUP, {(): 1}, True))
        params.append((p_, [2, 4, 6], TRIVIAL_GROUP, {(): p_ ** 2}, True))
        params.append((p_, [3, 3, 3], TRIVIAL_GROUP, {(): p_}, False))
    params.append((3, [2, 3, 4], c2, {(0,): 3}, True))
    params.append((3, [2, 3], c2, {(0,): 3, (1,): 9}, True))
    params.append((5, [2, 3], c2, {(0,): 5}, True))
    params.append((3, [2, 3, 4], c2, {(0,): 1, (1,): 3}, True))
    params.append((3, [2, 2], c2, {(0,): 3}, False))

    def draw(rng, i):
        return params[i]

    def check(inputs):
        p_, ks, group, alpha, expect_ok = inputs
        rep = coherent_nzd_check(zpk_chain_system(p_, ks, alpha, group))
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


def _sharp_exactness():
    """The sharp functor and the module order are exact on 20 random short
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

    return "sharp_exactness_ses", 20, draw, check, {"systems": 20}


def battery_sections(cases: int = 200) -> list:
    """The seven sections of the Fitting-ideal / lifting / coherence / sharp
    property battery, in draw order."""
    return [_presentation_invariance(cases), _direct_sum(cases), _base_change(cases),
            _lifting_lemma(cases), _coherent_nzd(), _sharp_kills_trivial_action(),
            _sharp_exactness()]


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
    """Run every chunk that claim() hands out, in any order, until it
    returns None, and return each section's lowest failing case here:
    (case index, error) or None when every case run here passed.

    A case fails when its check returns False or raises an ArithmeticError
    or a ValueError, whose "Type: message" is the error (None otherwise).
    Chunk c draws its cases in order from its own stream, seeded with
    seed * MAX_CHUNKS + c (distinct for each seed >= 0 as c < MAX_CHUNKS).
    Cases above a section's lowest failure so far are not run.
    """
    failures = [None] * len(sections)
    while (c := claim()) is not None:
        s, start, stop = chunks[c]
        _, _, draw, check, _ = sections[s]
        if failures[s] is not None:
            stop = min(stop, failures[s][0])
        rng = random.Random(seed * MAX_CHUNKS + c)
        for i in range(start, stop):
            inputs = draw(rng, i)
            try:
                if check(inputs):
                    continue
                error = None
            except (ArithmeticError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            failures[s] = (i, error)
            break
    return failures


def battery_verdicts(sections, *drains) -> list:
    """One verdict per section, shaped like TowerRun verdicts, from the
    failures of drains that share the chunk plan: a failed verdict holds the
    lowest failing case of any drain as first_failure, with its error."""
    verdicts = []
    for s, (name, _, _, _, details) in enumerate(sections):
        verdict = {"name": name, "layer": None, "passed": True,
                   "shadows": "exact algebra property", **details}
        failures = [drain[s] for drain in drains if drain[s] is not None]
        if failures:
            case, error = min(failures, key=lambda failure: failure[0])
            verdict.update(passed=False, first_failure=case,
                           **({} if error is None else {"error": error}))
        verdicts.append(verdict)
    return verdicts


def algebra_suite(seed: int = 0, cases: int = 200) -> list:
    """The Fitting-ideal / lifting / coherence / sharp property battery in
    this process: the drain of every chunk in order.

    Every check is exact; each chunk's stream is seeded from (seed, chunk),
    so any split of the chunks between drains gives these verdicts.  Returns
    a verdict list shaped like TowerRun verdicts.
    """
    sections = battery_sections(cases)
    chunks = battery_chunks(sections)
    order = iter(range(len(chunks)))
    return battery_verdicts(sections, drain_battery(seed, sections, chunks,
                                                    lambda: next(order, None)))
