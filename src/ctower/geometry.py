"""Independent geometric oracle: point counts on explicit curve models over
F_(q^i) = FqField.extension (one fiber per Frobenius orbit, its roots by an
FqPoly gcd), splitting-law counts from class-field data, zeta numerators via
Newton identities, the Ritter-Weiss order bookkeeping, and the charpoly
comparison, whose discrepancy factor is certified a unit of Z/p^k[u]/(u^M)
(grouprings.PolyGroupRing with h = u^M and the trivial group), (k, M) =
CHARPOLY_PRECISION.

The Sigma factor W(u) = prod_{v in Sigma} (1 - sigma_v^{-1} (qu)^{d_v}) is
never formed in Z[G][u]: sigma_factor_at_one multiplies a Z[G] coefficient
list by W(1), exactly and one translation row per Sigma place, and
sigma_factor_norm reads its norm off prod_chi (1 - chi(s) T) =
(1 - T^f)^{|G|/f}, f the order of s.

Exceptional fibers (above S and infinity) always come from the class-field
tables.  Every other fiber a count reads must have simple rational roots:
then, by Dedekind-Kummer, its affine count is the smooth curve's count above
that place.  The model is never checked globally; A[lambda^(q-1)] is the
integral closure of A in the real subfield (Rosen ch. 12), so the check
never fires on a tower layer.
"""

from __future__ import annotations

from math import gcd

from . import zpoly
from .abelian import TRIVIAL_GROUP
from .carlitz import AXPoly, real_generator_minpoly
from .ffpoly import FqField, FqPoly, INFINITY, irreducibles_of_degree
from .grouprings import PolyGroupRing, character_norm, characters, is_unit, translation

DEFAULT_POINT_BUDGET = 10 ** 7
CHARPOLY_PRECISION = (12, 12)  # (k, M) of the charpoly comparison


class CurveModelError(ArithmeticError):
    """The plane model has the wrong degree, or a fiber off S that a count
    reads has a rational root that is not simple."""


class FiberMismatchError(ArithmeticError):
    """An affine fiber above a ramified place disagrees with the table."""


class ConfigurationRefused(ValueError):
    """The bookkeeping case required by the operation does not hold."""


# ---------------------------------------------------------------------------
# curve models
# ---------------------------------------------------------------------------


class CurveModel:
    """Affine plane model F(theta, X) = 0 of a tower layer, with the
    class-field exceptional table."""

    __slots__ = ("layer", "fpoly", "exceptional")

    def __init__(self, layer, fpoly: AXPoly, exceptional: dict):
        self.layer = layer
        self.fpoly = fpoly
        self.exceptional = exceptional  # place v -> (deg w, count) of the places w above v

    @property
    def field(self):
        return self.layer.field


def curve_model(layer) -> CurveModel:
    """Plane model from the real-subfield generator (cyclotomic polynomial
    itself when q = 2); its X-degree must be the layer order.  Its
    smoothness off S is checked fiber by fiber, by count_points_model."""
    m = layer.modulus
    if m.is_one():
        # conductor 1, L = k: the projective line, model X = 0
        return CurveModel(layer=layer, fpoly=AXPoly.gen(layer.field),
                          exceptional=layer.exceptional_table())
    fpoly = real_generator_minpoly(m)
    if fpoly.degree != layer.order:
        raise CurveModelError(
            f"model degree {fpoly.degree} does not match the layer order {layer.order}")
    return CurveModel(layer=layer, fpoly=fpoly, exceptional=layer.exceptional_table())


# -- point counts on the model ------------------------------------------------


def _frobenius_orbits(field, q: int):
    """(a, size) for one element a from each orbit of a -> a^q on field: the
    orbit of gamma^k is {gamma^(k q^j)}, walked on exponents mod |field| - 1
    and mapped to elements through the exp table, and zero is its own
    orbit.  The sizes add up to |field|."""
    n = field.q - 1
    seen = bytearray(n)
    out = [(0, 1)]
    for k in range(n):
        if not seen[k]:
            size, j = 0, k
            while not seen[j]:
                seen[j] = 1
                size += 1
                j = j * q % n
            out.append((field._exp[k], size))
    return out


def _fiber_root_count(f: FqPoly, q: int, i: int, simple: bool) -> int:
    """Number of roots of the monic f in its field F_(q^i): deg g, g =
    gcd(X^(q^i) - X, f) (Lidl and Niederreiter, Finite Fields, ch. 3).  If
    simple, those roots must be simple, gcd(g, f/g) = 1, or CurveModelError
    is raised.

    X^(q^i) mod f comes from i q-power Frobenius steps h -> h^q mod f,
    starting at h = X: h^q = sum_t h_t^q X^(qt), as q is a power of the
    characteristic, so every step spreads the coefficients and reduces once.
    """
    F = f.field
    x = FqPoly.gen(F)
    h = x if f.degree >= 2 else x % f
    for _ in range(i):
        spread = [0] * (q * len(h.coeffs))
        spread[::q] = [F.pow(c, q) for c in h.coeffs]
        h = FqPoly(F, spread) % f
    g = f.gcd(h - x)
    # g = 1 has no root to check, and g = f divides X^(q^i) - X, squarefree
    if simple and 0 < g.degree < f.degree and g.gcd(f // g).degree:
        raise CurveModelError(f"the plane model is singular off S: a fiber has a multiple "
                              f"root in F_({q}^{i})")
    return g.degree


def count_points_model(model: CurveModel, i: int,
                       budget: int = DEFAULT_POINT_BUDGET) -> int:
    """F_(q^i)-points of the smooth model: affine counting away from the
    exceptional fibers plus the class-field table above them.

    F_(q^i) is FqField.extension(F_q, g), g the first monic irreducible of
    degree i over F_q (irreducibles_of_degree).  The fiber over theta0 is
    the model with its A-coefficients evaluated at theta0, an FqPoly over
    F_(q^i), and its points are its roots (_fiber_root_count).  Off S they
    must be simple, or CurveModelError is raised.  The affine fiber above
    each exceptional finite place is also counted and compared against the
    table; disagreement is a hard error.

    One fiber is counted per orbit of the q-power Frobenius on F_(q^i) and
    weighted by the orbit size.  That is exact: the model is defined over
    F_q, so Frobenius maps the fiber over theta0 bijectively onto the fiber
    over theta0^q, and an F_q-rational place's generator vanishes at theta0
    exactly when it vanishes at theta0^q.  (The p-power Frobenius would not
    do when q = p^e, e > 1: the model is only F_q-rational.)
    """
    field = model.field
    q = field.q
    if q ** i > budget:
        raise ValueError(f"q^i = {q ** i} exceeds the point-count budget {budget}")
    ext = FqField.extension(field, next(irreducibles_of_degree(field, i)).gen.coeffs)
    add, mul = ext.add, ext.mul
    xcoeffs = model.fpoly.coeffs
    finite_places = model.layer.finite_s()
    exc_polys = [v.gen for v in finite_places]

    def evaluate(c: FqPoly, theta0):
        # the constant c of F_q is the element c of F_(q^i)
        val = 0
        for cc in reversed(c.coeffs):
            val = add(mul(val, theta0), cc)
        return val

    points = 0
    exceptional_affine = {}
    for th, size in _frobenius_orbits(ext, q):
        idx = next((idx for idx, g in enumerate(exc_polys) if not evaluate(g, th)), None)
        fiber = FqPoly(ext, [evaluate(c, th) for c in xcoeffs])
        cnt = size * _fiber_root_count(fiber, q, i, idx is None)
        if idx is None:
            points += cnt
        else:
            # exceptional fiber: counted separately for the mismatch check
            exceptional_affine[idx] = exceptional_affine.get(idx, 0) + cnt

    # add table contributions and enforce the fiber-consistency check
    for idx, v in enumerate(finite_places):
        dw, cnt = model.exceptional[v]
        expected = dw * cnt if i % dw == 0 else 0
        affine = exceptional_affine.get(idx, 0)
        if v.degree <= i and i % v.degree == 0 and affine != expected:
            raise FiberMismatchError(
                f"fiber above {v!r}: affine count {affine} != table count {expected}")
        points += expected
    dw, cnt = model.exceptional[INFINITY]
    if i % dw == 0:
        points += dw * cnt
    return points


def count_points_splitting(layer, i: int) -> int:
    """N_i from the splitting law: unramified places contribute through the
    order of their Frobenius, ramified ones through the class-field table."""
    total = 0
    for dw, cnt in layer.exceptional_table().values():
        if i % dw == 0:
            total += dw * cnt
    s_gens = {v.gen for v in layer.finite_s()}
    for d in range(1, i + 1):
        if i % d:
            continue
        for pl in irreducibles_of_degree(layer.field, d):
            if pl.gen in s_gens:
                continue
            f = layer.group.element_order(layer.frobenius(pl))
            if i % (d * f) == 0:
                # |G|/f places of degree d*f, each contributing d*f points
                total += d * layer.order
    return total


# ---------------------------------------------------------------------------
# zeta numerators
# ---------------------------------------------------------------------------


class ZetaData:
    __slots__ = ("counts", "genus", "numerator", "h")

    def __init__(self, counts: list, genus: int, numerator: list, h: int):
        self.counts = counts
        self.genus = genus
        self.numerator = numerator  # integer coefficients c_0 .. c_{2g}
        self.h = h

    def to_json(self):
        return {"counts": list(self.counts), "genus": self.genus,
                "numerator": list(self.numerator), "h": self.h}


def zeta_numerator(counts, q: int) -> ZetaData:
    """P_J from N_1..N_m by Newton identities; genus inferred as the smallest
    g such that a degree-2g numerator with the functional equation fits.
    No counts fit every genus, so they are refused with a ValueError.

    Newton's identities run on ints: at the first n where sum s_i c_(n-i)
    is not divisible by n, c_n is not an integer, so no genus fits (a
    numerator of degree 2g >= n would hold c_n, and one of degree 2g < n
    needs c_n = 0)."""
    m = len(counts)
    if not m:
        raise ValueError("the zeta numerator needs at least one point count N_1")
    s = [None] + [q ** i + 1 - counts[i - 1] for i in range(1, m + 1)]
    c = [1]
    for n in range(1, m + 1):
        cn, rem = divmod(-sum(s[i] * c[n - i] for i in range(1, n + 1)), n)
        if rem:
            raise ArithmeticError("no integral zeta numerator fits the counts")
        c.append(cn)
    for g in range(0, m // 2 + 1):
        if any(c[j] != 0 for j in range(2 * g + 1, m + 1)):
            continue
        cand = c[: 2 * g + 1]
        # functional equation P(u) = q^g u^(2g) P(1/(qu))
        if any(cand[2 * g - j] != q ** (g - j) * cand[j] for j in range(0, 2 * g + 1)):
            continue
        # Weil bounds, exactly: (N_i - q^i - 1)^2 <= 4 g^2 q^i
        if any(s[idx] ** 2 > 4 * g * g * q ** idx for idx in range(1, m + 1)):
            continue
        h = sum(cand)
        if h <= 0:
            continue
        return ZetaData(counts=list(counts), genus=g, numerator=cand, h=h)
    raise ArithmeticError("no integral zeta numerator fits the counts")


# ---------------------------------------------------------------------------
# S-divisor bookkeeping and the Ritter-Weiss order
# ---------------------------------------------------------------------------


class SDivisorData:
    __slots__ = ("degrees", "d_s", "x_rank", "zp_mod_ds_exponent")

    def __init__(self, degrees: list, d_s: int, x_rank: int, zp_mod_ds_exponent: int):
        self.degrees = degrees  # degrees of all places of L_n above S, with multiplicity
        self.d_s = d_s          # gcd of the degrees: deg(Div_S(L_n)) = d_s Z
        self.x_rank = x_rank    # rank of X_S = (number of places above S) - 1
        self.zp_mod_ds_exponent = zp_mod_ds_exponent  # v_p(d_s) = log_p |Z_p / d_S|


def s_divisor_data(layer) -> SDivisorData:
    table = layer.exceptional_table()
    degrees = []
    for v in layer.finite_s():
        dw, cnt = table[v]
        degrees.extend([dw] * cnt)
    if layer.infinity_in_s():
        dw, cnt = table[INFINITY]
        degrees.extend([dw] * cnt)
    d_s = 0
    for d in degrees:
        d_s = gcd(d_s, d)
    p = layer.field.p
    v_p, t = 0, d_s
    while t and t % p == 0:
        t //= p
        v_p += 1
    return SDivisorData(degrees=degrees, d_s=d_s,
                        x_rank=len(degrees) - 1, zp_mod_ds_exponent=v_p)


class NablaOrder:
    __slots__ = ("hypotheses", "total_p_exponent")

    def __init__(self, hypotheses: dict, total_p_exponent: int):
        self.hypotheses = hypotheses              # which of (a)-(d) hold
        self.total_p_exponent = total_p_exponent  # log_p |nabla_S^(n)| (p-part): v_p(h) + v_p(d_S)


def evaluate_hypotheses(layer) -> dict:
    """Hypotheses (a)-(d) for the class-group comparison, over rational k:
    (b) and (c) are automatic since the real Hilbert class field is k itself
    (h_k = 1, d_infty = 1)."""
    cfg = layer.cfg
    return {
        "a_f_trivial_and_S_is_p": cfg.f.is_one() and not layer.infinity_in_s() and
        set(layer.finite_s()) == {cfg.p_place},
        "b_p_inert_in_hilbert": True,
        "c_p_coprime_hilbert_degree": True,
        "d_p_coprime_deg_p": cfg.p_place.degree % cfg.char != 0,
    }


def nabla_order(layer, zeta: ZetaData, sdiv: SDivisorData) -> NablaOrder:
    """p-part order of nabla_S^(n) from the appendix exact sequences.

    Supported case: a single place above p (hypotheses (a)-(b)), where
    Div^0_S = 0, X_S = 0, Pic^0_S = Pic^0 and the order is the p-part of h
    times |Z_p/d_S| (the latter trivial exactly under hypothesis (d)).
    """
    hyp = evaluate_hypotheses(layer)
    if not hyp["a_f_trivial_and_S_is_p"]:
        raise ConfigurationRefused(
            "nabla bookkeeping requires hypothesis (a): f = (1) and S = {p}")
    if sdiv.x_rank != 0:
        raise ConfigurationRefused("nabla bookkeeping requires a single place above p")
    p = layer.field.p
    h = zeta.h
    v_h = 0
    while h % p == 0:
        h //= p
        v_h += 1
    return NablaOrder(hypotheses=hyp, total_p_exponent=v_h + sdiv.zp_mod_ds_exponent)


# ---------------------------------------------------------------------------
# the Frobenius characteristic polynomial on T_p(M_S)
# ---------------------------------------------------------------------------


def tate_charpoly(layer, zeta: ZetaData, sdiv: SDivisorData):
    """det(1 - gamma^{-1} u | T_p(M_S)) = P_J(u) * prod_w (1 - u^{d_w})/(1-u),
    as an integer polynomial in u."""
    if layer.exceptional_table()[INFINITY][0] != 1:
        raise ConfigurationRefused("constant-field extension detected; unsupported")
    poly = list(zeta.numerator)
    for dw in sdiv.degrees:
        f = [0] * (dw + 1)
        f[0], f[dw] = 1, -1
        poly = zpoly.mul(poly, f)
    return zpoly.exact_div(poly, [1, -1])


def sigma_factor_at_one(layer, x):
    """x W(1), W(1) = prod_{v in Sigma} (1 - q^{d_v} sigma_v^{-1}) the Sigma
    factor of Theta at u = 1, for x a Z[G] coefficient list (group_index
    order), exactly: (x sigma^{-1})[t] = x[t sigma], one translation row per
    Sigma place."""
    q = layer.field.q
    for v in layer.sigma:
        row, c = translation(layer.group, layer.frobenius(v)), q ** v.degree
        x = [a - c * x[r] for a, r in zip(x, row)]
    return x


def sigma_factor_norm(layer):
    """The norm of the Sigma factor, prod_v (1 - (qu)^{d_v f_v})^{|G|/f_v} in
    Z[u], f_v the order of sigma_v: chi(sigma_v^{-1}) runs over the f_v-th
    roots of unity, each |G|/f_v times, and prod_{zeta^f = 1} (1 - zeta T)
    = 1 - T^f."""
    group, q = layer.group, layer.field.q
    out = [1]
    for v in layer.sigma:
        f = group.element_order(layer.frobenius(v))
        e = v.degree * f
        factor = [1] + [0] * (e - 1) + [-(q ** e)]
        for _ in range(group.order // f):
            out = zpoly.mul(out, factor)
    return out


def charpoly_theta_report(layer, theta_result, zeta: ZetaData, sdiv: SDivisorData) -> dict:
    """Per-character comparison of the charpoly with Theta, at the level of
    group-ring norms.

    Exact identity: N(Theta_{S,Sigma})(u) * (1 - qu) = Q(u) * N(Sigma-factor)(u)
    in Z[u], where N is the product over all characters (sigma_factor_norm
    for the Sigma factor) and Q the charpoly; first_mismatch_degree is the
    least u-degree where the two sides differ (None when they agree).  The
    discrepancy factor W = N(Sigma)/(1-qu) is certified as a unit of
    Z/p^k[u]/(u^M), (k, M) = CHARPOLY_PRECISION, the PolyGroupRing of
    h = u^M and the trivial group.
    """
    k, M = CHARPOLY_PRECISION
    p, q = layer.field.p, layer.field.q
    Q = tate_charpoly(layer, zeta, sdiv)
    R = character_norm(layer.group, [theta_result.chi_poly(chi)
                                     for chi in characters(layer.group)])
    NS = sigma_factor_norm(layer)

    diff = zpoly.sub(zpoly.mul(R, [1, -q]), zpoly.mul(Q, NS))

    ring = PolyGroupRing(p, k, (0,) * M + (1,), TRIVIAL_GROUP)

    def series(coeffs):  # Z[u] -> Z/p^k[u]/(u^M)
        return ring.from_vec((list(coeffs) + [0] * M)[:M])

    ok_q, q_inv = is_unit(series(Q), ring)
    unit_certified = pinned_matches = False
    if ok_q:
        ratio = ring.mul(series(R), q_inv)
        unit_certified = is_unit(ratio, ring)[0]
        # the pinned discrepancy: N(Sigma)/(1 - qu)
        ok_d, d_inv = is_unit(series([1, -q]), ring)
        pinned = ring.mul(series(NS), d_inv) if ok_d else None
        pinned_matches = pinned is not None and ratio == pinned
    return {
        "exact_identity": not diff,
        "first_mismatch_degree": next((d for d, c in enumerate(diff) if c), None),
        "unit_certified": unit_certified,
        "pinned_discrepancy_matches": pinned_matches,
    }
