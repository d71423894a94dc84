"""The equivariant L-polynomial engine.

Theta_{S,Sigma}(u) = prod_{v in Sigma} (1 - sigma_v^{-1} (qu)^{d_v})
                   * prod_{v not in S} (1 - sigma_v^{-1} u^{d_v})^{-1},

the second product over all places of k = F_q(theta) outside S, including
the infinite place (with trivial Frobenius) when it is not in S.  The
product converges coefficientwise: the u^j coefficient only sees places of
degree <= j, so computing with places of degree <= D gives the exact
coefficients through degree D.  Polynomiality is certified empirically on
the window (bound, D + 2]: the Euler series through D must vanish in
(bound, D], and the divisor-sum series, an independent computation of the
same Dirichlet series, must equal it through D and vanish in (D, D + 2].

Theta is kept once, as ThetaResult.theta: the coefficients of u^0 ..
u^bound of the Euler series, each a flat coefficient list of Z[G] in
grouprings.group_index order, with trailing zero coefficients dropped.  The
series above the bound is certified and dropped; special_value sums the
coefficient lists into Theta(1), and to_json writes them by group element.

chi(Theta) has one store, ThetaResult.chi_theta: theta evaluates it once
per rational character orbit (grouprings.character_orbits), with one call
of grouprings.apply_character on the whole of Theta.  chi^a(Theta) =
sigma_a(chi(Theta)) and ker chi^a = ker chi, so the conductor, the split
count, the degree of chi(Theta), its vanishing order at u = 1 and whether
chi(Theta(1)) = 0 are read once per orbit, and listed for every character.
ThetaResult.chi_poly reads an orbit rep off the store and evaluates any
other character directly, never by conjugation and without keeping the
result: only the per-character Euler-product cross-check, the norm of Theta
in the charpoly verdict (geometry) and `ctower lpoly` ask for every
character.  No Z[G] product is formed:
the Euler series multiplies by group elements, along one row
(grouprings.translation) per Frobenius class, and no table is built.

sigma_factor_unit certifies each Sigma factor a unit of Z/p^k[u]/(u^M)[G]
(grouprings.PolyGroupRing with h = u^M), at the pinned precision
SIGMA_UNIT_PRECISION: its constant term is one, so its inverse is the
geometric series of a nilpotent, and no elimination runs.
"""

from __future__ import annotations

import itertools as it
from collections import Counter
from operator import attrgetter

from . import zpoly
from .ffpoly import FqPoly, INFINITY, is_infinite, irreducibles_of_degree
from .grouprings import (
    Character,
    PolyGroupRing,
    _index_map,
    apply_character,
    character_orbits,
    characters,
    from_mapping,
    group_index,
    translation,
)

PER_CHARACTER_PRODUCT_MAX_ORDER = 8
DEFAULT_EXTRA_DEGREE = 4
SIGMA_UNIT_PRECISION = (6, 6)  # (k, M) of the Sigma-factor unit witnesses


class StabilizationError(ArithmeticError):
    """A coefficient above the predicted polynomial degree is nonzero."""


class PoleError(ArithmeticError):
    """Sigma fails to cancel a pole of the trivial-character component."""


class EulerFactor:
    """One local factor of the product defining Theta.

    mode "S-inverse": contributes (1 - sigma^{-1} u^d)^{-1} (a place off S);
    mode "Sigma-forward": contributes (1 - sigma^{-1} (qu)^d) (a smoothing
    place in Sigma).  A value: equal fields give equal factors.
    """

    __slots__ = ("degree", "frobenius", "mode")

    def __init__(self, degree: int, frobenius: tuple, mode: str):
        self.degree = degree
        self.frobenius = frobenius
        self.mode = mode  # "S-inverse" | "Sigma-forward"

    def __eq__(self, other):
        return isinstance(other, EulerFactor) and (self.degree, self.frobenius, self.mode) == \
            (other.degree, other.frobenius, other.mode)

    def __hash__(self):
        return hash((self.degree, self.frobenius, self.mode))


def euler_factors(layer, max_degree: int):
    """All Euler factors entering Theta up to the given degree: the inverse
    factors at places off S (including infinity when it is off S), then the
    Sigma smoothing factors."""
    s_gens = {v.gen for v in layer.finite_s()}
    out = []
    if not layer.infinity_in_s():
        out.append(EulerFactor(1, layer.frobenius(INFINITY), "S-inverse"))
    for d in range(1, max_degree + 1):
        for pl in irreducibles_of_degree(layer.field, d):
            if pl.gen in s_gens:
                continue
            out.append(EulerFactor(d, layer.frobenius(pl), "S-inverse"))
    for v in sorted(layer.sigma, key=lambda v: v.gen.sort_key()):
        out.append(EulerFactor(v.degree, layer.frobenius(v), "Sigma-forward"))
    return out


def character_conductor(layer, chi: Character):
    """Minimal level m' = f' p^j through which chi factors, by descent over
    the layer's candidate levels.  Returns the monic polynomial m'."""
    if chi.is_trivial():
        return FqPoly.one(layer.field)
    for m_prime in layer.conductor_levels:
        if _chi_factors_through(layer, chi, m_prime):
            return m_prime
    raise ArithmeticError("character does not factor through its own level")  # unreachable


def _chi_factors_through(layer, chi: Character, m_prime: FqPoly) -> bool:
    """chi trivial on ker(G_n -> (A/m')^x / F_q^x), whose classes the layer
    enumerates once per level."""
    return m_prime.degree == layer.modulus.degree or chi.trivial_on(layer.level_kernel(m_prime))


def per_character_degree_bound(layer, chi: Character) -> int:
    """Degree bound for chi(Theta): Sigma degrees + deg(cond chi) +
    degrees of finite S-places prime to the conductor - 2 + [infinity in S]."""
    sig = sum(v.degree for v in layer.sigma)
    m_chi = character_conductor(layer, chi)
    extra = 0
    for v in layer.finite_s():
        if m_chi.degree < 1 or not (m_chi % v.gen).is_zero():
            extra += v.degree
    return sig + m_chi.degree + extra - 2 + (1 if layer.infinity_in_s() else 0)


def residue_degree(layer) -> int:
    """deg M, M the layer modulus times the finite S-places prime to it."""
    m = layer.modulus
    return m.degree + sum(v.degree for v in layer.finite_s() if not (m % v.gen).is_zero())


def degree_bound(layer) -> int:
    """Global polynomial degree bound for Theta (max over characters)."""
    sig = sum(v.degree for v in layer.sigma)
    return sig + residue_degree(layer) - 2 + (1 if layer.infinity_in_s() else 0)


class ThetaResult:
    __slots__ = ("layer", "D", "bound", "theta", "tail", "per_char_degrees", "orbit_rep",
                 "chi_theta", "checks")

    def __init__(self, layer, D: int, bound: int, theta: list, tail: list,
                 per_char_degrees: dict, orbit_rep: dict, chi_theta: dict, checks: dict):
        self.layer = layer
        self.D = D
        self.bound = bound
        # the coefficient lists of Z[G] of u^0 .. u^bound, trailing zeros dropped
        self.theta = theta
        self.tail = tail  # divisor-sum coefficients at D + 1, D + 2 (None without the cross-check)
        self.per_char_degrees = per_char_degrees
        self.orbit_rep = orbit_rep  # chi.exps -> rep of its rational orbit, in characters order
        # rep.exps -> coefficient list of chi(Theta)(u) (trailing zeros dropped),
        # for every orbit rep in characters(group) order; not part of to_json
        self.chi_theta = chi_theta
        self.checks = checks

    def special_value(self) -> list:
        """Theta(1) in Z[G]: the sum of the coefficient lists of Theta (the
        zero list of the group when Theta = 0)."""
        return [sum(col) for col in zip([0] * self.layer.group.order, *self.theta)]

    def chi_poly(self, chi: Character) -> list:
        """chi(Theta)(u), trailing zeros dropped: the stored list of an orbit
        rep, and any other character evaluated on Theta directly."""
        stored = self.chi_theta.get(chi.exps)
        return apply_character(chi, self.theta) if stored is None else stored

    def chi_at_one(self, chi: Character):
        """chi(Theta(1)): evaluation is linear, so this is the ring sum of
        the coefficients of chi(Theta)."""
        ring = chi.ring
        total = ring.zero
        for c in self.chi_poly(chi):
            total = ring.add(total, c)
        return total

    def certify_tail(self):
        """Certify the window (D, D + 2] on the divisor-sum series, a
        computation independent of the Euler product through D; raises
        StabilizationError at the first nonzero coefficient."""
        _certify_vanishing(self.tail, self.D + 1, self.bound)

    def to_json(self):
        """Theta with each coefficient of u a dict "e1,e2,..." -> its nonzero
        coefficient at the group element of exponents e."""
        group = self.layer.group
        elems, _ = group_index(group)
        return {
            "D": self.D,
            "bound": self.bound,
            "stabilization_ok": True,
            "theta": {"group_orders": list(group.orders),
                      "coeffs_by_degree": [{",".join(map(str, g)): v
                                            for g, v in zip(elems, c) if v}
                                           for c in self.theta]},
            "checks": {k: bool(v) for k, v in self.checks.items()},
        }


def _series_mul_inverse_factor(series, row, d, D):
    # multiply by (1 - sigma^{-1} u^d)^{-1}, row = translation(group, sigma^{-1}):
    # ascending prefix accumulation over the nonzero coefficients
    ids = range(len(row))
    for i in range(d, D + 1):
        src, dst = series[i - d], series[i]
        for j in it.compress(ids, src):
            dst[row[j]] += src[j]


def _series_mul_forward_factor(series, row, d, D, scale):
    # multiply by (1 - scale * sigma^{-1} u^d): descending, uses old values
    ids = range(len(row))
    for i in range(D, d - 1, -1):
        src, dst = series[i - d], series[i]
        for j in it.compress(ids, src):
            dst[row[j]] -= scale * src[j]


def euler_series(layer, D: int):
    """Truncated series for Theta_{S,Sigma} through degree D: D + 1
    coefficient lists of Z[G], in group_index order.  The factors commute and
    every coefficient is exact, so they are taken in Frobenius order, and
    the row of each class (grouprings.translation) is built once."""
    group = layer.group
    q = layer.field.q
    series = [[0] * group.order for _ in range(D + 1)]
    series[0][0] = 1
    by_class = attrgetter("frobenius")
    for frob, facs in it.groupby(sorted(euler_factors(layer, D), key=by_class), by_class):
        row = translation(group, group.inv(frob))
        for fac in facs:
            if fac.mode == "S-inverse":
                _series_mul_inverse_factor(series, row, fac.degree, D)
            else:
                _series_mul_forward_factor(series, row, fac.degree, D, q ** fac.degree)
    return series


def divisor_sum_series(layer, D: int):
    """Independent recomputation: sum over effective divisors off S.

    The u^j coefficient of prod_{v not in S} (1 - sigma_v^{-1} u^{d_v})^{-1}
    is sum over effective divisors of degree j supported off S of the inverse
    Artin class; finite parts are monic polynomials coprime to the finite
    S-places, infinite parts contribute trivially when infinity is off S.
    Sigma factors are then multiplied in polynomially.

    Both the class and the coprimality of a monic a depend only on a mod M,
    M the layer modulus times the finite S-places prime to it.  For
    j >= deg M the monics of degree j are a = M t + r with t monic of degree
    j - deg M and deg r < deg M, so each residue class mod M is hit by
    exactly q^(j - deg M) of them (Rosen, Number Theory in Function Fields,
    ch. 4).  So only the monics of degree <= deg M are enumerated, and
    base[j] = q^(j - deg M) base[deg M] above.  The divisor part reads
    neither the place list nor a Frobenius.
    """
    field = layer.field
    group = layer.group
    q = field.q
    s_gens = [v.gen for v in layer.finite_s()]
    top = residue_degree(layer)
    base = [[0] * group.order for _ in range(D + 1)]
    base[0][0] = 1
    for d in range(1, min(D, top) + 1):
        counts = Counter()
        for tail in it.product(range(q), repeat=d):
            a = FqPoly(field, tail + (1,))
            if not any((a % g).is_zero() for g in s_gens):
                counts[layer.class_of(a)] += 1
        base[d] = from_mapping(group, {group.inv(c): n for c, n in counts.items()})
    for d in range(top + 1, D + 1):
        scale = q ** (d - top)
        base[d] = [scale * c for c in base[top]]
    if not layer.infinity_in_s():
        # multiply by (1 - u)^{-1} for the (trivial-Frobenius) infinite place
        _series_mul_inverse_factor(base, translation(group, group.identity), 1, D)
    for v in sorted(layer.sigma, key=lambda v: v.gen.sort_key()):
        row = translation(group, group.inv(layer.frobenius(v)))
        _series_mul_forward_factor(base, row, v.degree, D, q ** v.degree)
    return base


def trivial_character_symbolic(layer):
    """chi_0(Theta) as an exact rational-function cancellation in Z[u].

    numerator = prod_Sigma (1 - (qu)^{d_v}) * prod_{v in S} (1 - u^{d_v}),
    denominator = (1 - u)(1 - qu); raises PoleError if division is inexact.
    """
    q = layer.field.q
    num = [1]
    for v in layer.sigma:
        f = [0] * (v.degree + 1)
        f[0], f[v.degree] = 1, -(q ** v.degree)
        num = zpoly.mul(num, f)
    for v in layer.S:
        d = 1 if is_infinite(v) else v.degree
        f = [0] * (d + 1)
        f[0], f[d] = 1, -1
        num = zpoly.mul(num, f)
    den = zpoly.mul([1, -1], [1, -q])
    try:
        return zpoly.exact_div(num, den)
    except ArithmeticError:
        raise PoleError("Sigma fails to cancel the pole in the trivial-character component") from None


def per_character_euler_product(layer, chi: Character, D: int):
    """chi(Theta) through u^D computed factor by factor from the Euler
    factors, an independent path to ThetaResult.chi_poly.  The series runs
    in Z[x]/(x^N - 1), N = exp(G), where chi(g) = x^(chi.log_value(g)), so a
    product with chi(sigma^-1) rotates a coefficient vector; each
    coefficient of u is reduced mod Phi_N once at the end, and trailing
    zeros are dropped."""
    ring = chi.ring
    n, q, group = ring.n, layer.field.q, layer.group
    series = [[0] * n for _ in range(D + 1)]
    series[0][0] = 1
    for fac in euler_factors(layer, D):
        # src[s:] + src[:s] is src times x^(n - s) = chi(sigma^-1)
        s, d = n - chi.log_value(group.inv(fac.frobenius)), fac.degree
        if fac.mode == "S-inverse":
            for i in range(d, D + 1):
                src = series[i - d]
                series[i] = [a + b for a, b in zip(series[i], src[s:] + src[:s])]
        else:
            c = q ** d
            for i in range(D, d - 1, -1):
                src = series[i - d]
                series[i] = [a - c * b for a, b in zip(series[i], src[s:] + src[:s])]
    out = [ring.reduce(c) for c in series]
    while out and ring.is_zero(out[-1]):
        out.pop()
    return out


def _first_difference(a: list, b: list) -> int:
    """The first index at which the lists a and b differ, a missing entry
    differing from every present one."""
    return next(i for i in range(max(len(a), len(b))) if a[i:i + 1] != b[i:i + 1])


def _certify_vanishing(coeffs, start: int, bound: int):
    """Raise StabilizationError at the first nonzero coeffs[i], of degree start + i."""
    for i, c in enumerate(coeffs, start):
        if any(c):
            raise StabilizationError(f"nonzero coefficient at degree {i} > bound {bound}")


def theta(layer, D: int = None, cross_check: bool = True) -> ThetaResult:
    """Compute Theta_{S,Sigma}^{(n)}(u) with a stabilization certificate.

    The Euler series runs through D (default bound + DEFAULT_EXTRA_DEGREE);
    the cross-check runs the divisor-sum series through D + 2 and keeps its
    coefficients above D as ThetaResult.tail, for certify_tail.

    Raises StabilizationError if any coefficient above the degree bound is
    nonzero within the computed window, and PoleError if the trivial
    character component is not polynomial.
    """
    bound = degree_bound(layer)
    if D is None:
        D = bound + DEFAULT_EXTRA_DEGREE
    if D < bound:
        raise ValueError(f"enumeration degree {D} is below the bound {bound}")
    series = euler_series(layer, D)
    _certify_vanishing(series[bound + 1:], bound + 1, bound)
    tp = series[: bound + 1]
    while tp and not any(tp[-1]):
        tp.pop()

    checks = {}
    per_char_degrees = {}
    chi_theta = {}
    chars = characters(layer.group)
    reps, orbit = character_orbits(chars)
    orbit_rep = {chi.exps: reps[orbit[chi.exps]] for chi in chars}
    for chi in chars:
        rep = orbit_rep[chi.exps]
        if rep is not chi:  # met after its rep, which comes first in chars
            per_char_degrees[chi.exps] = per_char_degrees[rep.exps]
            continue
        coeffs = chi_theta[chi.exps] = apply_character(chi, tp)
        dchi = len(coeffs) - 1 if coeffs else -1
        bchi = per_character_degree_bound(layer, chi)
        per_char_degrees[chi.exps] = (dchi, bchi)
        if dchi > bchi:
            raise StabilizationError(
                f"character {chi.exps}: degree {dchi} exceeds its bound {bchi}")
    tr = ThetaResult(layer=layer, D=D, bound=bound, theta=tp, tail=None,
                     per_char_degrees=per_char_degrees, orbit_rep=orbit_rep,
                     chi_theta=chi_theta, checks=checks)

    if cross_check:
        other = divisor_sum_series(layer, D + 2)
        other, tr.tail = other[: D + 1], other[D + 1:]
        checks["divisor_sum_equal"] = other == series
        if not checks["divisor_sum_equal"]:
            raise ArithmeticError("Euler product and divisor-sum series disagree "
                                  f"at degree {_first_difference(series, other)}")
        sym = trivial_character_symbolic(layer)
        triv = [sum(c) for c in tp]
        while triv and triv[-1] == 0:
            triv.pop()
        checks["trivial_character_symbolic_equal"] = sym == triv
        if not checks["trivial_character_symbolic_equal"]:
            raise ArithmeticError("symbolic trivial-character component disagrees "
                                  f"at u^{_first_difference(sym, triv)}")
        if layer.group.order <= PER_CHARACTER_PRODUCT_MAX_ORDER:
            bad = next((chi for chi in chars if per_character_euler_product(layer, chi, D)
                        != tr.chi_poly(chi)), None)
            checks["per_character_product_equal"] = bad is None
            if bad is not None:
                raise ArithmeticError("per-character Euler product disagrees "
                                      f"at character {list(bad.exps)}")

    return tr


def order_of_vanishing_check(layer, tr: ThetaResult, chi: Character):
    """(computed multiplicity of u = 1 in chi(Theta), predicted count).

    predicted = layer.split_count(chi), the number of v in S with chi
    trivial on the decomposition group of v; the formula only applies to
    non-trivial characters.  The multiplicity is read off the chi(Theta) of
    the rational-orbit rep of chi in tr: chi(Theta) is its conjugate, and
    sigma_a fixes u = 1 and keeps zero.
    """
    if chi.is_trivial():
        raise ValueError("the order-of-vanishing formula requires a non-trivial character")
    ring = chi.ring
    coeffs = tr.chi_theta[tr.orbit_rep[chi.exps].exps]
    mult = 0
    while coeffs:
        # the last partial sum is p(1); when it vanishes, exact division by
        # (1 - u) is synthetic: p(u) = (1-u) * q(u) with q_i = sum_{j <= i} p_j
        sums = list(it.accumulate(coeffs, ring.add))
        if not ring.is_zero(sums[-1]):
            break
        coeffs = sums[:-1]
        mult += 1
    return mult, layer.split_count(chi)


def order_of_vanishing_table(layer, tr: ThetaResult):
    """(chi, mult, predicted) for every non-trivial character, in
    characters(group) order: order_of_vanishing_check runs once per rational
    orbit, whose characters share both numbers."""
    checked, table = {}, []
    for chi in characters(layer.group):
        if not chi.is_trivial():
            rep = tr.orbit_rep[chi.exps]
            if rep.exps not in checked:
                checked[rep.exps] = order_of_vanishing_check(layer, tr, rep)
            table.append((chi, *checked[rep.exps]))
    return table


def sigma_factor_unit(layer, v) -> bool:
    """Whether x = 1 - sigma_v^{-1} (qu)^{d_v} is certified a unit of
    Z/p^k[u]/(u^M)[G] (PolyGroupRing with h = u^M), (k, M) =
    SIGMA_UNIT_PRECISION: its inverse is the geometric series of the
    nilpotent n = 1 - x, whose product with x is checked to be 1."""
    if v not in layer.sigma:
        raise ValueError("v must lie in Sigma")
    k, M = SIGMA_UNIT_PRECISION
    p, q = layer.field.p, layer.field.q
    group = layer.group
    ring = PolyGroupRing(p, k, (0,) * M + (1,), group)
    n = ring.zero
    if v.degree < M:
        # block sigma_v^-1: the image of the identity under translation by it
        sigma_inv = translation(group, group.inv(layer.frobenius(v)))[0]
        n[sigma_inv * M + v.degree] = q ** v.degree % ring.pk
    x = ring.sub(ring.one, n)
    inv, power = ring.one, n
    for _ in range(M - 1):
        inv = ring.add(inv, power)
        power = ring.mul(power, n)
    return ring.mul(x, inv) == ring.one


class FunctorialityReport:
    __slots__ = ("equal", "first_mismatch_degree")

    def __init__(self, equal: bool, first_mismatch_degree: int = None):
        self.equal = equal
        self.first_mismatch_degree = first_mismatch_degree


def functoriality_check(tr_src: ThetaResult, tr_tgt: ThetaResult, layer_map) -> FunctorialityReport:
    """Project Theta at the higher layer coefficientwise along layer_map and
    compare exactly, a missing coefficient being zero."""
    src, tgt, group = tr_src.theta, tr_tgt.theta, tr_tgt.layer.group
    imap = _index_map(tr_src.layer.group, layer_map.apply, group)
    for i in range(max(len(src), len(tgt))):
        projected = [0] * group.order
        for j, v in zip(imap, src[i] if i < len(src) else ()):
            projected[j] += v
        if projected != (tgt[i] if i < len(tgt) else [0] * group.order):
            return FunctorialityReport(equal=False, first_mismatch_degree=i)
    return FunctorialityReport(equal=True)
