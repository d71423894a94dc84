"""The equivariant L-polynomial engine.

Theta_{S,Sigma}(u) = prod_{v in Sigma} (1 - sigma_v^{-1} (qu)^{d_v})
                   * prod_{v not in S} (1 - sigma_v^{-1} u^{d_v})^{-1},

the second product over all places of k = F_q(theta) outside S, including
the infinite place (with trivial Frobenius) when it is not in S.  The
product converges coefficientwise: the u^j coefficient only sees places of
degree <= j, so computing with places of degree <= D gives the exact
coefficients through degree D.  Polynomiality is certified empirically: all
coefficients in (bound, D] must vanish.

theta is the one place where chi(Theta) is computed: it evaluates every
character once and keeps the table in ThetaResult.chi_theta.  That table is
read by the per-character Euler-product cross-check, by
order_of_vanishing_check, by the chi(Theta(1)) test of the non-zero-divisor
shadow (tower), by the charpoly norm (geometry) and by `ctower lpoly`.
"""

from __future__ import annotations

import itertools as it
from dataclasses import dataclass, field as dc_field

from . import zpoly
from .ffpoly import FqPoly, INFINITY, factor as fq_factor, is_infinite, irreducibles_of_degree
from .grouprings import (
    Character,
    GroupRingElem,
    ThetaPoly,
    TruncPolyRing,
    ZpkGroupRing,
    characters,
    group_index,
    invert_one_plus_nilpotent_u,
    mul_table,
)

PER_CHARACTER_PRODUCT_MAX_ORDER = 8
DEFAULT_EXTRA_DEGREE = 4


class StabilizationError(ArithmeticError):
    """A coefficient above the predicted polynomial degree is nonzero."""


class PoleError(ArithmeticError):
    """Sigma fails to cancel a pole of the trivial-character component."""


@dataclass(frozen=True)
class EulerFactor:
    """One local factor of the product defining Theta.

    mode "S-inverse": contributes (1 - sigma^{-1} u^d)^{-1} (a place off S);
    mode "Sigma-forward": contributes (1 - sigma^{-1} (qu)^d) (a smoothing
    place in Sigma).
    """

    place: object
    degree: int
    frobenius: tuple
    mode: str  # "S-inverse" | "Sigma-forward"


def euler_factors(layer, max_degree: int):
    """All Euler factors entering Theta up to the given degree: the inverse
    factors at places off S (including infinity when it is off S), then the
    Sigma smoothing factors."""
    s_gens = {v.gen for v in layer.finite_s()}
    out = []
    if not layer.infinity_in_s():
        out.append(EulerFactor(INFINITY, 1, layer.frobenius(INFINITY), "S-inverse"))
    for d in range(1, max_degree + 1):
        for pl in irreducibles_of_degree(layer.field, d):
            if pl.gen in s_gens:
                continue
            out.append(EulerFactor(pl, d, layer.frobenius(pl), "S-inverse"))
    for v in sorted(layer.sigma, key=lambda v: v.gen.sort_key()):
        out.append(EulerFactor(v, v.degree, layer.frobenius(v), "Sigma-forward"))
    return out


def character_conductor(layer, chi: Character):
    """Minimal level m' = f' p^j through which chi factors, by descent over
    the divisors of f p^(n+1).  Returns the monic polynomial m'."""
    if chi.is_trivial():
        return FqPoly.one(layer.field)
    cfg = layer.cfg
    F = cfg.field
    f_divs = [FqPoly.one(F)]
    if cfg.f.degree >= 1:
        fac = fq_factor(cfg.f)
        f_divs = []
        def expand(i, cur):
            if i == len(fac):
                f_divs.append(cur)
                return
            g, e = fac[i]
            pw = FqPoly.one(F)
            for j in range(e + 1):
                expand(i + 1, cur * pw)
                pw = pw * g
        expand(0, FqPoly.one(F))
    candidates = []
    for fd in f_divs:
        for j in range(layer.n + 2):
            candidates.append(fd * cfg.p_place.gen ** j)
    candidates.sort(key=FqPoly.sort_key)
    for m_prime in candidates:
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


def degree_bound(layer) -> int:
    """Global polynomial degree bound for Theta (max over characters)."""
    sig = sum(v.degree for v in layer.sigma)
    extra = 0
    for v in layer.finite_s():
        if not (layer.modulus % v.gen).is_zero():
            extra += v.degree
    return sig + layer.modulus.degree + extra - 2 + (1 if layer.infinity_in_s() else 0)


@dataclass
class ThetaResult:
    layer: object
    D: int
    bound: int
    theta: ThetaPoly
    series: list  # raw truncated series to degree D: D + 1 coefficient lists of Z[G]
    stabilization_ok: bool
    per_char_degrees: dict
    # chi.exps -> coefficient list of chi(Theta)(u) (trailing zeros dropped),
    # for every character in characters(group) order; not part of to_json
    chi_theta: dict
    checks: dict = dc_field(default_factory=dict)

    def special_value(self) -> GroupRingElem:
        return self.theta.evaluate_at_one()

    def chi_at_one(self, chi: Character):
        """chi(Theta(1)): evaluation is linear, so this is the ring sum of the
        stored coefficients of chi(Theta)."""
        ring = chi.ring
        total = ring.zero
        for c in self.chi_theta[chi.exps]:
            total = ring.add(total, c)
        return total

    def to_json(self):
        return {
            "D": self.D,
            "bound": self.bound,
            "stabilization_ok": self.stabilization_ok,
            "theta": self.theta.to_json(),
            "checks": {k: bool(v) for k, v in self.checks.items()},
        }


def _series_mul_inverse_factor(series, row, d, D):
    # multiply by (1 - sigma^{-1} u^d)^{-1}, row = mul_table(group)[sigma^{-1}]:
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
    coefficient lists of Z[G], in group_index order."""
    group = layer.group
    table = mul_table(group)
    _, index = group_index(group)
    q = layer.field.q
    series = [[0] * group.order for _ in range(D + 1)]
    series[0][0] = 1
    for fac in euler_factors(layer, D):
        row = table[index[group.inv(fac.frobenius)]]
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
    """
    field = layer.field
    group = layer.group
    table = mul_table(group)
    _, index = group_index(group)
    q = field.q
    s_gens = [v.gen for v in layer.finite_s()]
    base = [[0] * group.order for _ in range(D + 1)]
    base[0][0] = 1
    for d in range(1, D + 1):
        target = base[d]
        for tail in it.product(range(q), repeat=d):
            a = FqPoly(field, tail + (1,))
            if any((a % g).is_zero() for g in s_gens):
                continue
            target[index[group.inv(layer.class_of(a))]] += 1
    if not layer.infinity_in_s():
        # multiply by (1 - u)^{-1} for the (trivial-Frobenius) infinite place
        _series_mul_inverse_factor(base, table[0], 1, D)
    for v in sorted(layer.sigma, key=lambda v: v.gen.sort_key()):
        row = table[index[group.inv(layer.frobenius(v))]]
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
    """chi(Theta) computed directly in the cyclotomic ring (independent path)."""
    ring = chi.ring
    series = [ring.zero] * (D + 1)
    series = [list(c) for c in series]
    series[0] = list(ring.one)
    q = layer.field.q

    def mul_inverse(zeta, d):
        for i in range(d, D + 1):
            term = ring.mul(tuple(series[i - d]), zeta)
            series[i] = list(ring.add(tuple(series[i]), term))

    def mul_forward(zeta, d, scale):
        for i in range(D, d - 1, -1):
            term = ring.scale(-scale, ring.mul(tuple(series[i - d]), zeta))
            series[i] = list(ring.add(tuple(series[i]), term))

    group = layer.group
    for fac in euler_factors(layer, D):
        zeta = chi.value(group.inv(fac.frobenius))
        if fac.mode == "S-inverse":
            mul_inverse(zeta, fac.degree)
        else:
            mul_forward(zeta, fac.degree, q ** fac.degree)
    out = [tuple(c) for c in series]
    while out and ring.is_zero(out[-1]):
        out.pop()
    return out


def stabilized_theta(layer, D: int = None):
    """(bound, D, series, Theta): the Euler series through degree D (default
    bound + DEFAULT_EXTRA_DEGREE), certified to vanish in (bound, D], and the
    ThetaPoly of its coefficients through the bound.

    Raises StabilizationError if any coefficient above the degree bound is
    nonzero within the computed window.
    """
    bound = degree_bound(layer)
    if D is None:
        D = bound + DEFAULT_EXTRA_DEGREE
    if D < bound:
        raise ValueError(f"enumeration degree {D} is below the bound {bound}")
    series = euler_series(layer, D)
    for i in range(bound + 1, D + 1):
        if any(series[i]):
            raise StabilizationError(f"nonzero coefficient at degree {i} > bound {bound}")
    group = layer.group
    tp = ThetaPoly(group, [GroupRingElem(group, c) for c in series[: bound + 1]])
    return bound, D, series, tp


def theta(layer, D: int = None, cross_check: bool = True) -> ThetaResult:
    """Compute Theta_{S,Sigma}^{(n)}(u) with a stabilization certificate.

    Raises StabilizationError if any coefficient above the degree bound is
    nonzero within the computed window, and PoleError if the trivial
    character component is not polynomial.
    """
    bound, D, series, tp = stabilized_theta(layer, D)
    group = layer.group

    checks = {}
    per_char_degrees = {}
    chi_theta = {}
    chars = characters(group)
    for chi in chars:
        coeffs = chi_theta[chi.exps] = tp.apply_character(chi)
        dchi = len(coeffs) - 1 if coeffs else -1
        bchi = per_character_degree_bound(layer, chi)
        per_char_degrees[chi.exps] = (dchi, bchi)
        if dchi > bchi:
            raise StabilizationError(
                f"character {chi.exps}: degree {dchi} exceeds its bound {bchi}")

    if cross_check:
        other = divisor_sum_series(layer, D)
        checks["divisor_sum_equal"] = other == series
        if not checks["divisor_sum_equal"]:
            raise ArithmeticError("Euler product and divisor-sum series disagree")
        sym = trivial_character_symbolic(layer)
        triv = [c.augmentation() for c in tp.coeffs]
        while triv and triv[-1] == 0:
            triv.pop()
        checks["trivial_character_symbolic_equal"] = sym == triv
        if not checks["trivial_character_symbolic_equal"]:
            raise ArithmeticError("symbolic trivial-character component disagrees")
        if group.order <= PER_CHARACTER_PRODUCT_MAX_ORDER:
            ok = all(per_character_euler_product(layer, chi, D) == chi_theta[chi.exps]
                     for chi in chars)
            checks["per_character_product_equal"] = ok
            if not ok:
                raise ArithmeticError("per-character Euler product disagrees")

    return ThetaResult(layer=layer, D=D, bound=bound, theta=tp, series=series,
                       stabilization_ok=True, per_char_degrees=per_char_degrees,
                       chi_theta=chi_theta, checks=checks)


def order_of_vanishing_check(layer, tr: ThetaResult, chi: Character):
    """(computed multiplicity of u = 1 in chi(Theta), predicted count).

    predicted = layer.split_count(chi), the number of v in S with chi
    trivial on the decomposition group of v; the formula only applies to
    non-trivial characters.  The multiplicity is read off the chi(Theta)
    table of tr.
    """
    if chi.is_trivial():
        raise ValueError("the order-of-vanishing formula requires a non-trivial character")
    ring = chi.ring
    coeffs = tr.chi_theta[chi.exps]
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
    """(chi, mult, predicted) of order_of_vanishing_check for every
    non-trivial character, in characters(group) order."""
    return [(chi, *order_of_vanishing_check(layer, tr, chi))
            for chi in characters(layer.group) if not chi.is_trivial()]


@dataclass
class SigmaUnitWitness:
    place: object
    precision_k: int
    truncation_M: int
    element: object
    inverse: object
    verified: bool


def sigma_factor_unit(layer, v, k: int, M: int) -> SigmaUnitWitness:
    """Inverse of 1 - sigma_v^{-1} (qu)^{d_v} in Z/p^k[G][u]/(u^M) via the
    geometric series; the product with the original is checked to be 1."""
    if v not in layer.sigma:
        raise ValueError("v must lie in Sigma")
    p, q = layer.field.p, layer.field.q
    base = ZpkGroupRing(p, k, layer.group)
    ring = TruncPolyRing(base, M)
    sigma_inv = layer.group.inv(layer.frobenius(v))
    coeffs = [base.one] + [base.zero] * (M - 1)
    if v.degree < M:
        coeffs[v.degree] = base.scale_int(-(q ** v.degree), base.from_mapping({sigma_inv: 1}))
    x = ring.from_list(coeffs)
    ok, inv = invert_one_plus_nilpotent_u(ring, x)
    verified = ok and ring.equal(ring.mul(x, inv), ring.one)
    return SigmaUnitWitness(place=v, precision_k=k, truncation_M=M,
                            element=x, inverse=inv, verified=verified)


@dataclass
class FunctorialityReport:
    equal: bool
    first_mismatch_degree: int = None


def functoriality_check(tr_src: ThetaResult, tr_tgt: ThetaResult, layer_map) -> FunctorialityReport:
    """Project Theta at the higher layer coefficientwise and compare exactly."""
    projected = tr_src.theta.project(layer_map.apply, tr_tgt.layer.group)
    target = tr_tgt.theta
    n = max(len(projected.coeffs), len(target.coeffs))
    for i in range(n):
        if projected.coefficient(i) != target.coefficient(i):
            return FunctorialityReport(equal=False, first_mismatch_degree=i)
    return FunctorialityReport(equal=True)
