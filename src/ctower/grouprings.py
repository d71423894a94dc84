"""Exact group-ring algebra: Z[G] and Z/p^k[G] for finite abelian G,
characters with values in Z[x]/Phi_N(x), chi-components over Hensel-lifted
local rings, Fitting ideals, ideal equality, unit tests and non-zero-divisor
certificates.

GroupRingElem.apply_character is the one evaluator of a character on Z[G]: it
sums the coefficients by log value and reduces mod Phi_N once.  For Theta it
is called only by lfun.theta, which stores the table of chi(Theta) for every
character in its ThetaResult; the other verdicts read that table.

Every Z/p^k-linear question about a finite ring R -- units, ideal
membership, annihilators and the orders of finitely presented R-modules --
is asked of one matrix, mult_matrix(ring, rows), whose columns span the
submodule of R^g that the rows generate, and is answered from its Smith form
(snf).  The quotient order of x is the order of the 1 x 1 presentation [[x]].

An element of Z/p^k[G] (ZpkGroupRing) is the flat list of its |G|
coefficients, in the mixed-radix order of sorted(group.elements()), and
products read one index table per group (_mul_table).  Elements of Z[G]
(GroupRingElem: Theta and the Euler series) are dicts keyed by exponent
tuples; ZpkGroupRing.from_group_ring converts.

No floating point anywhere; every mod-p^k assertion carries its precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import zpoly
from .abelian import AbelianGroup
from .ffpoly import FqField, FqPoly, factor as fq_factor
from .snf import (
    hensel_lift_factors,
    zpk_cokernel_exponents,
    zpk_kernel,
    zpk_solve,
)

DEFAULT_PRECISION = 24


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficient tuple of Phi_n over Z (ascending)."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = zpoly.exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


class CyclotomicRing:
    """Z[x]/Phi_N(x): exact home for character values, N = exp(G)."""

    _interned = {}

    def __new__(cls, n: int):
        if n in cls._interned:
            return cls._interned[n]
        self = super().__new__(cls)
        self.n = n
        phi = cyclotomic_polynomial(n)
        self.phi = phi
        self.degree = len(phi) - 1
        # reduction table: x^j for degree <= j <= max(2*degree-2, n-1)
        red = {}
        # x^degree = -(phi minus leading)
        base = [-c for c in phi[:-1]]
        red[self.degree] = base
        top_needed = max(2 * self.degree - 2, n - 1)
        for j in range(self.degree + 1, top_needed + 1):
            prev = red[j - 1]
            shifted = [0] + prev[:-1]
            top = prev[-1]
            red[j] = [s + top * b for s, b in zip(shifted, base)]
        self._red = red
        cls._interned[n] = self
        return self

    @property
    def zero(self):
        return (0,) * self.degree

    @property
    def one(self):
        return (1,) + (0,) * (self.degree - 1)

    def from_int(self, c: int):
        return (c,) + (0,) * (self.degree - 1)

    def zeta_pow(self, j: int):
        j %= self.n
        vec = [0] * max(self.degree, j + 1)
        vec[j] = 1
        return self.reduce(vec)

    def reduce(self, vec):
        vec = list(vec)
        for j in range(len(vec) - 1, self.degree - 1, -1):
            c = vec[j]
            if c:
                for i, r in enumerate(self._red[j]):
                    vec[i] += c * r
            vec.pop()
        vec.extend([0] * (self.degree - len(vec)))
        return tuple(vec)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self.reduce(out)

    def scale(self, c: int, a):
        return tuple(c * x for x in a)

    def is_zero(self, a):
        return not any(a)

    def is_rational(self, a):
        return not any(a[1:])


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A character of a finite abelian group, valued in Z[x]/Phi_N."""

    group: AbelianGroup
    exps: tuple  # j_i mod o_i; chi(g_i) = zeta_N^(j_i * N / o_i)

    @property
    def ring(self) -> CyclotomicRing:
        return CyclotomicRing(self.group.exponent)

    @property
    def order(self) -> int:
        n = 1
        for j, o in zip(self.exps, self.group.orders):
            d = o // gcd(j, o)
            n = n * d // gcd(n, d)
        return n

    def is_trivial(self) -> bool:
        return all(j == 0 for j in self.exps)

    def log_value(self, elem) -> int:
        """chi(elem) = zeta_N^(log_value(elem))."""
        N = self.group.exponent
        total = 0
        for j, e, o in zip(self.exps, elem, self.group.orders):
            total += j * e * (N // o)
        return total % N

    def value(self, elem):
        return self.ring.zeta_pow(self.log_value(elem))

    def inverse(self) -> "Character":
        return Character(self.group, tuple((-j) % o for j, o in zip(self.exps, self.group.orders)))

    def trivial_on(self, elems) -> bool:
        return all(self.log_value(e) == 0 for e in elems)

    def power(self, t: int) -> "Character":
        return Character(self.group, tuple((j * t) % o for j, o in zip(self.exps, self.group.orders)))

    def restrict(self, indices) -> "Character":
        """Restriction to the sub-product on the given coordinates (e.g. the
        Delta-part of a layer group)."""
        sub = AbelianGroup(tuple(self.group.orders[i] for i in indices))
        return Character(sub, tuple(self.exps[i] for i in indices))


def characters(group: AbelianGroup):
    """All |G| characters, lexicographically ordered by exponent tuples.

    Orthogonality sum_g chi(g) psi(g^-1) = |G| [chi == psi] holds exactly in
    Z[x]/Phi_N and is exercised by the test suite.
    """
    return [Character(group, exps) for exps in
            sorted(itertools.product(*(range(o) for o in group.orders)))]


def conjugacy_orbit_reps(chars, p: int):
    """Representatives of the Gal(Q_p-bar/Q_p)-orbits chi ~ chi^p."""
    seen = set()
    reps = []
    for ch in chars:
        if ch.exps in seen:
            continue
        reps.append(ch)
        cur = ch
        while True:
            cur = cur.power(p)
            if cur.exps in seen or cur.exps == ch.exps:
                seen.add(ch.exps)
                break
            seen.add(cur.exps)
        seen.add(ch.exps)
    return reps


# ---------------------------------------------------------------------------
# group-ring elements over Z
# ---------------------------------------------------------------------------


class GroupRingElem:
    """Element of Z[G]; coefficients indexed by exponent tuples."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: AbelianGroup, coeffs=None):
        self.group = group
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def zero(cls, group):
        return cls(group)

    @classmethod
    def one(cls, group):
        return cls(group, {group.identity: 1})

    @classmethod
    def basis(cls, group, elem):
        return cls(group, {tuple(elem): 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return GroupRingElem(self.group, out)

    def __neg__(self):
        return GroupRingElem(self.group, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        g = self.group
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = g.mul(k1, k2)
                out[k] = out.get(k, 0) + v1 * v2
        return GroupRingElem(g, out)

    def scale(self, c: int):
        return GroupRingElem(self.group, {k: c * v for k, v in self.coeffs.items()})

    def translate(self, elem):
        """Multiplication by the group element elem."""
        g = self.group
        return GroupRingElem(g, {g.mul(k, elem): v for k, v in self.coeffs.items()})

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def apply_character(self, chi: Character):
        """chi(x) in Z[zeta_N]: the coefficients are summed by log value into
        Z[x]/(x^N - 1), which is reduced mod Phi_N once."""
        ring = chi.ring
        vec = [0] * ring.n
        for k, v in self.coeffs.items():
            vec[chi.log_value(k)] += v
        return ring.reduce(vec)

    def project(self, apply_map, target_group) -> "GroupRingElem":
        out = {}
        for k, v in self.coeffs.items():
            kk = apply_map(k)
            out[kk] = out.get(kk, 0) + v
        return GroupRingElem(target_group, out)

    def reduce_mod(self, modulus: int) -> "GroupRingElem":
        return GroupRingElem(self.group, {k: v % modulus for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and self.group == other.group and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*g{list(k)}" for k, v in sorted(self.coeffs.items()))

    def to_json(self):
        return {"group_orders": list(self.group.orders),
                "coeffs": {",".join(map(str, k)): v for k, v in sorted(self.coeffs.items())}}


class ThetaPoly:
    """Polynomial in u with Z[G] coefficients."""

    def __init__(self, group: AbelianGroup, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1].coeffs:
            coeffs.pop()
        self.group = group
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def coefficient(self, i) -> GroupRingElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else GroupRingElem.zero(self.group)

    def evaluate_at_one(self) -> GroupRingElem:
        acc = GroupRingElem.zero(self.group)
        for c in self.coeffs:
            acc = acc + c
        return acc

    def apply_character(self, chi: Character):
        """List of cyclotomic coefficients of chi(Theta)(u)."""
        out = [c.apply_character(chi) for c in self.coeffs]
        ring = chi.ring
        while out and ring.is_zero(out[-1]):
            out.pop()
        return out

    def project(self, apply_map, target_group) -> "ThetaPoly":
        return ThetaPoly(target_group, [c.project(apply_map, target_group) for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return ThetaPoly(self.group, [])
        out = [GroupRingElem.zero(self.group) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ThetaPoly(self.group, out)

    def __eq__(self, other):
        return isinstance(other, ThetaPoly) and self.group == other.group and \
            len(self.coeffs) == len(other.coeffs) and \
            all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def norm_poly(self):
        """prod_chi chi(Theta)(u) as an integer polynomial (the group-ring
        norm); asserts rationality of the product."""
        return character_norm(self.group,
                              [self.apply_character(ch) for ch in characters(self.group)])

    def to_json(self):
        return {"group_orders": list(self.group.orders),
                "coeffs_by_degree": [c.to_json()["coeffs"] for c in self.coeffs]}


def character_norm(group: AbelianGroup, values):
    """The group-ring norm prod_chi chi(x)(u) as an integer polynomial, from
    the lists chi(x)(u) of every character chi of the group (in any order);
    asserts rationality of the product."""
    ring = CyclotomicRing(group.exponent)
    prod = [ring.one]
    for coeffs in values:
        if not coeffs:
            return []
        new = [ring.zero] * (len(prod) + len(coeffs) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(coeffs):
                new[i + j] = ring.add(new[i + j], ring.mul(a, b))
        prod = new
    out = []
    for c in prod:
        if not ring.is_rational(c):
            raise ArithmeticError("group-ring norm is not rational")
        out.append(c[0])
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# finite coefficient rings (free Z/p^k-modules with multiplicative structure)
# ---------------------------------------------------------------------------


class ZpkRing:
    """Z/p^k."""

    def __init__(self, p: int, k: int):
        self.p, self.k = p, k
        self.pk = p ** k
        self.basis_size = 1

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.pk

    def sub(self, a, b):
        return (a - b) % self.pk

    def neg(self, a):
        return (-a) % self.pk

    def mul(self, a, b):
        return (a * b) % self.pk

    def scale_int(self, c, a):
        return (c * a) % self.pk

    def to_vec(self, a):
        return [a % self.pk]

    def from_vec(self, vec):
        return vec[0] % self.pk

    def equal(self, a, b):
        return (a - b) % self.pk == 0

    def describe(self):
        return f"Z/{self.p}^{self.k}"


@lru_cache(maxsize=None)
def _mul_table(group: AbelianGroup):
    """table[i][j] = index of elems[i] * elems[j] in elems = sorted(group.elements()).

    That order is mixed radix with the first coordinate most significant, so
    G = C_o x G' gives table[a*m + i][b*m + j] = ((a + b) % o) * m + T'[i][j]
    with m = |G'| and T' the table of G'.
    """
    if not group.orders:
        return ((0,),)
    o = group.orders[0]
    rest = _mul_table(AbelianGroup(group.orders[1:]))
    m = len(rest)
    ids = list(range(o * m))  # one int object per index, shared by every row
    rows = []
    for a in range(o):
        for sub in rest:
            row = []
            for b in range(o):
                off = ((a + b) % o) * m
                row.extend([ids[off + t] for t in sub])
            rows.append(tuple(row))
    return tuple(rows)


class ZpkGroupRing:
    """Z/p^k[G] for a finite abelian group G.

    An element is the list of its |G| coefficients mod p^k, indexed like
    elems = sorted(group.elements()) (mixed radix, identity at index 0), so
    to_vec is the identity.  mul reads the group law from the index table
    _mul_table(group), built once per group.  Operations return new lists and
    never mutate their arguments.
    """

    def __init__(self, p: int, k: int, group: AbelianGroup):
        self.p, self.k = p, k
        self.pk = p ** k
        self.group = group
        self.elems = sorted(group.elements())
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.basis_size = len(self.elems)
        self._table = _mul_table(group)

    @property
    def zero(self):
        return [0] * self.basis_size

    @property
    def one(self):
        return [1] + [0] * (self.basis_size - 1)

    def from_mapping(self, coeffs):
        """The element sum_g coeffs[g] g, from a mapping exponent tuple -> int."""
        out = [0] * self.basis_size
        for g, v in coeffs.items():
            out[self.index[g]] += v
        return self.from_vec(out)

    def from_group_ring(self, x: GroupRingElem):
        return self.from_mapping(x.coeffs)

    def add(self, a, b):
        pk = self.pk
        return [(x + y) % pk for x, y in zip(a, b)]

    def neg(self, a):
        pk = self.pk
        return [(-x) % pk for x in a]

    def sub(self, a, b):
        pk = self.pk
        return [(x - y) % pk for x, y in zip(a, b)]

    def mul(self, a, b):
        table = self._table
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * self.basis_size
        for i, x in enumerate(a):
            if x:
                row = table[i]
                for j, y in b_terms:
                    out[row[j]] += x * y
        pk = self.pk
        return [v % pk for v in out]

    def scale_int(self, c, a):
        pk = self.pk
        return [(c * x) % pk for x in a]

    def to_vec(self, a):
        return a

    def from_vec(self, vec):
        pk = self.pk
        return [v % pk for v in vec]

    def equal(self, a, b):
        return a == b

    def describe(self):
        return f"Z/{self.p}^{self.k}[G{list(self.group.orders)}]"


class ChiComponentRing:
    """Z_p(chi)[P] at precision p^k: Z/p^k[x]/(h(x)) group ring of the p-part.

    h is a Hensel-lifted irreducible factor of Phi_M mod p^k, M = ord(chi).
    Elements are dicts P-element -> coefficient tuple of length deg h.
    """

    def __init__(self, p: int, k: int, h, pgroup: AbelianGroup, chi_order: int):
        self.p, self.k = p, k
        self.pk = p ** k
        self.h = tuple(c % self.pk for c in h)
        self.deg = len(self.h) - 1
        self.pgroup = pgroup
        self.chi_order = chi_order
        self.pelems = sorted(pgroup.elements())
        self.pindex = {e: i for i, e in enumerate(self.pelems)}
        self.basis_size = len(self.pelems) * self.deg
        # x^j reduction table up to 2 deg - 2 and up to chi_order
        self._xpow = [None] * max(2 * self.deg, chi_order + 1)
        cur = [1] + [0] * (self.deg - 1)
        for j in range(len(self._xpow)):
            self._xpow[j] = tuple(cur)
            cur = self._shift_reduce(cur)

    def _shift_reduce(self, vec):
        out = [0] + list(vec)
        # reduce degree-deg term by h (monic)
        top = out[self.deg]
        if top:
            for i in range(self.deg):
                out[i] = (out[i] - top * self.h[i]) % self.pk
        return [c % self.pk for c in out[: self.deg]]

    def _poly_mul(self, a, b):
        out = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = (out[i + j] + x * y) % self.pk
        # reduce by h
        for j in range(len(out) - 1, self.deg - 1, -1):
            c = out[j]
            if c:
                shift = j - self.deg
                for i in range(self.deg + 1):
                    out[shift + i] = (out[shift + i] - c * self.h[i]) % self.pk
            out[j] = 0
        return tuple(out[: self.deg])

    def zeta_pow(self, j):
        return self._xpow[j % self.chi_order]

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {self.pgroup.identity: tuple([1] + [0] * (self.deg - 1))}

    def add(self, a, b):
        out = dict(a)
        for kk, v in b.items():
            s = tuple((x + y) % self.pk for x, y in zip(out.get(kk, (0,) * self.deg), v))
            if any(s):
                out[kk] = s
            else:
                out.pop(kk, None)
        return out

    def neg(self, a):
        return {kk: tuple((-x) % self.pk for x in v) for kk, v in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        g = self.pgroup
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                kk = g.mul(k1, k2)
                prod = self._poly_mul(v1, v2)
                if kk in out:
                    out[kk] = tuple((x + y) % self.pk for x, y in zip(out[kk], prod))
                else:
                    out[kk] = prod
        return {kk: v for kk, v in out.items() if any(v)}

    def scale_int(self, c, a):
        out = {}
        for kk, v in a.items():
            s = tuple((c * x) % self.pk for x in v)
            if any(s):
                out[kk] = s
        return out

    def to_vec(self, a):
        vec = [0] * self.basis_size
        for kk, v in a.items():
            base = self.pindex[kk] * self.deg
            for i, x in enumerate(v):
                vec[base + i] = x % self.pk
        return vec

    def from_vec(self, vec):
        out = {}
        for idx, e in enumerate(self.pelems):
            chunk = tuple(v % self.pk for v in vec[idx * self.deg:(idx + 1) * self.deg])
            if any(chunk):
                out[e] = chunk
        return out

    def equal(self, a, b):
        return self.to_vec(a) == self.to_vec(b)

    def describe(self):
        return f"Z/{self.p}^{self.k}[x]/(h deg {self.deg})[P{list(self.pgroup.orders)}]"


class TruncPolyRing:
    """base[u]/(u^M): truncated polynomials over a finite base ring."""

    def __init__(self, base, M: int):
        self.base = base
        self.M = M
        self.p, self.k = base.p, base.k
        self.pk = base.pk
        self.basis_size = base.basis_size * M

    @property
    def zero(self):
        return tuple([self.base.zero] * self.M)

    @property
    def one(self):
        return tuple([self.base.one] + [self.base.zero] * (self.M - 1))

    def from_list(self, coeffs):
        coeffs = list(coeffs)[: self.M]
        coeffs.extend([self.base.zero] * (self.M - len(coeffs)))
        return tuple(coeffs)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        out = [self.base.zero] * self.M
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < self.M:
                    out[i + j] = self.base.add(out[i + j], self.base.mul(x, y))
        return tuple(out)

    def scale_int(self, c, a):
        return tuple(self.base.scale_int(c, x) for x in a)

    def to_vec(self, a):
        vec = []
        for x in a:
            vec.extend(self.base.to_vec(x))
        return vec

    def from_vec(self, vec):
        n = self.base.basis_size
        return tuple(self.base.from_vec(vec[i * n:(i + 1) * n]) for i in range(self.M))

    def equal(self, a, b):
        return self.to_vec(a) == self.to_vec(b)

    def describe(self):
        return f"{self.base.describe()}[u]/(u^{self.M})"


# ---------------------------------------------------------------------------
# chi-components
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lifted_cyclotomic_factors(M: int, p: int, k: int):
    """Hensel-lifted irreducible factors of Phi_M mod p^k (M coprime to p)."""
    if M % p == 0:
        raise ValueError("chi order must be prime to p")
    phi = cyclotomic_polynomial(M)
    F = FqField(p)
    phi_p = FqPoly(F, [c % p for c in phi])
    facs = fq_factor(phi_p)
    if any(m > 1 for _, m in facs):
        raise ArithmeticError("Phi_M mod p is not squarefree")  # impossible for p coprime to M
    lifted = hensel_lift_factors(list(phi), [list(g.coeffs) for g, _ in facs], p, k)
    return tuple(tuple(c for c in g) for g in lifted)


def chi_component_ring(chi: Character, p: int, k: int, p_group: AbelianGroup) -> ChiComponentRing:
    """Z_p(chi)[P] at precision p^k, with the first lifted factor of Phi_ord(chi)."""
    M = chi.order
    if M == 1:  # Z_p(chi) = Z_p realized as Z/p^k[x]/(x)
        return ChiComponentRing(p, k, (0, 1), p_group, 1)
    h = _lifted_cyclotomic_factors(M, p, k)[0]
    return ChiComponentRing(p, k, h, p_group, M)


def chi_component(x: GroupRingElem, chi: Character, ring: ChiComponentRing,
                  delta_idx, p_idx):
    """Project Z/p^k[G] -> Z_p(chi)[P]: g = (g_Delta, g_P) -> chi(g_Delta) [g_P].

    delta_idx / p_idx give the coordinate split of G; chi is a character of
    the Delta-part, the group of the coordinates delta_idx.
    """
    out = ring.zero
    M = ring.chi_order
    N_delta = chi.group.exponent
    for kk, v in x.coeffs.items():
        lv = chi.log_value(tuple(kk[i] for i in delta_idx))
        # chi(g) = zeta_{N_delta}^lv; rewrite as power of zeta_M (M = ord chi | N_delta)
        if lv * M % N_delta:
            raise ArithmeticError("character value outside mu_M")
        term = {tuple(kk[i] for i in p_idx): ring.zeta_pow(lv * M // N_delta)}
        out = ring.add(out, ring.scale_int(v, term))
    return out


# ---------------------------------------------------------------------------
# generic finite-ring linear algebra: units, ideals, Fitting
# ---------------------------------------------------------------------------


def mult_matrix(ring, rows):
    """Z/p^k matrix whose columns span the R-submodule of R^g generated by
    rows (each a list of g ring elements).

    Column (r, i) is vec(b_i * e) for the entries e of row r, stacked, where
    b_i is the i-th Z/p^k basis element of R; rows vary slowest.  For the
    single row [x] this is the matrix of multiplication by x.
    """
    n = ring.basis_size
    basis = [ring.from_vec([0] * i + [1] + [0] * (n - 1 - i)) for i in range(n)]
    cols = []
    for row in rows:
        for b in basis:
            col = []
            for e in row:
                col.extend(ring.to_vec(ring.mul(b, e)))
            cols.append(col)
    return [list(r) for r in zip(*cols)]


def is_unit(x, ring):
    """(bool, inverse) in a finite ring; inverse verified exactly."""
    mat = mult_matrix(ring, [[x]])
    sol = zpk_solve(mat, ring.to_vec(ring.one), ring.p, ring.k)
    if sol is None:
        return False, None
    inv = ring.from_vec(sol)
    if not ring.equal(ring.mul(x, inv), ring.one):
        return False, None
    return True, inv


def invert_one_plus_nilpotent_u(ring: TruncPolyRing, x):
    """Inverse via constant-term inversion plus geometric series in u."""
    c0 = x[0]
    ok, c0_inv = is_unit(c0, ring.base)
    if not ok:
        return False, None
    c0_inv_full = ring.from_list([c0_inv])
    n = ring.sub(ring.one, ring.mul(ring.from_list([c0_inv]), x))  # nilpotent in u
    acc = ring.one
    power = n
    for _ in range(ring.M - 1):
        acc = ring.add(acc, power)
        power = ring.mul(power, n)
    inv = ring.mul(acc, c0_inv_full)
    if not ring.equal(ring.mul(x, inv), ring.one):
        return False, None
    return True, inv


@dataclass
class FittingIdeal:
    ring: object
    generators: list
    deficient: bool = False  # more generators than relations: zero ideal

    def to_json(self):
        return {"ring": self.ring.describe(), "deficient": self.deficient,
                "precision_k": self.ring.k,
                "generators": [self.ring.to_vec(g) for g in self.generators]}


@dataclass
class PresentationMatrix:
    """rows x cols matrix over a finite ring; generators are the columns."""

    ring: object
    rows: list

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0


def _det(ring, mat):
    n = len(mat)
    if n == 0:
        return ring.one
    if n == 1:
        return mat[0][0]
    acc = ring.zero
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = ring.mul(mat[0][j], _det(ring, sub))
        acc = ring.add(acc, term) if j % 2 == 0 else ring.sub(acc, term)
    return acc


def fitting_ideal(pm: PresentationMatrix) -> FittingIdeal:
    """0-th Fitting ideal: all ncols x ncols minors of the relation matrix."""
    ring = pm.ring
    rows, cols = len(pm.rows), pm.ncols
    if cols == 0:
        return FittingIdeal(ring, [ring.one])
    if rows < cols:
        return FittingIdeal(ring, [], deficient=True)
    gens = []
    for ri in itertools.combinations(range(rows), cols):
        sub = [pm.rows[i] for i in ri]
        gens.append(_det(ring, sub))
    return FittingIdeal(ring, gens)


def ideal_contains(ring, gens, target) -> bool:
    """target in the ideal generated by gens, by Z/p^k linear algebra."""
    if not gens:
        return ring.equal(target, ring.zero)
    mat = mult_matrix(ring, [[g] for g in gens])
    return zpk_solve(mat, ring.to_vec(target), ring.p, ring.k) is not None


def ideal_equal(I, J, ring) -> bool:
    """Mutual containment of two finitely generated ideals in a finite ring."""
    return all(ideal_contains(ring, J, g) for g in I) and \
        all(ideal_contains(ring, I, g) for g in J)


@dataclass
class NzdCertificate:
    leading_coeff_unit: bool
    truncated_annihilator_trivial: bool
    annihilator_witness: object
    truncation_M: int
    precision_k: int


def nzd_test_polynomial(coeffs, p: int, k: int, M: int, group: AbelianGroup) -> NzdCertificate:
    """Certificate for f = sum coeffs[i] gamma^i over Z/p^k[G].

    Checks the unit-leading-coefficient hypothesis (non-zero divisor in the
    power-series ring) and, separately, searches for annihilators in the
    finite quotient Z/p^k[G][gamma]/(gamma^(p^M) - 1); the two notions are
    distinct and both are reported.
    """
    ring = ZpkGroupRing(p, k, group)
    lead = ring.from_group_ring(coeffs[-1])
    lead_unit, _ = is_unit(lead, ring)

    big_group = AbelianGroup(group.orders + (p ** M,))
    big = ZpkGroupRing(p, k, big_group)
    f_big = big.zero
    for i, c in enumerate(coeffs):
        term = big.from_mapping({kk + (i % (p ** M),): v for kk, v in c.coeffs.items()})
        f_big = big.add(f_big, term)
    kern = zpk_kernel(mult_matrix(big, [[f_big]]), p, k)
    witness = None
    for vec in kern:
        cand = big.from_vec(vec)
        if any(cand) and big.equal(big.mul(f_big, cand), big.zero):
            witness = cand
            break
    return NzdCertificate(
        leading_coeff_unit=lead_unit,
        truncated_annihilator_trivial=witness is None,
        annihilator_witness=witness,
        truncation_M=M,
        precision_k=k,
    )


# ---------------------------------------------------------------------------
# finitely presented Z/p^k[G]-modules: orders and the sharp functor
# ---------------------------------------------------------------------------


def module_order_exponent(pm: PresentationMatrix) -> int:
    """log_p |R^g / <rows>| at precision k (exponents capped at k per factor).

    Over Z/p^k the module is free of rank g * basis_size modulo the span of
    the Z/p^k-basis multiples of the rows, so its order is read off the Smith
    exponents of mult_matrix(ring, rows).
    """
    mat = mult_matrix(pm.ring, pm.rows)
    return sum(zpk_cokernel_exponents(mat, pm.ring.p, pm.ring.k))


def quotient_exponents(x: GroupRingElem, p: int, k: int) -> list:
    """The exponents e_i > 0 with Z/p^k[G] / (x) = prod Z/p^(e_i): the Smith
    exponents of multiplication by x, from one elimination.  Their sum is
    quotient_order_exponent and their maximum is tower.nzd_slack."""
    ring = ZpkGroupRing(p, k, x.group)
    return zpk_cokernel_exponents(mult_matrix(ring, [[ring.from_group_ring(x)]]), p, k)


def quotient_order_exponent(x: GroupRingElem, p: int, k: int) -> int:
    """log_p |Z/p^k[G] / (x)|: the order of the 1 x 1 presentation [[x]]."""
    return sum(quotient_exponents(x, p, k))


def delta_idempotent(group: AbelianGroup, delta_idx, p: int, k: int):
    """e_Delta = (1/|Delta|) sum_{delta} delta in Z/p^k[G]."""
    pk = p ** k
    delta_orders = [group.orders[i] for i in delta_idx]
    size = 1
    for o in delta_orders:
        size *= o
    if size % p == 0:
        raise ValueError("p divides |Delta|")
    inv = pow(size, -1, pk)
    coeffs = {}
    for combo in itertools.product(*(range(o) for o in delta_orders)):
        kk = [0] * len(group.orders)
        for i, e in zip(delta_idx, combo):
            kk[i] = e
        coeffs[tuple(kk)] = inv
    return GroupRingElem(group, coeffs)


def sharp_element(x: GroupRingElem, delta_idx, p: int, k: int) -> GroupRingElem:
    """(1 - e_Delta) * x mod p^k."""
    e = delta_idempotent(x.group, delta_idx, p, k)
    return ((x - e * x)).reduce_mod(p ** k)


def _adjoin_diagonal(pm: PresentationMatrix, c: GroupRingElem) -> PresentationMatrix:
    """pm with the rows c * e_j (j < ncols) adjoined: a presentation of M / cM."""
    ring = pm.ring
    c_r = ring.from_group_ring(c)
    g = pm.ncols
    extra = [[c_r if i == j else ring.zero for i in range(g)] for j in range(g)]
    return PresentationMatrix(ring, [list(r) for r in pm.rows] + extra)


def sharp_presentation(pm: PresentationMatrix, delta_idx) -> PresentationMatrix:
    """Presentation of M^sharp = M / e_Delta M."""
    ring = pm.ring
    return _adjoin_diagonal(pm, delta_idempotent(ring.group, delta_idx, ring.p, ring.k))


def e_delta_presentation(pm: PresentationMatrix, delta_idx) -> PresentationMatrix:
    """Presentation of e_Delta M = M / (1 - e_Delta) M."""
    ring = pm.ring
    e = delta_idempotent(ring.group, delta_idx, ring.p, ring.k)
    return _adjoin_diagonal(pm, GroupRingElem.one(ring.group) - e)


def cyclic_submodule_presentation(pm: PresentationMatrix, elem_row) -> PresentationMatrix:
    """Presentation R/I of the cyclic submodule of M = coker(pm) generated by
    the class of elem_row, where I = {r in R : r * elem lies in the relation
    span}.  A Z/p^k-generating set of the ideal I also generates it over R,
    so the kernel computation below yields a valid presentation.
    """
    ring = pm.ring
    n = ring.basis_size
    # columns: the n basis multiples of elem_row, then the relation span
    combined = [a + b for a, b in zip(mult_matrix(ring, [elem_row]),
                                      mult_matrix(ring, pm.rows))]
    kern = zpk_kernel(combined, ring.p, ring.k)
    gens = []
    for vec in kern:
        r = ring.from_vec(vec[:n])
        if ring.to_vec(r) != [0] * n:
            gens.append(r)
    return PresentationMatrix(ring, [[r] for r in gens] if gens else [[ring.zero]])
