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
(snf).

The Smith exponents of multiplication by x on Z/p^k[G] (quotient_exponents)
are taken block by block.  G = Delta x P with P the p-part, and p does not
divide |Delta|, so Z/p^k[G] is the product of the chi-components
Z_p(chi)[P] at precision p^k, one per Frobenius orbit of characters of Delta
(delta_blocks).  Each block is a local ring, so the image of x is a unit
there exactly when its P-augmentation is nonzero mod p; a unit block adds no
exponent and is never eliminated, and only the other blocks are.  No
|G| x |G| matrix is built.

Every group-ring element is a flat list of coefficients in one order: the
mixed-radix order of sorted(group.elements()), kept once per group with its
index dict (group_index).  An element of Z[G] (GroupRingElem: Theta, its
coefficients and the Euler series) and of Z/p^k[G] (ZpkGroupRing) is the
list of its |G| coefficients; an element of a chi-component (ChiComponentRing)
is the list of |P| blocks of deg h coefficients.  Products read one index
table per group (mul_table).  Exponent tuples appear only at the edges:
GroupRingElem.from_mapping, GroupRingElem.items, to_json, characters() and
the layer maps that project turns into index maps.

No floating point anywhere; every mod-p^k assertion carries its precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

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

    @cached_property
    def log_table(self) -> list:
        """log_value of every group element, in group_index order, built
        coordinate by coordinate (the first one most significant)."""
        N = self.group.exponent
        table = [0]
        for j, o in zip(self.exps, self.group.orders):
            w = j * (N // o)
            table = [(t + e * w) % N for t in table for e in range(o)]
        return table

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
# one coefficient order per group, and group-ring elements over Z
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def group_index(group: AbelianGroup):
    """(elems, index): elems = sorted(group.elements()) as a tuple and index
    the dict elem -> position.  That order is mixed radix with the first
    coordinate most significant and the identity at index 0; every
    group-ring element is a coefficient list in it."""
    elems = tuple(sorted(group.elements()))
    return elems, {e: i for i, e in enumerate(elems)}


@lru_cache(maxsize=None)
def mul_table(group: AbelianGroup):
    """table[i][j] = index of elems[i] * elems[j], elems as in group_index.

    That order is mixed radix with the first coordinate most significant, so
    G = C_o x G' gives table[a*m + i][b*m + j] = ((a + b) % o) * m + T'[i][j]
    with m = |G'| and T' the table of G'.
    """
    if not group.orders:
        return ((0,),)
    o = group.orders[0]
    rest = mul_table(AbelianGroup(group.orders[1:]))
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


def _convolve(table, a, b):
    """The unreduced product of two coefficient lists of one group, whose
    mul_table is table."""
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in b_terms:
                out[row[j]] += x * y
    return out


def _index_map(source: AbelianGroup, apply_map, target: AbelianGroup) -> list:
    """imap[i] = index in target of apply_map(elems[i]), elems of source."""
    elems, _ = group_index(source)
    _, index = group_index(target)
    return [index[apply_map(g)] for g in elems]


def _pushforward(x: "GroupRingElem", imap, target: AbelianGroup) -> "GroupRingElem":
    """The image of x in Z[target] under the group map imap (_index_map)."""
    out = [0] * target.order
    for i, v in zip(imap, x.coeffs):
        out[i] += v
    return GroupRingElem(target, out)


class GroupRingElem:
    """Element of Z[G]: the list of its |G| integer coefficients, indexed like
    group_index(group)."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: AbelianGroup, coeffs: list):
        self.group = group
        self.coeffs = coeffs

    @classmethod
    def zero(cls, group):
        return cls(group, [0] * group.order)

    @classmethod
    def one(cls, group):
        return cls(group, [1] + [0] * (group.order - 1))

    @classmethod
    def basis(cls, group, elem):
        return cls.from_mapping(group, {tuple(elem): 1})

    @classmethod
    def from_mapping(cls, group, coeffs):
        """The element sum_g coeffs[g] g, from a mapping exponent tuple -> int."""
        _, index = group_index(group)
        out = [0] * len(index)
        for g, v in coeffs.items():
            out[index[g]] += v
        return cls(group, out)

    def items(self):
        """(exponent tuple, coefficient) of every nonzero coefficient, in
        index order."""
        elems, _ = group_index(self.group)
        return [(g, v) for g, v in zip(elems, self.coeffs) if v]

    def __add__(self, other):
        return GroupRingElem(self.group, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return GroupRingElem(self.group, [-x for x in self.coeffs])

    def __sub__(self, other):
        return GroupRingElem(self.group, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        g = self.group
        return GroupRingElem(g, _convolve(mul_table(g), self.coeffs, other.coeffs))

    def scale(self, c: int):
        return GroupRingElem(self.group, [c * x for x in self.coeffs])

    def augmentation(self) -> int:
        return sum(self.coeffs)

    def apply_character(self, chi: Character):
        """chi(x) in Z[zeta_N]: the coefficients are summed by log value into
        Z[x]/(x^N - 1), which is reduced mod Phi_N once."""
        ring = chi.ring
        vec = [0] * ring.n
        for lv, v in zip(chi.log_table, self.coeffs):
            if v:
                vec[lv] += v
        return ring.reduce(vec)

    def project(self, apply_map, target_group) -> "GroupRingElem":
        return _pushforward(self, _index_map(self.group, apply_map, target_group), target_group)

    def reduce_mod(self, modulus: int) -> "GroupRingElem":
        return GroupRingElem(self.group, [v % modulus for v in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and self.group == other.group and self.coeffs == other.coeffs

    def __repr__(self):
        terms = self.items()
        if not terms:
            return "0"
        return " + ".join(f"{v}*g{list(k)}" for k, v in terms)

    def to_json(self):
        return {"group_orders": list(self.group.orders),
                "coeffs": {",".join(map(str, k)): v for k, v in self.items()}}


class ThetaPoly:
    """Polynomial in u with Z[G] coefficients."""

    def __init__(self, group: AbelianGroup, coeffs):
        coeffs = list(coeffs)
        while coeffs and not any(coeffs[-1].coeffs):
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
        imap = _index_map(self.group, apply_map, target_group)
        return ThetaPoly(target_group, [_pushforward(c, imap, target_group) for c in self.coeffs])

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


class _FiniteRing:
    """What the linear algebra below asks of a finite ring beyond its
    operations, built from mul alone; ZpkGroupRing overrides both with
    index-table versions."""

    def basis_products(self, e) -> list:
        """vec(b_i * e) for the Z/p^k basis elements b_i, i < basis_size."""
        n = self.basis_size
        return [self.to_vec(self.mul(self.from_vec([0] * i + [1] + [0] * (n - 1 - i)), e))
                for i in range(n)]

    def det(self, mat):
        """Determinant of a square matrix over the ring, by cofactor
        expansion along the first row."""
        n = len(mat)
        if n == 0:
            return self.one
        if n == 1:
            return mat[0][0]
        acc = self.zero
        for j in range(n):
            term = self.mul(mat[0][j], self.det([row[:j] + row[j + 1:] for row in mat[1:]]))
            acc = self.add(acc, term) if j % 2 == 0 else self.sub(acc, term)
        return acc


class ZpkRing(_FiniteRing):
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


class _FlatZpkModule(_FiniteRing):
    """The Z/p^k-module operations of a finite ring whose elements are flat
    lists of basis_size coefficients mod p^k, so to_vec is the identity.
    Operations return new lists and never mutate their arguments."""

    def __init__(self, p: int, k: int, basis_size: int):
        self.p, self.k = p, k
        self.pk = p ** k
        self.basis_size = basis_size

    @property
    def zero(self):
        return [0] * self.basis_size

    @property
    def one(self):
        return [1] + [0] * (self.basis_size - 1)

    def add(self, a, b):
        pk = self.pk
        return [(x + y) % pk for x, y in zip(a, b)]

    def neg(self, a):
        pk = self.pk
        return [(-x) % pk for x in a]

    def sub(self, a, b):
        pk = self.pk
        return [(x - y) % pk for x, y in zip(a, b)]

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


class ZpkGroupRing(_FlatZpkModule):
    """Z/p^k[G] for a finite abelian group G.

    An element is the list of its |G| coefficients mod p^k, indexed like
    elems = group_index(group)[0] (identity at index 0).  mul reads the group
    law from the index table mul_table(group), built once per group.
    """

    def __init__(self, p: int, k: int, group: AbelianGroup):
        super().__init__(p, k, group.order)
        self.group = group
        self.elems = group_index(group)[0]
        self._table = mul_table(group)

    def from_mapping(self, coeffs):
        """The element sum_g coeffs[g] g, from a mapping exponent tuple -> int."""
        return self.from_group_ring(GroupRingElem.from_mapping(self.group, coeffs))

    def from_group_ring(self, x: GroupRingElem):
        return self.from_vec(x.coeffs)

    def mul(self, a, b):
        pk = self.pk
        return [v % pk for v in _convolve(self._table, a, b)]

    @cached_property
    def _inverse_rows(self):
        """Row i: the index of elems[i]^-1 * elems[t] for every t."""
        return [self._table[row.index(0)] for row in self._table]

    def basis_products(self, e) -> list:
        """b_i * e is the translate of e by elems[i], a permutation of the
        coefficients of e: no product is formed."""
        return [[e[j] for j in row] for row in self._inverse_rows]

    def det(self, mat):
        """The cofactor expansion summed over unreduced products, reduced
        mod p^k once."""
        table = self._table

        def raw(mat):
            if len(mat) == 1:
                return mat[0][0]
            acc = [0] * len(table)
            for j, x in enumerate(mat[0]):
                minor = raw([row[:j] + row[j + 1:] for row in mat[1:]])
                sign = -1 if j % 2 else 1
                for t, v in enumerate(_convolve(table, x, minor)):
                    acc[t] += sign * v
            return acc

        return self.from_vec(raw(mat)) if mat else self.one

    def describe(self):
        return f"Z/{self.p}^{self.k}[G{list(self.group.orders)}]"


class ChiComponentRing(_FlatZpkModule):
    """Z_p(chi)[P] at precision p^k: Z/p^k[x]/(h(x)) group ring of the p-part.

    h is a Hensel-lifted irreducible factor of Phi_M mod p^k, M = ord(chi).
    An element is the flat list of |P| blocks of deg h coefficients mod p^k;
    block i holds the coefficient of the i-th element of group_index(pgroup).
    """

    def __init__(self, p: int, k: int, h, pgroup: AbelianGroup, chi_order: int):
        super().__init__(p, k, pgroup.order * (len(h) - 1))
        self.h = tuple(c % self.pk for c in h)
        self.deg = len(self.h) - 1
        self.pgroup = pgroup
        self.chi_order = chi_order
        self._table = mul_table(pgroup)
        self._xpow = [self._reduce([0] * j + [1]) for j in range(chi_order)]

    def _reduce(self, vec):
        """The polynomial vec (ascending, any length) mod (h, p^k), as a block
        of deg coefficients."""
        vec = list(vec)
        h, d = self.h, self.deg
        for j in range(len(vec) - 1, d - 1, -1):
            c = vec[j]
            if c:
                for i in range(d + 1):
                    vec[j - d + i] -= c * h[i]
        vec.extend([0] * (d - len(vec)))
        pk = self.pk
        return [v % pk for v in vec[:d]]

    def zeta_pow(self, j):
        return self._xpow[j % self.chi_order]

    def _blocks(self, a):
        """(i, block i) for every nonzero block of a."""
        d = self.deg
        pairs = ((i, a[i * d:(i + 1) * d]) for i in range(self.pgroup.order))
        return [(i, x) for i, x in pairs if any(x)]

    def mul(self, a, b):
        b_blocks = self._blocks(b)
        acc = [[0] * (2 * self.deg - 1) for _ in range(self.pgroup.order)]
        for i, x in self._blocks(a):
            row = self._table[i]
            for j, y in b_blocks:
                buf = acc[row[j]]
                for s, xs in enumerate(x):
                    for r, yr in enumerate(y):
                        buf[s + r] += xs * yr
        return [c for buf in acc for c in self._reduce(buf)]

    def is_local_unit(self, a) -> bool:
        """Whether a is a unit.  The ring is local (P is a p-group and h is
        irreducible mod p), so a is a unit iff its P-augmentation, the sum
        of its |P| blocks, is nonzero mod p."""
        d, p = self.deg, self.p
        return any(sum(a[s::d]) % p for s in range(d))

    def describe(self):
        return f"Z/{self.p}^{self.k}[x]/(h deg {self.deg})[P{list(self.pgroup.orders)}]"


class TruncPolyRing(_FiniteRing):
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
    d = ring.deg
    M = ring.chi_order
    N_delta = chi.group.exponent
    _, pindex = group_index(ring.pgroup)
    for kk, v in x.items():
        lv = chi.log_value(tuple(kk[i] for i in delta_idx))
        # chi(g) = zeta_{N_delta}^lv; rewrite as power of zeta_M (M = ord chi | N_delta)
        if lv * M % N_delta:
            raise ArithmeticError("character value outside mu_M")
        base = pindex[tuple(kk[i] for i in p_idx)] * d
        for i, c in enumerate(ring.zeta_pow(lv * M // N_delta)):
            out[base + i] += v * c
    return ring.from_vec(out)


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
    cols = []
    for row in rows:
        products = [ring.basis_products(e) for e in row]
        for i in range(ring.basis_size):
            cols.append([c for prods in products for c in prods[i]])
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
        gens.append(ring.det([pm.rows[i] for i in ri]))
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

    # gamma is the last, least significant coordinate of G x C_(p^M)
    pM = p ** M
    big = ZpkGroupRing(p, k, AbelianGroup(group.orders + (pM,)))
    f_vec = [0] * big.basis_size
    for i, c in enumerate(coeffs):
        for j, v in enumerate(c.coeffs):
            f_vec[j * pM + i % pM] += v
    f_big = big.from_vec(f_vec)
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


def delta_blocks(x: GroupRingElem, p: int, k: int) -> list:
    """(ring, image of x) in Z_p(chi)[P] at precision p^k for one character
    chi of Delta per Frobenius orbit chi ~ chi^p, where G = Delta x P is the
    p-split of x.group.  p does not divide |Delta|, so Z/p^k[G] is the
    product of these rings and their ranks add up to |G|.  Raises ValueError
    (AbelianGroup.p_partition) when a generator order is neither prime to p
    nor a power of p, as in C6 with p = 2.
    """
    group = x.group
    delta_idx, p_idx = group.p_partition(p)
    delta = AbelianGroup(tuple(group.orders[i] for i in delta_idx))
    pgroup = AbelianGroup(tuple(group.orders[i] for i in p_idx))
    blocks = []
    for chi in conjugacy_orbit_reps(characters(delta), p):
        ring = chi_component_ring(chi, p, k, pgroup)
        blocks.append((ring, chi_component(x, chi, ring, delta_idx, p_idx)))
    return blocks


def block_exponents(blocks) -> list:
    """The sorted union of the Smith exponents e > 0 of multiplication by img
    on each block ring of blocks (delta_blocks).  A unit img adds none
    (ChiComponentRing.is_local_unit), so only the other blocks are
    eliminated."""
    exps = []
    for ring, img in blocks:
        if not ring.is_local_unit(img):
            exps.extend(zpk_cokernel_exponents(mult_matrix(ring, [[img]]), ring.p, ring.k))
    return sorted(exps)


def quotient_exponents(x: GroupRingElem, p: int, k: int) -> list:
    """The exponents e_i > 0 with Z/p^k[G] / (x) = prod Z/p^(e_i), sorted:
    the Smith exponents of multiplication by x, block by block.  Needs the
    p-split G = Delta x P, which every layer group has; raises ValueError
    without it (delta_blocks).  Their sum is quotient_order_exponent and
    their maximum is tower.nzd_slack."""
    return block_exponents(delta_blocks(x, p, k))


def quotient_order_exponent(x: GroupRingElem, p: int, k: int) -> int:
    """log_p |Z/p^k[G] / (x)|: the sum of quotient_exponents."""
    return sum(quotient_exponents(x, p, k))


def delta_idempotent(group: AbelianGroup, delta_idx, p: int, k: int):
    """e_Delta = (1/|Delta|) sum_{delta} delta in Z/p^k[G]."""
    size = prod(group.orders[i] for i in delta_idx)
    if size % p == 0:
        raise ValueError("p divides |Delta|")
    inv = pow(size, -1, p ** k)
    # g lies in Delta iff its coordinates off delta_idx vanish
    off = [i for i in range(len(group.orders)) if i not in delta_idx]
    elems, _ = group_index(group)
    return GroupRingElem(group, [0 if any(g[i] for i in off) else inv for g in elems])


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
