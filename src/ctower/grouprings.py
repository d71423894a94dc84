"""Exact group-ring algebra: Z[G] and Z/p^k[G] for finite abelian G,
characters with values in Z[x]/Phi_N(x), chi-components over Hensel-lifted
local rings, Fitting ideals, ideal equality, unit tests and non-zero-divisor
certificates.

A Character is its (group, exps) and nothing else: it caches no table.
apply_character(chi, f) is the one evaluator of a character on Z[G][u]: f
is a list of Z[G] coefficient lists, and each is summed by log value into
Z[x]/(x^N - 1) and reduced mod Phi_N once, off one log table built per
call.  lfun.theta calls it once per rational character orbit
(character_orbits) and keeps the results; ThetaResult.chi_poly evaluates
any other character directly, which only the per-character product, the
norm of Theta in the charpoly verdict (character_norm) and `ctower lpoly`
ask for.

Every Z/p^k-linear question about a finite ring R -- units, ideal
membership, annihilators and the orders of finitely presented R-modules --
is asked of one matrix, mult_matrix(ring, rows), whose columns span the
submodule of R^g that the rows generate, and is answered by snf: orders
from its packed exponent pass, units and membership from its triangular
elimination.  In every finite ring the matrix of multiplication by x
(mult_rows) is read off translation rows: column (g, i) is u^i x
translated by g, u^i a basis element of a block, and no product is formed.

Determinants over Z/p^k[G] (ZpkGroupRing.det, the minors of fitting_ideal)
are taken by Kronecker substitution.  Each entry, reduced mod p^k, becomes
one int whose fields are its coefficients, laid out so that a product of n
entries wraps in no coordinate but the first, which one reduction mod
2^(bits) - 1 folds (_det_plan).  The determinant of those ints costs a few
big-int products, closed forms up to 3 x 3; one unpack and one fold of the
other exponents mod o_i read its coefficients back.  The field width comes
from the bound n! |G|^(n-1) (p^k - 1)^n on every coefficient.

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
index dict (group_index).  An element of Z[G] -- a coefficient of Theta or
of the Euler series, Theta(1) -- is the plain list of its |G| integers, with
no wrapper: a function that needs G takes the group beside the list, as
translation(group, g) and delta_blocks(group, x, p, k) do, and Theta is the
list of its coefficients of u.  Every finite ring is a flat list of Z/p^k
coefficients (_FlatZpkModule), with one layout each: Z/p^k[G]
(ZpkGroupRing) holds |G| coefficients, and Z/p^k itself is the group ring
of the trivial group, one coefficient; Z/p^k[u]/(h)[G] (PolyGroupRing)
holds |G| blocks of deg h coefficients.  The chi-components Z_p(chi)[P]
and the truncated series Z/p^k[G][u]/(u^M) are both PolyGroupRings.
The group law of this layout lives in one place, translation(group, g):
the row j -> index of g elems[j], built in O(|G|) by mixed-radix digit
addition, so no |G| x |G| table is built for a layer group.  Z[G] has no
product of its own: its elements are added, projected and evaluated by
characters, and lfun's Euler series multiplies them only by group
elements, one translation row per Frobenius class.  Products are formed in
the finite rings and in CyclotomicRing.  ZpkGroupRing, whose groups are
small (the battery's; no tower run builds one), keeps the rows of every
element; PolyGroupRing, which serves the layer groups, builds a row when a
product or a matrix row needs it.  Every reduction of a product by a
monic polynomial, mod Phi_N in CyclotomicRing and mod (h, p^k) in
PolyGroupRing, is one call of zpoly.div_rem, the one division loop;
PolyGroupRing.mult_rows multiplies by u in closed form, dividing nothing.
Exponent tuples appear only at the edges: from_mapping, the Theta JSON and
text of lfun.ThetaResult.to_json and cli, characters() and the layer maps
that functoriality turns into index maps (_index_map).

No floating point anywhere; every mod-p^k assertion carries its precision.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, gcd, prod

from . import zpoly
from .abelian import AbelianGroup
from .ffpoly import FqField, FqPoly, factor as fq_factor
from .snf import (
    _pack,
    _unpack,
    hensel_lift_pair,
    zpk_cokernel_exponents,
    zpk_kernel,
    zpk_solve,
)


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
        cls._interned[n] = self
        return self

    @property
    def zero(self):
        return (0,) * self.degree

    @property
    def one(self):
        return (1,) + (0,) * (self.degree - 1)

    def reduce(self, vec):
        """vec (ascending, any length) mod Phi_N, padded to degree."""
        rem = zpoly.div_rem(vec, self.phi)[1]
        return tuple(rem) + (0,) * (self.degree - len(rem))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        return self.reduce(zpoly.mul(a, b))

    def is_zero(self, a):
        return not any(a)

    def is_rational(self, a):
        return not any(a[1:])


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class Character:
    """A character of a finite abelian group, valued in Z[x]/Phi_N.  A
    value: equal groups and exponents give equal characters."""

    __slots__ = ("group", "exps")

    def __init__(self, group: AbelianGroup, exps: tuple):
        self.group = group
        self.exps = exps  # j_i mod o_i; chi(g_i) = zeta_N^(j_i * N / o_i)

    def __eq__(self, other):
        return isinstance(other, Character) and \
            self.group == other.group and self.exps == other.exps

    def __hash__(self):
        return hash((self.group, self.exps))

    @property
    def ring(self) -> CyclotomicRing:
        return CyclotomicRing(self.group.exponent)

    @property
    def order(self) -> int:
        return self.group.element_order(self.exps)

    def is_trivial(self) -> bool:
        return all(j == 0 for j in self.exps)

    def log_value(self, elem) -> int:
        """chi(elem) = zeta_N^(log_value(elem))."""
        N = self.group.exponent
        total = 0
        for j, e, o in zip(self.exps, elem, self.group.orders):
            total += j * e * (N // o)
        return total % N

    def log_table(self) -> list:
        """log_value of every group element, in group_index order, built
        coordinate by coordinate (the first one most significant) and kept
        by the caller alone."""
        N = self.group.exponent
        table = [0]
        for j, o in zip(self.exps, self.group.orders):
            w = j * (N // o)
            table = [(t + e * w) % N for t in table for e in range(o)]
        return table

    def trivial_on(self, elems) -> bool:
        return all(self.log_value(e) == 0 for e in elems)

    def power(self, t: int) -> "Character":
        return Character(self.group, self.group.pow(self.exps, t))


def characters(group: AbelianGroup):
    """All |G| characters, lexicographically ordered by exponent tuples.

    Orthogonality sum_g chi(g) psi(g^-1) = |G| [chi == psi] holds exactly in
    Z[x]/Phi_N and is exercised by the test suite.
    """
    return [Character(group, exps) for exps in
            sorted(itertools.product(*(range(o) for o in group.orders)))]


def character_orbits(chars, p=None):
    """(reps, orbit) for the orbits {chi^a : a in H} of chars, H a subgroup
    of (Z/ord chi)^x: the powers of p (the Gal(Q_p-bar/Q_p)-orbits chi ~
    chi^p; p prime to every ord chi), or all of it when p is None (the
    rational orbits; chi^a has the kernel of chi and chi^a(x) =
    sigma_a(chi(x)), so each is a union of Frobenius orbits).  reps holds
    the first character of chars in each orbit, and orbit[chi.exps] is the
    index in reps of the orbit of chi, filled orbit by orbit in the order of
    the a: 1, p, p^2, ... or increasing."""
    reps, orbit = [], {}
    for ch in chars:
        if ch.exps in orbit:
            continue
        M = ch.order
        if p is None:
            units = [a for a in range(1, M + 1) if gcd(a, M) == 1]
        else:
            units, a = [1 % M], p % M
            while a not in units:
                units.append(a)
                a = a * p % M
        for a in units:
            orbit[ch.power(a).exps] = len(reps)
        reps.append(ch)
    return reps, orbit


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


def translation(group: AbelianGroup, g, sign: int = 1) -> list:
    """row[j] = the index of g * elems[j]^sign, elems as in group_index: the
    group law of the flat coefficient layout, one row in O(|G|).  sign = 1
    is the translation by g; sign = -1 is row g of (t, h) -> t h^-1, the
    index pattern of the multiplication matrices (mult_rows).  elems is
    mixed radix with the last coordinate fastest, so the row is built from
    the last coordinate out, one digit addition mod o per coordinate (Good,
    JRSS B 20, 1958)."""
    row, m = [0], 1
    for o, a in zip(reversed(group.orders), reversed(g)):
        row = [s + r for s in [(a + sign * b) % o * m for b in range(o)] for r in row]
        m *= o
    return row


@lru_cache(maxsize=None)
def _det_plan(orders: tuple, n: int, pk: int) -> tuple:
    """The Kronecker layout of an n x n determinant over Z/pk[G], G of the
    given orders: (nb, span, src, modulus, offset, fold, base).

    An entry is a polynomial of degree below o_i in x_i, packed as one int
    of nb-byte fields, x_m the fastest.  A product of n entries has degree
    at most n (o_i - 1) in x_i, so each x_i, i > 1, gets that many fields
    plus one and never wraps; x_1 is the top of the int, and x_1^o_1 = 1 is
    reduction mod modulus = 2^(8 nb F) - 1, F = o_1 times the fields of
    x_2 ... x_m.  An entry fills span fields; src gathers the n^2 entries
    from their flat reduced coefficients with a 0 appended (None when they
    already are the layout).

    Every coefficient of the determinant, wrapped or not, is a signed sum of
    at most n! |G|^(n-1) products of n entries below pk, so at most bound =
    n! |G|^(n-1) (pk - 1)^n in absolute value: with bound added (offset) it
    fits bitlen(bound) + 1 bits, rounded up to bytes, and to 1, 2, 4 or 8
    bytes for snf._pack's array path.  fold[f] is the group index of field
    f, exponents mod o_i (None when it is f), and base[j] = -bound #{f :
    fold[f] = j} mod pk takes the offset back out.
    """
    size = prod(orders)
    bound = factorial(n) * size ** (n - 1) * (pk - 1) ** n
    nb = -(-(bound.bit_length() + 1) // 8)
    if nb <= 8:
        nb = 1 << (nb - 1).bit_length()
    layout = list(itertools.product(*map(range, orders[:1]),
                                    *(range(n * (o - 1) + 1) for o in orders[1:])))
    index = {e: j for j, e in enumerate(itertools.product(*map(range, orders)))}
    fold = [index[tuple(x % o for x, o in zip(e, orders))] for e in layout]
    base = [0] * size
    for j in fold:
        base[j] = (base[j] - bound) % pk
    modulus, offset = (1 << (8 * nb * len(layout))) - 1, _pack([bound] * len(layout), nb)
    if fold == list(range(size)):
        return nb, size, None, modulus, offset, None, tuple(base)
    entry = [index.get(e, -1) for e in layout[:layout.index(tuple(o - 1 for o in orders)) + 1]]
    src = tuple(t * size + i if i >= 0 else -1 for t in range(n * n) for i in entry)
    return nb, len(entry), src, modulus, offset, tuple(fold), tuple(base)


def _packed_det(m, n):
    """The determinant of the n x n matrix of ints whose rows, read in
    order, are the list m, n >= 2: closed forms up to n = 3, the cofactor
    expansion along the first row above."""
    if n == 2:
        a, b, c, d = m
        return a * d - b * c
    if n == 3:
        a, b, c, d, e, f, g, h, i = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    acc = 0
    for j, x in enumerate(m[:n]):
        if x:
            term = x * _packed_det([y for i, y in enumerate(m[n:]) if i % n != j], n - 1)
            acc = acc - term if j % 2 else acc + term
    return acc


def _index_map(source: AbelianGroup, apply_map, target: AbelianGroup) -> list:
    """imap[i] = index in target of apply_map(elems[i]), elems of source."""
    elems, _ = group_index(source)
    _, index = group_index(target)
    return [index[apply_map(g)] for g in elems]


def from_mapping(group: AbelianGroup, mapping) -> list:
    """The element sum_g mapping[g] g of Z[G], from a mapping exponent tuple
    -> int."""
    _, index = group_index(group)
    out = [0] * len(index)
    for g, v in mapping.items():
        out[index[g]] += v
    return out


def apply_character(chi: Character, f) -> list:
    """chi(f)(u) for f in Z[G][u], the list of its coefficient lists of u:
    each coefficient is summed by log value into Z[x]/(x^N - 1), which is
    reduced mod Phi_N once, and trailing zero values are dropped.  The log
    table is built once per call; an element x of Z[G] is f = [x]."""
    ring = chi.ring
    table = chi.log_table()
    out = []
    for x in f:
        vec = [0] * ring.n
        for lv, v in zip(table, x):
            if v:
                vec[lv] += v
        out.append(ring.reduce(vec))
    while out and ring.is_zero(out[-1]):
        out.pop()
    return out


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


class _FlatZpkModule:
    """A finite ring whose elements are flat lists of basis_size coefficients
    mod p^k, which are their own Z/p^k coordinate vectors and compare with
    ==: the Z/p^k-module operations of ZpkGroupRing and PolyGroupRing.
    Each of them reads the mult_rows that mult_matrix asks of it off
    translation rows, and ZpkGroupRing adds det, on packed ints
    (_det_plan), which fitting_ideal needs.  Operations return new lists and
    never mutate their arguments."""

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

    def sub(self, a, b):
        pk = self.pk
        return [(x - y) % pk for x, y in zip(a, b)]

    def scale_int(self, c, a):
        pk = self.pk
        return [(c * x) % pk for x in a]

    def from_vec(self, vec):
        pk = self.pk
        return [v % pk for v in vec]


class ZpkGroupRing(_FlatZpkModule):
    """Z/p^k[G] for a finite abelian group G.

    An element is the list of its |G| coefficients mod p^k, indexed like
    elems = group_index(group)[0] (identity at index 0).  Its groups are
    small, so it builds the translation rows of every element once: the
    rows g h of mul and the rows t g^-1 of mult_rows.  Z/p^k is the ring of
    TRIVIAL_GROUP, whose elements are lists of one coefficient.
    """

    def __init__(self, p: int, k: int, group: AbelianGroup):
        super().__init__(p, k, group.order)
        self.group = group
        self.elems = group_index(group)[0]
        self._rows = [translation(group, g) for g in self.elems]
        self._inv_rows = [translation(group, t, -1) for t in self.elems]

    def from_mapping(self, mapping):
        """The element sum_g mapping[g] g, from a mapping exponent tuple -> int."""
        return self.from_vec(from_mapping(self.group, mapping))

    def mul(self, a, b):
        """The convolution of a and b along the translation rows, reduced
        once."""
        rows = self._rows
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * len(a)
        for i, x in enumerate(a):
            if x:
                row = rows[i]
                for j, y in b_terms:
                    out[row[j]] += x * y
        pk = self.pk
        return [v % pk for v in out]

    def mult_rows(self, e) -> list:
        """b_i * e is the translate of e by elems[i], a permutation of the
        coefficients of e: entry (t, g) is the coefficient of e at t g^-1, and
        no product is formed."""
        return [[e[j] for j in row] for row in self._inv_rows]

    def det(self, mat):
        """Determinant of a square matrix over the ring, by Kronecker
        substitution: each entry, reduced mod p^k, becomes one int in the
        layout of _det_plan, the determinant of those ints is taken
        (_packed_det), and its fields are read once and folded back onto
        the group.  Entries may be any ints."""
        n = len(mat)
        if n < 2:
            return self.from_vec(mat[0][0]) if mat else self.one
        pk = self.pk
        nb, span, src, modulus, offset, fold, base = _det_plan(self.group.orders, n, pk)
        flat = [v % pk for row in mat for e in row for v in e]
        if src is not None:
            flat.append(0)
            flat = [flat[i] for i in src]
        # one pack of all n^2 entries, read back as n^2 fields of span * nb bytes
        det = _packed_det(_unpack(_pack(flat, nb), span * nb, n * n), n)
        vals = _unpack((det + offset) % modulus, nb, len(fold or base))
        if fold is None:
            return [(v + c) % pk for v, c in zip(vals, base)]
        out = list(base)
        for j, v in zip(fold, vals):
            out[j] += v
        return [v % pk for v in out]

    def describe(self):
        return f"Z/{self.p}^{self.k}[G{list(self.group.orders)}]"


class PolyGroupRing(_FlatZpkModule):
    """Z/p^k[u]/(h)[G] for a monic h and a finite abelian group G.

    An element is the flat list of |G| blocks of deg h coefficients mod p^k;
    block i holds the coefficient of the i-th element of group_index(group),
    a polynomial in u mod h.  Its two uses are the chi-components Z_p(chi)[P]
    (h a Hensel-lifted factor of Phi_ord(chi), G the p-part P) and the
    truncated series Z/p^k[G][u]/(u^M) (h = u^M).  G may be a whole layer
    group, so the ring holds no table: mul and mult_rows build each
    translation row when they need it.
    """

    def __init__(self, p: int, k: int, h, group: AbelianGroup):
        super().__init__(p, k, group.order * (len(h) - 1))
        self.h = tuple(c % self.pk for c in h)
        self.deg = len(self.h) - 1
        self.group = group

    def _reduce(self, vec):
        """The polynomial vec (ascending, any length) mod (h, p^k), as a block
        of deg coefficients."""
        rem = zpoly.div_rem(vec, self.h, self.pk)[1]
        return rem + [0] * (self.deg - len(rem))

    def _blocks(self, a):
        """(i, block i) for every nonzero block of a."""
        d = self.deg
        return [(i, a[i * d:(i + 1) * d])
                for i in dict.fromkeys(j // d for j, c in enumerate(a) if c)]

    def mul(self, a, b):
        """The block convolution of a and b, one translation row per nonzero
        block of a (so a should be the sparser factor); only the blocks that
        a product reaches are reduced."""
        d, group = self.deg, self.group
        elems = group_index(group)[0]
        b_blocks = self._blocks(b)
        acc = [None] * group.order
        for i, x in self._blocks(a):
            row = translation(group, elems[i])
            for j, y in b_blocks:
                buf = acc[row[j]]
                if buf is None:
                    buf = acc[row[j]] = [0] * (2 * d - 1)
                for s, xs in enumerate(x):
                    if xs:
                        for r, yr in enumerate(y):
                            buf[s + r] += xs * yr
        zero = [0] * d
        return [c for buf in acc for c in (zero if buf is None else self._reduce(buf))]

    def mult_rows(self, e) -> list:
        """Column (g, i) is u^i e translated by g, u^i the i-th basis element
        of a block, so entry ((t, s), (g, i)) is coefficient s of block
        t g^-1 of u^i e.  For monic h, u b = (0, b_0, ..., b_(d-2)) -
        b_(d-1) (h - u^d) mod p^k, block by block, so no division runs;
        one translation row is built per t, and no product is formed."""
        d, h, pk, group = self.deg, self.h, self.pk, self.group
        ys = [e]
        for _ in range(d - 1):
            y = ys[-1]
            ys.append([(c - y[b + d - 1] * hc) % pk for b in range(0, len(y), d)
                       for c, hc in zip([0] + y[b:b + d - 1], h)])
        out = []
        for t in group_index(group)[0]:
            starts = [j * d for j in translation(group, t, -1)]
            out.extend([y[b + s] for b in starts for y in ys] for s in range(d))
        return out

    def is_local_unit(self, a) -> bool:
        """Whether a is a unit, for h irreducible mod p and G a p-group.  The
        ring is then local, so a is a unit iff its G-augmentation, the sum
        of its |G| blocks, is nonzero mod p."""
        d, p = self.deg, self.p
        return any(sum(a[s::d]) % p for s in range(d))


# ---------------------------------------------------------------------------
# chi-components
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lifted_cyclotomic_factors(M: int, p: int, k: int):
    """The first irreducible factor g of Phi_M mod p (M coprime to p),
    Hensel-lifted to p^k against its cofactor Phi_M / g."""
    if M % p == 0:
        raise ValueError("chi order must be prime to p")
    phi = cyclotomic_polynomial(M)
    F = FqField(p)
    phi_p = FqPoly(F, [c % p for c in phi])
    facs = fq_factor(phi_p)
    if any(m > 1 for _, m in facs):
        raise ArithmeticError("Phi_M mod p is not squarefree")  # impossible for p coprime to M
    g = facs[0][0]
    g_lift, h_lift = hensel_lift_pair(list(phi), list(g.coeffs), list((phi_p // g).coeffs), p, k)
    pk = p ** k
    if zpoly.sub(zpoly.mul(g_lift, h_lift, pk), phi, pk):
        raise ArithmeticError("Hensel lift failed to reconstruct Phi_M")
    return tuple(g_lift)


def chi_component_ring(chi: Character, p: int, k: int, p_group: AbelianGroup) -> PolyGroupRing:
    """Z_p(chi)[P] at precision p^k, with the first lifted factor of
    Phi_ord(chi); for the trivial chi that is Phi_1 = u - 1, so Z_p(chi) =
    Z_p."""
    return PolyGroupRing(p, k, _lifted_cyclotomic_factors(chi.order, p, k), p_group)


def chi_component(group: AbelianGroup, x, chi: Character, ring: PolyGroupRing,
                  delta_idx, p_idx):
    """Project Z/p^k[G] -> Z_p(chi)[P], x in Z[G] or Z/p^k[G] a coefficient
    list of G = group: g = (g_Delta, g_P) -> chi(g_Delta) [g_P], with
    chi(g_Delta) = zeta_M^j read as u^j mod h, M = ord chi.

    delta_idx / p_idx give the coordinate split of G; chi is a character of
    the Delta-part, the group of the coordinates delta_idx.
    """
    out = ring.zero
    d = ring.deg
    M = chi.order
    upow = [ring._reduce([0] * j + [1]) for j in range(M)]
    N_delta = chi.group.exponent
    _, pindex = group_index(ring.group)
    for kk, v in zip(group_index(group)[0], x):
        if not v:
            continue
        lv = chi.log_value(tuple(kk[i] for i in delta_idx))
        # chi(g) = zeta_{N_delta}^lv; rewrite as power of zeta_M (M = ord chi | N_delta)
        if lv * M % N_delta:
            raise ArithmeticError("character value outside mu_M")
        base = pindex[tuple(kk[i] for i in p_idx)] * d
        for i, c in enumerate(upow[lv * M // N_delta]):
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
    single row [x] this is the matrix of multiplication by x, ring.mult_rows.
    """
    stacked = [[r for e in row for r in ring.mult_rows(e)] for row in rows]
    if len(stacked) == 1:
        return stacked[0]
    return [list(itertools.chain.from_iterable(parts)) for parts in zip(*stacked)]


def is_unit(x, ring):
    """(bool, inverse) in a finite ring; inverse verified exactly."""
    mat = mult_matrix(ring, [[x]])
    sol = zpk_solve(mat, ring.one, ring.p, ring.k)
    if sol is None:
        return False, None
    inv = ring.from_vec(sol)
    if ring.mul(x, inv) != ring.one:
        return False, None
    return True, inv


class PresentationMatrix:
    """rows x cols matrix over a finite ring; generators are the columns."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows: list):
        self.ring = ring
        self.rows = rows

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0


def fitting_ideal(pm: PresentationMatrix) -> list:
    """Generators of the 0-th Fitting ideal: all ncols x ncols minors of the
    relation matrix.  No columns give [one]; fewer rows than columns give no
    minor, [], the zero ideal."""
    ring = pm.ring
    if pm.ncols == 0:
        return [ring.one]
    return [ring.det([pm.rows[i] for i in ri])
            for ri in itertools.combinations(range(len(pm.rows)), pm.ncols)]


def ideal_contains(ring, gens, target) -> bool:
    """target in the ideal generated by gens.

    A target that is zero, or equal to g or -g for a generator g, is in the
    ideal (0 = 0 g and +-g = +-1 g); that is read off the reduced
    coefficient lists, and no matrix is built.  Any other
    target is decided by Z/p^k linear algebra: it is in the ideal iff it is
    in the Z/p^k-span of the columns of mult_matrix, the products b_i g.
    """
    neg = ring.sub(ring.zero, target)
    if not any(target) or any(g == target or g == neg for g in gens):
        return True
    if not gens:
        return False
    mat = mult_matrix(ring, [[g] for g in gens])
    return zpk_solve(mat, target, ring.p, ring.k) is not None


def ideal_equal(I, J, ring) -> bool:
    """Mutual containment of two finitely generated ideals in a finite ring,
    each generator tested by ideal_contains.  So ideals whose generators
    agree up to sign, such as the Fitting ideals of two presentations whose
    determinants differ by the sign of a column permutation, are found equal
    without elimination."""
    return all(ideal_contains(ring, J, g) for g in I) and \
        all(ideal_contains(ring, I, g) for g in J)


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


@lru_cache(maxsize=None)
def delta_orbits(group: AbelianGroup, p: int):
    """(delta_idx, p_idx, reps, orbit) for the p-split G = Delta x P of
    group (AbelianGroup.p_partition), with reps, orbit =
    character_orbits(characters(Delta), p), built once per (group, p).
    Block b of delta_blocks is orbit b, so orbit maps the exponents of a
    character of Delta to its block."""
    delta_idx, p_idx = group.p_partition(p)
    delta = AbelianGroup(tuple(group.orders[i] for i in delta_idx))
    reps, orbit = character_orbits(characters(delta), p)
    return delta_idx, p_idx, reps, orbit


def delta_blocks(group: AbelianGroup, x, p: int, k: int) -> list:
    """(ring, image of x) in Z_p(chi)[P] at precision p^k for one character
    chi of Delta per Frobenius orbit chi ~ chi^p, x in Z[G], where G =
    Delta x P is the p-split of group; block b is orbit b of delta_orbits.  p does not
    divide |Delta|, so Z/p^k[G] is the product of these rings and their
    ranks add up to |G|.  Raises ValueError (AbelianGroup.p_partition) when
    a generator order is neither prime to p nor a power of p, as in C6 with
    p = 2.
    """
    delta_idx, p_idx, reps, _ = delta_orbits(group, p)
    pgroup = AbelianGroup(tuple(group.orders[i] for i in p_idx))
    blocks = []
    for chi in reps:
        ring = chi_component_ring(chi, p, k, pgroup)
        blocks.append((ring, chi_component(group, x, chi, ring, delta_idx, p_idx)))
    return blocks


def block_exponents(blocks) -> list:
    """The sorted union of the Smith exponents e > 0 of multiplication by img
    on each block ring of blocks (delta_blocks).  A unit img adds none
    (PolyGroupRing.is_local_unit), so only the other blocks are
    eliminated."""
    exps = []
    for ring, img in blocks:
        if not ring.is_local_unit(img):
            exps.extend(zpk_cokernel_exponents(mult_matrix(ring, [[img]]), ring.p, ring.k))
    return sorted(exps)


def quotient_exponents(group: AbelianGroup, x, p: int, k: int) -> list:
    """The exponents e_i > 0 with Z/p^k[G] / (x) = prod Z/p^(e_i), x in Z[G]
    and G = group, sorted:
    the Smith exponents of multiplication by x, block by block.  Needs the
    p-split G = Delta x P, which every layer group has; raises ValueError
    without it (delta_blocks).  Their sum is quotient_order_exponent and
    their maximum is tower.nzd_slack."""
    return block_exponents(delta_blocks(group, x, p, k))


def quotient_order_exponent(group: AbelianGroup, x, p: int, k: int) -> int:
    """log_p |Z/p^k[G] / (x)|, G = group: the sum of quotient_exponents."""
    return sum(quotient_exponents(group, x, p, k))


def delta_idempotent(group: AbelianGroup, delta_idx, p: int, k: int):
    """e_Delta = (1/|Delta|) sum_{delta} delta in Z/p^k[G]."""
    size = prod(group.orders[i] for i in delta_idx)
    if size % p == 0:
        raise ValueError("p divides |Delta|")
    inv = pow(size, -1, p ** k)
    # g lies in Delta iff its coordinates off delta_idx vanish
    off = [i for i in range(len(group.orders)) if i not in delta_idx]
    elems, _ = group_index(group)
    return [0 if any(g[i] for i in off) else inv for g in elems]


def _adjoin_diagonal(pm: PresentationMatrix, c) -> PresentationMatrix:
    """pm with the rows c * e_j (j < ncols) adjoined: a presentation of M / cM."""
    ring = pm.ring
    c_r = ring.from_vec(c)
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
    return _adjoin_diagonal(pm, ring.sub(ring.one, e))


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
        if any(r):
            gens.append(r)
    return PresentationMatrix(ring, [[r] for r in gens] if gens else [[ring.zero]])
