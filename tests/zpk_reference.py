"""The dict-keyed group rings as they stood before the flat coefficient
lists, kept verbatim (only the names are renamed) as the oracles that the
flat code of ctower.grouprings and ctower.lfun is tested against.  An
element is a dict from exponent tuples to its nonzero coefficients:

- ReferenceZpkGroupRing, the old Z/p^k[G]; its from_group_ring reads a
  flat coefficient list of Z[G] (group_index order);
- ReferenceGroupRingElem, the old Z[G] (Theta and its coefficients);
- ReferenceChiComponentRing and reference_chi_component, whose elements map
  P-elements to coefficient tuples of length deg h;
- the two dict series multipliers and the Euler and divisor-sum series
  built on them.

It also keeps reference_quotient_exponents, the Smith exponents of
multiplication by x from one elimination of the |G| x |G| matrix, as the
oracle of the block-by-block grouprings.quotient_exponents;
triangular_exponents, the exponents of snf._triangular, as the oracle of
the packed pass of snf.zpk_exponents; and the generic
mult_matrix and Fitting minors as they stood before Z/p^k[G] read its basis
products and minors off the index table (reference_mult_matrix_rows,
reference_fitting_generators).

Two past forms of ZpkGroupRing.det are the oracles of its Kronecker
substitution.  reference_det is the generic cofactor expansion along the
first row, every product and sum a reduced ring operation: det as it stood
before Z/p^k[G] read its minors off the index table.  reference_cofactor_det
is the index-table expansion, each cofactor product formed by _convolve (the
unreduced product of Z[G], as it stood before ZpkGroupRing.mul took it in)
and reduced once at the end: det as it stood before it added those products
into one list in place.  That in-place form, the last before the packed
ints, formed the same unreduced sums, so it needs no oracle of its own.

The two reductions that ran their own loops before zpoly.div_rem was the
one division: reference_cyclotomic_reduce, CyclotomicRing.reduce by a table
of x^j mod Phi_N that held only j <= max(2 deg - 2, N - 1), and
reference_poly_reduce, PolyGroupRing._reduce mod (h, p^k).  And the Sigma
factor as a product in Z[G][u], reference_sigma_factor_poly (formerly
geometry.sigma_factor_poly, formed by the products of Z[G] and of the
polynomials in u over it), with reference_sigma_factor_norm, its norm over
every character (formerly the norm_poly of those polynomials).

Then the finite rings as they stood before every one was a flat coefficient
list: ReferenceZpkRing, Z/p^k with int elements, and ReferenceTruncPolyRing,
base[u]/(u^M) with tuples of M base elements, both on the generic
basis_products, mult_rows and det of _ReferenceFiniteRing.  The flat
Z/p^k[G][u]/(u^M) holds one block of M coefficients per group element, the
transpose of ReferenceTruncPolyRing.to_vec (to_group_major).

mul_table, the |G| x |G| index table that every group ring read its
products and multiplication matrices off before each row came from
grouprings.translation, is the oracle of translation; reference_cofactor_det
reads it.

Then reference_coherent_extra, the enumeration of the top ring of a toy
projective system that coherent_nzd_check ran before it read its count off
Smith exponents.

Last, reference_per_character_euler_product, lfun.per_character_euler_product
as it stood before it rotated coefficient vectors in Z[x]/(x^N - 1): one
CyclotomicRing.mul per step, with chi(g) from reference_zeta_pow and the
products by q^d from reference_scale, the CyclotomicRing.zeta_pow and
CyclotomicRing.scale of that code.
"""

import itertools as it
from functools import lru_cache

from ctower.abelian import AbelianGroup
from ctower.ffpoly import FqPoly
from ctower.grouprings import (
    Character,
    ZpkGroupRing,
    character_norm,
    characters,
    cyclotomic_polynomial,
    from_mapping,
    group_index,
    mult_matrix,
)
from ctower.lfun import euler_factors
from ctower.snf import _triangular, zpk_cokernel_exponents


class ReferenceZpkGroupRing:
    """Z/p^k[G] for a finite abelian group G."""

    def __init__(self, p: int, k: int, group: AbelianGroup):
        self.p, self.k = p, k
        self.pk = p ** k
        self.group = group
        self.elems = sorted(group.elements())
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.basis_size = len(self.elems)

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {self.group.identity: 1}

    def from_group_ring(self, x: list):
        """The element of the flat coefficient list x of Z[G]."""
        return {k: v % self.pk for k, v in zip(self.elems, x) if v % self.pk}

    def add(self, a, b):
        out = dict(a)
        for kk, v in b.items():
            w = (out.get(kk, 0) + v) % self.pk
            if w:
                out[kk] = w
            else:
                out.pop(kk, None)
        return out

    def neg(self, a):
        return {kk: (-v) % self.pk for kk, v in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        g = self.group
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                kk = g.mul(k1, k2)
                out[kk] = (out.get(kk, 0) + v1 * v2) % self.pk
        return {kk: v for kk, v in out.items() if v}

    def scale_int(self, c, a):
        return {kk: (c * v) % self.pk for kk, v in a.items() if (c * v) % self.pk}

    def to_vec(self, a):
        vec = [0] * self.basis_size
        for kk, v in a.items():
            vec[self.index[kk]] = v % self.pk
        return vec

    def from_vec(self, vec):
        return {self.elems[i]: v % self.pk for i, v in enumerate(vec) if v % self.pk}

    def equal(self, a, b):
        return self.to_vec(a) == self.to_vec(b)

    def describe(self):
        return f"Z/{self.p}^{self.k}[G{list(self.group.orders)}]"


class ReferenceGroupRingElem:
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
        return ReferenceGroupRingElem(self.group, out)

    def __neg__(self):
        return ReferenceGroupRingElem(self.group, {k: -v for k, v in self.coeffs.items()})

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
        return ReferenceGroupRingElem(g, out)

    def scale(self, c: int):
        return ReferenceGroupRingElem(self.group, {k: c * v for k, v in self.coeffs.items()})

    def translate(self, elem):
        """Multiplication by the group element elem."""
        g = self.group
        return ReferenceGroupRingElem(g, {g.mul(k, elem): v for k, v in self.coeffs.items()})

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

    def project(self, apply_map, target_group) -> "ReferenceGroupRingElem":
        out = {}
        for k, v in self.coeffs.items():
            kk = apply_map(k)
            out[kk] = out.get(kk, 0) + v
        return ReferenceGroupRingElem(target_group, out)

    def __eq__(self, other):
        return isinstance(other, ReferenceGroupRingElem) and self.group == other.group and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*g{list(k)}" for k, v in sorted(self.coeffs.items()))

    def to_json(self):
        return {"group_orders": list(self.group.orders),
                "coeffs": {",".join(map(str, k)): v for k, v in sorted(self.coeffs.items())}}


def reference_product(group: AbelianGroup, a: list, b: list) -> list:
    """a * b in Z[G] for flat coefficient lists of G = group, formed by
    ReferenceGroupRingElem."""
    ra, rb = (ReferenceGroupRingElem(group, dict(zip(group_index(group)[0], x)))
              for x in (a, b))
    return from_mapping(group, (ra * rb).coeffs)


class ReferenceChiComponentRing:
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


def reference_chi_component(x: ReferenceGroupRingElem, chi: Character,
                            ring: ReferenceChiComponentRing, delta_idx, p_idx):
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


def _series_mul_inverse_factor(series, group, sigma_inv, d, D):
    # multiply by (1 - sigma^{-1} u^d)^{-1}: ascending prefix accumulation
    for i in range(d, D + 1):
        src = series[i - d]
        if not src:
            continue
        dst = series[i]
        for k, v in src.items():
            kk = group.mul(k, sigma_inv)
            dst[kk] = dst.get(kk, 0) + v
    return series


def _series_mul_forward_factor(series, group, sigma_inv, d, D, scale):
    # multiply by (1 - scale * sigma^{-1} u^d): descending, uses old values
    for i in range(D, d - 1, -1):
        src = series[i - d]
        if not src:
            continue
        dst = series[i]
        for k, v in src.items():
            kk = group.mul(k, sigma_inv)
            dst[kk] = dst.get(kk, 0) - scale * v
    return series


def _clean(series):
    return [{k: v for k, v in layer.items() if v} for layer in series]


def reference_euler_series(layer, D: int):
    """Truncated series for Theta_{S,Sigma} through degree D."""
    group = layer.group
    q = layer.field.q
    series = [dict() for _ in range(D + 1)]
    series[0][group.identity] = 1
    for fac in euler_factors(layer, D):
        sigma_inv = group.inv(fac.frobenius)
        if fac.mode == "S-inverse":
            _series_mul_inverse_factor(series, group, sigma_inv, fac.degree, D)
        else:
            _series_mul_forward_factor(series, group, sigma_inv, fac.degree, D,
                                       q ** fac.degree)
    return _clean(series)


def reference_divisor_sum_series(layer, D: int):
    """Independent recomputation: sum over effective divisors off S.

    The u^j coefficient of prod_{v not in S} (1 - sigma_v^{-1} u^{d_v})^{-1}
    is sum over effective divisors of degree j supported off S of the inverse
    Artin class; finite parts are monic polynomials coprime to the finite
    S-places, infinite parts contribute trivially when infinity is off S.
    Sigma factors are then multiplied in polynomially.
    """
    field = layer.field
    group = layer.group
    q = field.q
    s_gens = [v.gen for v in layer.finite_s()]
    base = [dict() for _ in range(D + 1)]
    for d in range(0, D + 1):
        target = base[d]
        if d == 0:
            target[group.identity] = 1
            continue
        for tail in it.product(range(q), repeat=d):
            a = FqPoly(field, tail + (1,))
            if any((a % g).is_zero() for g in s_gens):
                continue
            k = group.inv(layer.class_of(a))
            target[k] = target.get(k, 0) + 1
    if not layer.infinity_in_s():
        # multiply by (1 - u)^{-1} for the (trivial-Frobenius) infinite place
        _series_mul_inverse_factor(base, group, group.identity, 1, D)
    for v in sorted(layer.sigma, key=lambda v: v.gen.sort_key()):
        sigma = layer.frobenius(v)
        _series_mul_forward_factor(base, group, group.inv(sigma), v.degree, D, q ** v.degree)
    return _clean(base)


def reference_quotient_exponents(group: AbelianGroup, x: list, p: int, k: int) -> list:
    """The exponents e_i > 0 with Z/p^k[G] / (x) = prod Z/p^(e_i), x a flat
    coefficient list of Z[G], G = group: the Smith exponents of
    multiplication by x, from one elimination.  Their sum is
    quotient_order_exponent and their maximum is tower.nzd_slack."""
    ring = ZpkGroupRing(p, k, group)
    return zpk_cokernel_exponents(mult_matrix(ring, [[ring.from_vec(x)]]), p, k)


def triangular_exponents(mat, p, k):
    """The pivot exponents of the triangular pass, padded as zpk_exponents
    pads them: the oracle of the packed pass that zpk_exponents runs."""
    cols = len(mat[0]) if mat else 0
    vals = _triangular(mat, p, k)[1]
    return vals + [k] * (min(len(mat), cols) - len(vals))


def reference_mult_matrix_rows(ring, rows):
    """Z/p^k matrix whose columns span the R-submodule of R^g generated by
    rows: column (r, i) is vec(b_i * e) for the entries e of row r, each a
    ring product.  ring is a dict-keyed ring with its to_vec, or a flat one
    of ctower.grouprings, whose elements are their own vectors."""
    to_vec = getattr(ring, "to_vec", list)
    n = ring.basis_size
    basis = [ring.from_vec([0] * i + [1] + [0] * (n - 1 - i)) for i in range(n)]
    cols = []
    for row in rows:
        for b in basis:
            col = []
            for e in row:
                col.extend(to_vec(ring.mul(b, e)))
            cols.append(col)
    return [list(r) for r in zip(*cols)]


def reference_det(ring, mat):
    n = len(mat)
    if n == 0:
        return ring.one
    if n == 1:
        return mat[0][0]
    acc = ring.zero
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = ring.mul(mat[0][j], reference_det(ring, sub))
        acc = ring.add(acc, term) if j % 2 == 0 else ring.sub(acc, term)
    return acc


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


def reference_cofactor_det(ring, mat):
    """ZpkGroupRing.det as it stood before it added each cofactor's products
    straight into its accumulator: the cofactor expansion along the first
    row, each product formed by _convolve and added with its sign, reduced
    mod p^k once."""
    table = mul_table(ring.group)

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

    return ring.from_vec(raw(mat)) if mat else ring.one


def reference_fitting_generators(ring, rows):
    """All ncols x ncols minors of the relation matrix rows, reduced after
    every ring operation; None when there are fewer rows than columns."""
    cols = len(rows[0]) if rows else 0
    if cols == 0:
        return [ring.one]
    if len(rows) < cols:
        return None
    return [reference_det(ring, [rows[i] for i in ri])
            for ri in it.combinations(range(len(rows)), cols)]


class _ReferenceFiniteRing:
    """What the linear algebra below asks of a finite ring beyond its
    operations, built from mul alone (mult_rows is what mult_matrix reads);
    ZpkGroupRing overrides them with index-table versions."""

    def basis_products(self, e) -> list:
        """vec(b_i * e) for the Z/p^k basis elements b_i, i < basis_size."""
        n = self.basis_size
        return [self.to_vec(self.mul(self.from_vec([0] * i + [1] + [0] * (n - 1 - i)), e))
                for i in range(n)]

    def mult_rows(self, e) -> list:
        """The rows of the matrix of multiplication by e: column i is
        vec(b_i * e)."""
        return [list(r) for r in zip(*self.basis_products(e))]

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


class ReferenceZpkRing(_ReferenceFiniteRing):
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



class ReferenceTruncPolyRing(_ReferenceFiniteRing):
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
        # a flat base ring of ctower.grouprings has no to_vec: its elements
        # are their own vectors
        base_vec = getattr(self.base, "to_vec", list)
        vec = []
        for x in a:
            vec.extend(base_vec(x))
        return vec

    def from_vec(self, vec):
        n = self.base.basis_size
        return tuple(self.base.from_vec(vec[i * n:(i + 1) * n]) for i in range(self.M))

    def equal(self, a, b):
        return self.to_vec(a) == self.to_vec(b)

    def to_group_major(self, a):
        """to_vec(a) transposed to the layout of the flat Z/p^k[G][u]/(u^M)
        (PolyGroupRing with h = u^M): block g holds the M coefficients of
        the g-th base coordinate."""
        vec, n = self.to_vec(a), self.base.basis_size
        return [vec[i * n + g] for g in range(n) for i in range(self.M)]

    def from_group_major(self, vec):
        """The element whose to_group_major is vec."""
        n = self.base.basis_size
        return self.from_vec([vec[g * self.M + i] for i in range(self.M) for g in range(n)])

    def describe(self):
        return f"{self.base.describe()}[u]/(u^{self.M})"


def reference_coherent_extra(sys) -> int:
    """The elements of the top ring of the toy projective system sys whose
    images all lie in the ideals alpha_m R_m but which are not in
    alpha_T R_T, counted by enumeration of the top ring, with each ideal the
    set of all products x alpha_m: the oracle of the conclusion of
    ctower.tower.coherent_nzd_check, which holds when there is none, read
    off Smith exponents."""
    ideals = [{tuple(ring.mul(list(x), alpha))
               for x in it.product(range(ring.pk), repeat=ring.basis_size)}
              for ring, alpha in zip(sys.rings, sys.alpha)]
    top = sys.rings[-1]
    extra = 0
    for vec in it.product(range(top.pk), repeat=top.basis_size):
        img = list(vec)
        for m in range(len(sys.rings) - 2, -1, -1):
            img = sys.transitions[m](img)
            if tuple(img) not in ideals[m]:
                break
        else:
            extra += vec not in ideals[-1]
    return extra


@lru_cache(maxsize=None)
def _cyclotomic_table(n: int):
    """x^j mod Phi_n for degree <= j <= max(2 degree - 2, n - 1)."""
    phi = cyclotomic_polynomial(n)
    degree = len(phi) - 1
    red = {}
    # x^degree = -(phi minus leading)
    base = [-c for c in phi[:-1]]
    red[degree] = base
    top_needed = max(2 * degree - 2, n - 1)
    for j in range(degree + 1, top_needed + 1):
        prev = red[j - 1]
        shifted = [0] + prev[:-1]
        top = prev[-1]
        red[j] = [s + top * b for s, b in zip(shifted, base)]
    return degree, red


def reference_cyclotomic_reduce(n: int, vec):
    """vec mod Phi_n by the table: KeyError for an entry of degree above
    max(2 deg - 2, n - 1)."""
    degree, red = _cyclotomic_table(n)
    vec = list(vec)
    for j in range(len(vec) - 1, degree - 1, -1):
        c = vec[j]
        if c:
            for i, r in enumerate(red[j]):
                vec[i] += c * r
        vec.pop()
    vec.extend([0] * (degree - len(vec)))
    return tuple(vec)


def reference_poly_reduce(vec, h, pk):
    """The polynomial vec (ascending, any length) mod (h, pk), h monic with
    coefficients in [0, pk), as a block of deg h coefficients."""
    vec = list(vec)
    d = len(h) - 1
    for j in range(len(vec) - 1, d - 1, -1):
        c = vec[j]
        if c:
            for i in range(d + 1):
                vec[j - d + i] -= c * h[i]
    vec.extend([0] * (d - len(vec)))
    return [v % pk for v in vec[:d]]


def reference_sigma_factor_poly(layer) -> list:
    """prod_{v in Sigma} (1 - sigma_v^{-1} (qu)^{d_v}) in Z[G][u]: the list of
    its ReferenceGroupRingElem coefficients, ascending in u."""
    group = layer.group
    q = layer.field.q
    one, zero = ReferenceGroupRingElem.one(group), ReferenceGroupRingElem.zero(group)
    acc = [one]
    for v in sorted(layer.sigma, key=lambda v: v.gen.sort_key()):
        sigma_inv = group.inv(layer.frobenius(v))
        factor = [one] + [zero] * (v.degree - 1) + \
            [ReferenceGroupRingElem(group, {sigma_inv: -(q ** v.degree)})]
        out = [zero] * (len(acc) + len(factor) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(factor):
                out[i + j] = out[i + j] + a * b
        acc = out
    return acc


def reference_sigma_factor_norm(layer) -> list:
    """prod over every character chi of chi(Sigma factor)(u), in Z[u]."""
    coeffs = reference_sigma_factor_poly(layer)
    return character_norm(layer.group, [[c.apply_character(chi) for c in coeffs]
                                        for chi in characters(layer.group)])


def reference_zeta_pow(ring, j: int):
    """zeta_N^j in the CyclotomicRing ring of N = ring.n."""
    return ring.reduce([0] * (j % ring.n) + [1])


def reference_scale(c: int, a):
    """c a for a in a CyclotomicRing."""
    return tuple(c * x for x in a)


def reference_per_character_euler_product(layer, chi: Character, D: int):
    """chi(Theta) computed directly in the cyclotomic ring (independent path)."""
    ring = chi.ring
    series = [list(ring.zero) for _ in range(D + 1)]
    series[0] = list(ring.one)
    q = layer.field.q

    def mul_inverse(zeta, d):
        for i in range(d, D + 1):
            term = ring.mul(tuple(series[i - d]), zeta)
            series[i] = list(ring.add(tuple(series[i]), term))

    def mul_forward(zeta, d, scale):
        for i in range(D, d - 1, -1):
            term = reference_scale(-scale, ring.mul(tuple(series[i - d]), zeta))
            series[i] = list(ring.add(tuple(series[i]), term))

    group = layer.group
    for fac in euler_factors(layer, D):
        zeta = reference_zeta_pow(ring, chi.log_value(group.inv(fac.frobenius)))
        if fac.mode == "S-inverse":
            mul_inverse(zeta, fac.degree)
        else:
            mul_forward(zeta, fac.degree, q ** fac.degree)
    out = [tuple(c) for c in series]
    while out and ring.is_zero(out[-1]):
        out.pop()
    return out
