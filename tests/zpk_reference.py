"""The dict-keyed group rings as they stood before the flat coefficient
lists, kept verbatim (only the names are renamed) as the oracles that the
flat code of ctower.grouprings and ctower.lfun is tested against.  An
element is a dict from exponent tuples to its nonzero coefficients:

- ReferenceZpkGroupRing, the old Z/p^k[G]; its from_group_ring reads the
  flat GroupRingElem through items();
- ReferenceGroupRingElem, the old Z[G] (Theta and its coefficients);
- ReferenceChiComponentRing and reference_chi_component, whose elements map
  P-elements to coefficient tuples of length deg h;
- the two dict series multipliers and the Euler and divisor-sum series
  built on them.

It also keeps reference_quotient_exponents, the Smith exponents of
multiplication by x from one elimination of the |G| x |G| matrix, as the
oracle of the block-by-block grouprings.quotient_exponents; and the generic
mult_matrix, determinant and Fitting minors as they stood before Z/p^k[G]
read its basis products and minors off the index table
(reference_mult_matrix_rows, reference_det, reference_fitting_generators).
"""

import itertools as it

from ctower.abelian import AbelianGroup
from ctower.ffpoly import FqPoly
from ctower.grouprings import Character, GroupRingElem, ZpkGroupRing, mult_matrix
from ctower.lfun import euler_factors
from ctower.snf import zpk_cokernel_exponents


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

    def from_group_ring(self, x: GroupRingElem):
        return {k: v % self.pk for k, v in x.items() if v % self.pk}

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

    def reduce_mod(self, modulus: int) -> "ReferenceGroupRingElem":
        return ReferenceGroupRingElem(self.group, {k: v % modulus for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, ReferenceGroupRingElem) and self.group == other.group and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*g{list(k)}" for k, v in sorted(self.coeffs.items()))

    def to_json(self):
        return {"group_orders": list(self.group.orders),
                "coeffs": {",".join(map(str, k)): v for k, v in sorted(self.coeffs.items())}}


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


def reference_quotient_exponents(x: GroupRingElem, p: int, k: int) -> list:
    """The exponents e_i > 0 with Z/p^k[G] / (x) = prod Z/p^(e_i): the Smith
    exponents of multiplication by x, from one elimination.  Their sum is
    quotient_order_exponent and their maximum is tower.nzd_slack."""
    ring = ZpkGroupRing(p, k, x.group)
    return zpk_cokernel_exponents(mult_matrix(ring, [[ring.from_group_ring(x)]]), p, k)


def reference_mult_matrix_rows(ring, rows):
    """Z/p^k matrix whose columns span the R-submodule of R^g generated by
    rows: column (r, i) is vec(b_i * e) for the entries e of row r, each a
    ring product."""
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
