"""Finite layers of the real ray-class tower over k = F_q(theta).

Layer n is G_n = (A/f p^(n+1))^x / F_q^x, the Galois group of the real
ray-class field of conductor f p^(n+1).  Everything idele-theoretic is
realized through (A/m)^x arithmetic, which is valid exactly because k is
rational: h_k = 1, d_infty = 1, and the real Hilbert class field is k
itself.  Frobenius at an unramified finite place is the class of its monic
generator; the infinite place splits completely and has trivial Frobenius.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .abelian import TRIVIAL_GROUP, AbelianGroup, _abelian_basis
from .ffpoly import (
    UNIT_ENUM_BUDGET,
    FinitePlace,
    FqField,
    FqPoly,
    INFINITY,
    factor,
    is_infinite,
    irreducibles_of_degree,
    unit_count,
)

FROBENIUS_CHECKS = 50  # unramified places layer_projection tests Frobenius at


class RamifiedPlaceError(ValueError):
    """Frobenius was requested at a ramified place."""


def default_s(f: FqPoly, p_place: FinitePlace):
    """S = {p} union {v : v | f}, the ramification support."""
    out = {p_place}
    if f.degree >= 1:
        for g, _ in factor(f):
            out.add(FinitePlace(g))
    return frozenset(out)


@dataclass(frozen=True)
class TowerConfig:
    """Tower data (k = F_q(theta), f, p, S, Sigma).

    S must contain the ramification support {p} union {v | f}; Sigma is a
    nonempty set of finite places disjoint from S.  S may also contain the
    infinite place and extra unramified finite places.
    """

    field: FqField
    f: FqPoly
    p_place: FinitePlace
    S: frozenset
    sigma: frozenset

    def __post_init__(self):
        if self.f.is_zero() or not self.f.is_monic():
            raise ValueError("conductor part f must be monic (use 1 for trivial f)")
        if self.p_place.field is not self.field or self.f.field is not self.field:
            raise ValueError("field mismatch in tower configuration")
        if self.f.degree >= 1 and (self.f % self.p_place.gen).is_zero():
            raise ValueError("p must not divide f")
        required = default_s(self.f, self.p_place)
        if not required.issubset(self.S):
            raise ValueError("S must contain the ramification support of the tower")
        if not self.sigma:
            raise ValueError("Sigma must be nonempty")
        if self.S & self.sigma:
            raise ValueError("S and Sigma must be disjoint")
        for v in self.sigma:
            if is_infinite(v):
                raise ValueError("Sigma consists of finite places")

    @property
    def char(self) -> int:
        """The Iwasawa prime: the characteristic p of F_q."""
        return self.field.p

    def modulus(self, n: int) -> FqPoly:
        return self.f * self.p_place.gen ** (n + 1)

    def to_json(self):
        return {
            "q": f"{self.field.p}^{self.field.e}",
            "f": self.f.serialize(),
            "p": self.p_place.gen.serialize(),
            "S": sorted("inf" if is_infinite(v) else v.gen.serialize() for v in self.S),
            "Sigma": sorted(v.gen.serialize() for v in self.sigma),
        }


def _crt(r1: FqPoly, m1: FqPoly, r2: FqPoly, m2: FqPoly) -> FqPoly:
    """b with b = r1 mod m1 and b = r2 mod m2, for coprime m1, m2."""
    g, s, _ = m1.extended_gcd(m2)
    if not g.is_one():
        raise ValueError("CRT moduli are not coprime")
    return (r1 + m1 * (s * (r2 - r1) % m2)) % (m1 * m2)


class Layer:
    """What the L-function and geometry code read off a layer: the base
    field, S, Sigma, the conductor `modulus` and the class map `class_of`."""

    def finite_s(self):
        """The finite places of S, in sort_key order of their generators."""
        return sorted((v for v in self.S if not is_infinite(v)),
                      key=lambda v: v.gen.sort_key())

    def infinity_in_s(self) -> bool:
        return any(is_infinite(v) for v in self.S)

    def split_count(self, chi) -> int:
        """Number of places v in S with chi trivial on the decomposition
        group D_v: the predicted order of vanishing of chi(Theta) at u = 1."""
        return sum(1 for v in self.S if chi.trivial_on(self.decomposition_group(v)))


class GaloisLayer(Layer):
    """G_n = (A/m)^x / F_q^x with m = f p^(n+1), presented by independent
    generators of prime-power order."""

    def __init__(self, cfg: TowerConfig, n: int):
        if n < 0:
            raise ValueError("layer index must be >= 0")
        self.cfg = cfg
        self.field, self.S, self.sigma = cfg.field, cfg.S, cfg.sigma
        self.n = n
        self.modulus = cfg.modulus(n)
        size = cfg.field.q ** self.modulus.degree
        if size > UNIT_ENUM_BUDGET:
            raise ValueError(f"residue ring size {size} exceeds budget {UNIT_ENUM_BUDGET}")
        # the primes of the modulus: p and the v | f
        self._support = frozenset(v.gen for v in default_s(cfg.f, cfg.p_place))
        F, mod = cfg.field, self.modulus

        # The canonical units: the tails (c_0 most significant, in
        # itertools.product order) whose lowest nonzero coefficient is 1,
        # i leading zeros from deg m - 1 down to 0.  Among the F_q^x
        # multiples of a unit, that one comes first in product order, since
        # 1 is the least nonzero element code; so this is the order in
        # which a scan of all residues first meets each class.
        k = mod.degree
        reps = [u.coeffs for u in (FqPoly(F, (0,) * i + (1,) + rest)
                                   for i in reversed(range(k))
                                   for rest in itertools.product(range(F.q), repeat=k - 1 - i))
                if self.coprime_to_modulus(u)]
        expected = unit_count(mod) // (F.q - 1)
        if len(reps) != expected:
            raise ArithmeticError("F_q^x quotient has unexpected size")

        def mul(a, b):
            return self._canon((FqPoly(F, a) * FqPoly(F, b)) % mod).coeffs

        one = self._canon(FqPoly.one(F)).coeffs
        gens, orders = _abelian_basis(reps, mul, one, expected)
        self.generators = [FqPoly(F, g) for g in gens]
        self.group = AbelianGroup(tuple(orders))
        # A residue's index is its coefficient list read as base-q digits,
        # c_0 least significant.  step[r][c] = index(x r + c mod m): for
        # r = r' + t x^(k-1), x r' is r' one digit up, and t x^k = -t w with
        # w = m - x^k.  Fixing t, the indices of x r' + t x^k come out in
        # the order of r' one digit at a time, the top digit first.
        q = F.q
        step = []
        for t in range(q):
            tw = [F.neg(F.mul(t, c)) for c in mod.coeffs[:k]]
            shifted = [0]
            for j in range(k - 1, 0, -1):
                digit = [F.add(c, tw[j]) * q ** j for c in range(q)]
                shifted = [r + d for r in shifted for d in digit]
            low = [F.add(tw[0], c) for c in range(q)]
            step.extend([r + d for d in low] for r in shifted)
        self._step = step
        # residue index -> class: prod g_i^(e_i) and its F_q^x multiples for
        # every exponent tuple in mixed radix, the last coordinate fastest
        # (group.elements() order), one ring product each
        classes = [None] * q ** k
        level = [(FqPoly.one(F), ())]
        for g, o in zip(self.generators, orders):
            nxt = []
            for acc, exps in level:
                nxt.append((acc, exps + (0,)))
                for e in range(1, o):
                    acc = acc * g % mod
                    nxt.append((acc, exps + (e,)))
            level = nxt
        scalings = [[F.mul(c, a) for a in range(q)] for c in range(1, q)]
        for acc, exps in level:
            for scale in scalings:
                r = 0
                for a in reversed(acc.coeffs):
                    r = r * q + scale[a]
                if classes[r] is not None:
                    raise ArithmeticError("layer generators are not independent")
                classes[r] = exps
        self._classes = classes
        self.delta_idx, self.p_idx = self.group.p_partition(cfg.char)
        self._decomposition_cache = {}
        self._kernel_cache = {}

    # -- element handling ---------------------------------------------------

    def _canon(self, u: FqPoly) -> FqPoly:
        """Canonical coset representative modulo F_q^x of u, which must be
        reduced modulo the layer modulus: the multiple of least sort_key,
        which is the one whose lowest nonzero coefficient is 1."""
        for c in u.coeffs:
            if c:
                return u if c == 1 else u.scale(self.field.inv(c))
        return u

    def coprime_to_modulus(self, g: FqPoly) -> bool:
        """No prime of the modulus divides g."""
        return not any((g % s).is_zero() for s in self._support)

    def ramified(self, place: FinitePlace) -> bool:
        """Whether the finite place divides the modulus: its generator is
        irreducible, so that is membership among the primes of the modulus."""
        return place.gen in self._support

    def _residue_index(self, a: FqPoly) -> int:
        """The index of a mod m, by Horner's rule through step[r][c] =
        index(x r + c mod m)."""
        step = self._step
        r = 0
        for c in reversed(a.coeffs):
            r = step[r][c]
        return r

    def class_of(self, a: FqPoly):
        """Exponent tuple of the class of a (a must be coprime to the modulus):
        the residue table's entry at the index of a mod m (None for a
        non-unit)."""
        out = self._classes[self._residue_index(a)]
        if out is None:
            raise ValueError(f"{a!r} is not coprime to the layer modulus")
        return out

    @property
    def order(self) -> int:
        return self.group.order

    # -- Frobenius and decomposition -----------------------------------------

    def frobenius(self, place):
        """Class of the monic generator; identity at the split infinite place."""
        if is_infinite(place):
            return self.group.identity
        if self.ramified(place):
            raise RamifiedPlaceError(f"{place!r} ramifies in layer {self.n}")
        return self.class_of(place.gen)

    def _local_part(self, v: FinitePlace):
        """(v^a, m/v^a) for the v-primary part of the modulus."""
        m = self.modulus
        va = FqPoly.one(self.field)
        while (m % v.gen).is_zero():
            va = va * v.gen
            m = m // v.gen
        return va, m

    def inertia_group(self, v) -> frozenset:
        """Image of the local units at v: classes of a with a = 1 mod m/v^a,
        which is level_kernel(m/v^a); the identity alone, level_kernel(m),
        when v is unramified or infinite.

        Computed once per level; a repeat call returns the same frozenset."""
        return self.level_kernel(self.modulus if is_infinite(v) else self._local_part(v)[1])

    def frobenius_lift(self, v: FinitePlace):
        """Class of b with b = gen(v) mod m/v^a and b = 1 mod v^a."""
        va, rest = self._local_part(v)
        if va.is_one():
            return self.frobenius(v)
        if rest.is_one():
            return self.group.identity
        b = _crt(FqPoly.one(self.field), va, v.gen % rest, rest)
        return self.class_of(b)

    def decomposition_group(self, v) -> frozenset:
        """D_v(L_n/k) as a set of group elements.  v in S or unramified.

        Computed once per place; a repeat call returns the same frozenset."""
        out = self._decomposition_cache.get(v)
        if out is None:
            out = self._decomposition_cache[v] = self._decomposition(v)
        return out

    def _decomposition(self, v) -> frozenset:
        if is_infinite(v):
            return frozenset({self.group.identity})
        va, _ = self._local_part(v)
        if va.is_one():
            return self.group.subgroup_span([self.frobenius(v)])
        # D_v = I_v <f>, f the Frobenius lift: the cosets I_v f^j up to the
        # first power of f that falls in the subgroup I_v
        inertia = self.inertia_group(v)
        lift = self.frobenius_lift(v)
        mul = self.group.mul
        out = set(inertia)
        step = lift
        while step not in inertia:
            out.update(mul(g, step) for g in inertia)
            step = mul(step, lift)
        return frozenset(out)

    def level_kernel(self, m_prime: FqPoly) -> frozenset:
        """ker(G_n -> (A/m')^x / F_q^x) for a divisor m' of the modulus: the
        classes of the a = 1 + m' t coprime to the modulus (c + m' t with c
        in F_q^x is c (1 + m' t/c), of the same class), read off the
        residue table, whose None marks a non-unit.

        Computed once per level; a repeat call returns the same frozenset."""
        out = self._kernel_cache.get(m_prime.coeffs)
        if out is None:
            F = self.field
            one = FqPoly.one(F)
            rest_deg = self.modulus.degree - m_prime.degree
            out = {self._classes[self._residue_index(one + m_prime * FqPoly(F, tail))]
                   for tail in itertools.product(range(F.q), repeat=rest_deg)}
            out.discard(None)
            out = self._kernel_cache[m_prime.coeffs] = frozenset(out)
        return out

    @cached_property
    def conductor_levels(self) -> tuple:
        """The levels f' p^j, f' a monic divisor of f and 0 <= j <= n + 1, in
        sort_key order: the candidate conductors of the characters of G_n."""
        cfg = self.cfg
        f_divs = [FqPoly.one(self.field)]
        if cfg.f.degree >= 1:
            for g, e in factor(cfg.f):
                f_divs = [d * g ** j for d in f_divs for j in range(e + 1)]
        p_pows = [cfg.p_place.gen ** j for j in range(self.n + 2)]
        return tuple(sorted((d * pw for d in f_divs for pw in p_pows), key=FqPoly.sort_key))

    def ramification_data(self, v):
        """(f, g) for v: residue degree and place count."""
        if is_infinite(v):
            return 1, self.order
        inertia = self.inertia_group(v)
        dec = self.decomposition_group(v)
        return len(dec) // len(inertia), self.order // len(dec)

    def exceptional_table(self):
        """For each v in S united with infinity: (deg w, count) for the places
        w of L_n above v, from class-field ramification data.  L_n / k is
        Galois, so every w above v has the same degree."""
        table = {}
        for v in self.S | {INFINITY}:
            f, g = self.ramification_data(v)
            d_v = 1 if is_infinite(v) else v.degree
            table[v] = (d_v * f, g)
        return table

    def to_json(self):
        places = []
        for d in range(1, 5):
            for pl in irreducibles_of_degree(self.field, d):
                if not self.ramified(pl):
                    places.append({
                        "place": pl.gen.serialize(),
                        "frobenius": list(self.frobenius(pl)),
                    })
        return {
            "n": self.n,
            "modulus": self.modulus.serialize(),
            "order": self.order,
            "generator_orders": list(self.group.orders),
            "generators": [g.serialize() for g in self.generators],
            "delta_coordinates": list(self.delta_idx),
            "p_coordinates": list(self.p_idx),
            "frobenius_table": places,
        }


class TrivialLayer(Layer):
    """The degenerate layer L = k: trivial group, conductor 1, arbitrary S."""

    def __init__(self, field: FqField, S, sigma):
        self.field = field
        self.n = 0
        self.modulus = FqPoly.one(field)
        self.group = TRIVIAL_GROUP
        self.S = frozenset(S)
        self.sigma = frozenset(sigma)
        if self.S & self.sigma:
            raise ValueError("S and Sigma must be disjoint")
        if not self.sigma:
            raise ValueError("Sigma must be nonempty")
        self.delta_idx, self.p_idx = (), ()

    @property
    def order(self):
        return 1

    def class_of(self, a: FqPoly):
        return ()

    def frobenius(self, place):
        return ()

    def decomposition_group(self, v):
        return frozenset({()})

    def exceptional_table(self):
        table = {INFINITY: (1, 1)}
        for v in self.finite_s():
            table[v] = (v.degree, 1)
        return table


def build_layer(cfg: TowerConfig, n: int) -> GaloisLayer:
    """Layer constructor; |G_n| = Phi(f p^(n+1))/(q-1) is verified internally."""
    return GaloisLayer(cfg, n)


@dataclass
class LayerMap:
    """Galois restriction G_{n_src} ->> G_{n_tgt} as a map on exponent tuples."""

    target: GaloisLayer
    images: list  # image of each source generator

    def apply(self, exps):
        g = self.target.group
        acc = g.identity
        for img, e in zip(self.images, exps):
            acc = g.mul(acc, g.pow(img, e))
        return acc


def layer_projection(src: GaloisLayer, tgt: GaloisLayer) -> LayerMap:
    """The restriction map from layer src.n to layer tgt.n (src.n > tgt.n).

    Verifies surjectivity and Frobenius compatibility on a deterministic
    sample of FROBENIUS_CHECKS unramified places.
    """
    if src.cfg is not tgt.cfg and (src.cfg != tgt.cfg):
        raise ValueError("layers belong to different tower configurations")
    if src.n <= tgt.n and src is not tgt:
        raise ValueError("projection goes from a higher layer to a lower one")
    images = [tgt.class_of(g) for g in src.generators]
    lm = LayerMap(tgt, images)
    image_span = tgt.group.subgroup_span(images) if images else frozenset({tgt.group.identity})
    if len(image_span) != tgt.order:
        raise ArithmeticError("layer projection is not surjective")
    checked = 0
    d = 1
    while checked < FROBENIUS_CHECKS and d <= 8:
        for pl in irreducibles_of_degree(src.field, d):
            if src.ramified(pl):
                continue
            if lm.apply(src.frobenius(pl)) != tgt.frobenius(pl):
                raise ArithmeticError(f"Frobenius incompatibility at {pl!r}")
            checked += 1
            if checked >= FROBENIUS_CHECKS:
                break
        d += 1
    return lm
