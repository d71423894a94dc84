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
from dataclasses import dataclass, field as dc_field

from .abelian import TRIVIAL_GROUP, AbelianGroup, _abelian_basis
from .ffpoly import (
    UNIT_ENUM_BUDGET,
    FinitePlace,
    FqField,
    FqPoly,
    INFINITY,
    ResidueRing,
    factor,
    is_infinite,
    irreducibles_of_degree,
)


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

    def __init__(self, cfg: TowerConfig, n: int, budget: int = UNIT_ENUM_BUDGET):
        if n < 0:
            raise ValueError("layer index must be >= 0")
        self.cfg = cfg
        self.field, self.S, self.sigma = cfg.field, cfg.S, cfg.sigma
        self.n = n
        self.modulus = cfg.modulus(n)
        self.ring = ResidueRing(self.modulus)
        if self.ring.size > budget:
            raise ValueError(f"residue ring size {self.ring.size} exceeds budget {budget}")
        # the primes of the modulus: p and the v | f
        self._support = tuple(v.gen for v in default_s(cfg.f, cfg.p_place))
        F = cfg.field

        canon_seen = {}
        for u in self.ring.units():
            key = self._canon(u).coeffs
            canon_seen[key] = None
        reps = list(canon_seen)
        expected = self.ring.unit_count() // (F.q - 1)
        if len(reps) != expected:
            raise ArithmeticError("F_q^x quotient has unexpected size")

        mod = self.modulus

        def mul(a, b):
            return self._canon((FqPoly(F, a) * FqPoly(F, b)) % mod).coeffs

        one = self._canon(FqPoly.one(F)).coeffs
        gens, orders = _abelian_basis(reps, mul, one, expected)
        self.generators = [FqPoly(F, g) for g in gens]
        self.group = AbelianGroup(tuple(orders))
        dlog = {}
        for exps in self.group.elements():
            acc = FqPoly.one(F)
            for g, e in zip(self.generators, exps):
                acc = self.ring.mul(acc, self.ring.pow(g, e))
            key = self._canon(acc).coeffs
            if key in dlog:
                raise ArithmeticError("layer generators are not independent")
            dlog[key] = exps
        self._dlog = dlog
        self.delta_idx, self.p_idx = self.group.p_partition(cfg.char)
        self._frob_cache = {}
        self._inertia_cache = {}
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

    def class_of(self, a: FqPoly):
        """Exponent tuple of the class of a (a must be coprime to the modulus)."""
        key = self._canon(a % self.modulus).coeffs
        if key not in self._dlog:
            raise ValueError(f"{a!r} is not coprime to the layer modulus")
        return self._dlog[key]

    @property
    def order(self) -> int:
        return self.group.order

    # -- Frobenius and decomposition -----------------------------------------

    def frobenius(self, place):
        """Class of the monic generator; identity at the split infinite place."""
        if is_infinite(place):
            return self.group.identity
        cached = self._frob_cache.get(place)
        if cached is not None:
            return cached
        g = place.gen
        if not self.coprime_to_modulus(g):
            raise RamifiedPlaceError(f"{place!r} ramifies in layer {self.n}")
        out = self.class_of(g)
        self._frob_cache[place] = out
        return out

    def _local_part(self, v: FinitePlace):
        """(v^a, m/v^a) for the v-primary part of the modulus."""
        m = self.modulus
        va = FqPoly.one(self.field)
        while (m % v.gen).is_zero():
            va = va * v.gen
            m = m // v.gen
        return va, m

    def inertia_group(self, v) -> frozenset:
        """Image of the local units at v: classes of a with a = 1 mod m/v^a.

        Computed once per place; a repeat call returns the same frozenset."""
        out = self._inertia_cache.get(v)
        if out is None:
            out = self._inertia_cache[v] = self._inertia(v)
        return out

    def _inertia(self, v) -> frozenset:
        if is_infinite(v):
            return frozenset({self.group.identity})
        va, rest = self._local_part(v)
        if va.is_one():
            return frozenset({self.group.identity})
        F = self.field
        out = set()
        for tail in itertools.product(range(F.q), repeat=va.degree):
            t = FqPoly(F, tail)
            a = FqPoly.one(F) + rest * t
            if self.coprime_to_modulus(a):
                out.add(self.class_of(a))
        return frozenset(out)

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
        in F_q^x is c (1 + m' t/c), of the same class).

        Computed once per level; a repeat call returns the same frozenset."""
        out = self._kernel_cache.get(m_prime.coeffs)
        if out is None:
            F = self.field
            one = FqPoly.one(F)
            rest_deg = self.modulus.degree - m_prime.degree
            out = set()
            for tail in itertools.product(range(F.q), repeat=rest_deg):
                a = one + m_prime * FqPoly(F, tail)
                if self.coprime_to_modulus(a):
                    out.add(self.class_of(a))
            out = self._kernel_cache[m_prime.coeffs] = frozenset(out)
        return out

    def ramification_data(self, v):
        """(e, f, g) for v: ramification index, residue degree, place count."""
        if is_infinite(v):
            return 1, 1, self.order
        inertia = self.inertia_group(v)
        dec = self.decomposition_group(v)
        e = len(inertia)
        f = len(dec) // e
        return e, f, self.order // len(dec)

    def exceptional_table(self):
        """For each v in S united with infinity: list of (deg w, count) of the
        places of L_n above v, from class-field ramification data."""
        table = {}
        for v in self.S | {INFINITY}:
            e, f, g = self.ramification_data(v)
            d_v = 1 if is_infinite(v) else v.degree
            table[v] = [(d_v * f, g)]
        return table

    def to_json(self):
        places = []
        for d in range(1, 5):
            for pl in irreducibles_of_degree(self.field, d):
                if self.coprime_to_modulus(pl.gen):
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

    def ramification_data(self, v):
        return 1, 1, 1

    def exceptional_table(self):
        table = {INFINITY: [(1, 1)]}
        for v in self.finite_s():
            table[v] = [(v.degree, 1)]
        return table


def build_layer(cfg: TowerConfig, n: int, budget: int = UNIT_ENUM_BUDGET) -> GaloisLayer:
    """Layer constructor; |G_n| = Phi(f p^(n+1))/(q-1) is verified internally."""
    return GaloisLayer(cfg, n, budget)


@dataclass
class LayerMap:
    """Galois restriction G_{n_src} ->> G_{n_tgt} as a map on exponent tuples."""

    source: GaloisLayer
    target: GaloisLayer
    images: list = dc_field(default_factory=list)  # image of each source generator

    def apply(self, exps):
        g = self.target.group
        acc = g.identity
        for img, e in zip(self.images, exps):
            acc = g.mul(acc, g.pow(img, e))
        return acc


def layer_projection(src: GaloisLayer, tgt: GaloisLayer, frobenius_checks: int = 50) -> LayerMap:
    """The restriction map from layer src.n to layer tgt.n (src.n > tgt.n).

    Verifies surjectivity and Frobenius compatibility on a deterministic
    sample of unramified places.
    """
    if src.cfg is not tgt.cfg and (src.cfg != tgt.cfg):
        raise ValueError("layers belong to different tower configurations")
    if src.n <= tgt.n and src is not tgt:
        raise ValueError("projection goes from a higher layer to a lower one")
    images = [tgt.class_of(g) for g in src.generators]
    lm = LayerMap(src, tgt, images)
    image_span = tgt.group.subgroup_span(images) if images else frozenset({tgt.group.identity})
    if len(image_span) != tgt.order:
        raise ArithmeticError("layer projection is not surjective")
    checked = 0
    d = 1
    while checked < frobenius_checks and d <= 8:
        for pl in irreducibles_of_degree(src.field, d):
            if not src.coprime_to_modulus(pl.gen):
                continue
            if lm.apply(src.frobenius(pl)) != tgt.frobenius(pl):
                raise ArithmeticError(f"Frobenius incompatibility at {pl!r}")
            checked += 1
            if checked >= frobenius_checks:
                break
        d += 1
    return lm


def relative_decomposition_group(cfg: TowerConfig, n: int, m: int, v):
    """G_v(L_m/L_n) for v in S, plus the generator data.

    For v | f this is the cyclic subgroup of G_m generated by the image of
    x_v, the generator of the S_v-unit subgroup {x : x = 1 mod
    (f/v^{ord_v f}) p^(n+1)} (sign condition dropped: congruence up to
    F_q^x).  For v = p it is the full relative subgroup cut out by the
    decomposition group.
    """
    if m < n:
        raise ValueError("need m >= n")
    layer_m = build_layer(cfg, m)
    layer_n = build_layer(cfg, n)
    lm = layer_projection(layer_m, layer_n) if m > n else None

    if is_infinite(v):
        raise ValueError("the infinite place splits completely; no generator")
    if v not in cfg.S:
        raise ValueError("v must lie in S")

    F = cfg.field
    if v == cfg.p_place:
        dec = layer_m.decomposition_group(v)
        if m == n:
            rel = dec
        else:
            rel = frozenset(g for g in dec if lm.apply(g) == layer_n.group.identity)
        return {"subgroup": rel, "x_v": None, "t": None, "constant": None}

    # v | f: x_v = gen(v)^t with gen(v)^t = c mod (f/v^a) p^(n+1), c in F_q^x
    va, _ = layer_m._local_part(v)
    cong_mod = (cfg.f // va) * cfg.p_place.gen ** (n + 1)
    ring = ResidueRing(cong_mod)
    constants = {FqPoly.constant(F, c).coeffs: c for c in range(1, F.q)}
    t = None
    c0 = None
    acc = FqPoly.one(F)
    base = ring.reduce(v.gen)
    for j in range(1, ring.unit_count() + 1):
        acc = ring.mul(acc, base)
        if acc.coeffs in constants:
            t, c0 = j, constants[acc.coeffs]
            break
    if t is None:
        raise ArithmeticError("no S_v-unit power found")  # unreachable
    rest_m = layer_m.modulus // va
    b = _crt(FqPoly.constant(F, c0), va, v.gen ** t % rest_m, rest_m)
    img = layer_m.class_of(b)
    sub = layer_m.group.subgroup_span([img])
    return {"subgroup": sub, "x_v": v.gen ** t, "t": t, "constant": c0,
            "image": img, "layer": layer_m}
