"""The Carlitz module over A = F_q[theta]: twisted polynomials, cyclotomic
polynomials phi_m, and the minimal polynomial of the real-subfield generator
lambda^(q-1), read off phi_m as a polynomial in X^(q-1).

rho is the F_q-algebra map A -> A{tau} with rho(theta) = theta + tau, where
tau is the q-power Frobenius (tau * omega = omega^q * tau).  The sign
normalization is the Carlitz convention sgn(1/theta) = 1, so rho_x is monic
for monic x.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .ffpoly import FqField, FqPoly, NonMonicError, factor, unit_count


class TwistedPoly:
    """Element of A{tau} with the commutation rule tau * omega = omega^q * tau."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (FqPoly.one(field),))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        zero = FqPoly.zero(self.field)
        return TwistedPoly(self.field, (
            (self.coeffs[i] if i < len(self.coeffs) else zero)
            + (other.coeffs[i] if i < len(other.coeffs) else zero)
            for i in range(n)))

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return TwistedPoly.zero(self.field)
        zero = FqPoly.zero(self.field)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b.frobenius_spread(i)
        return TwistedPoly(self.field, out)

    def scale(self, c: FqPoly):
        return TwistedPoly(self.field, (c * a for a in self.coeffs))

    def __eq__(self, other):
        return isinstance(other, TwistedPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_additive(self) -> "AXPoly":
        """tau^i -> X^(q^i): the associated F_q-linear polynomial."""
        q = self.field.q
        if not self.coeffs:
            return AXPoly.zero(self.field)
        out = [FqPoly.zero(self.field)] * (q ** (len(self.coeffs) - 1) + 1)
        for i, a in enumerate(self.coeffs):
            out[q ** i] = a
        return AXPoly(self.field, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({a!r})*tau^{i}" for i, a in enumerate(self.coeffs) if not a.is_zero())


class AXPoly:
    """Polynomial in X with coefficients in A = F_q[theta]."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (FqPoly.one(field),))

    @classmethod
    def gen(cls, field):
        return cls(field, (FqPoly.zero(field), FqPoly.one(field)))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def __getitem__(self, i) -> FqPoly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else FqPoly.zero(self.field)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return AXPoly(self.field, (self[i] + other[i] for i in range(n)))

    def __neg__(self):
        return AXPoly(self.field, (-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return AXPoly.zero(self.field)
        zero = FqPoly.zero(self.field)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return AXPoly(self.field, out)

    def __divmod__(self, other):
        """Division by a divisor whose X-leading coefficient is a unit in A."""
        if other.is_zero():
            raise ZeroDivisionError
        lead = other.coeffs[-1]
        if lead.degree != 0:
            raise ValueError("AXPoly division requires a unit leading coefficient")
        inv = FqPoly.constant(self.field, self.field.inv(lead.coeffs[0]))
        rem = list(self.coeffs)
        db = other.degree
        quo = [FqPoly.zero(self.field)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db:
            if rem[-1].is_zero():
                rem.pop()
                continue
            c = rem[-1] * inv
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i, bi in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * bi
            rem.pop()
        return AXPoly(self.field, quo), AXPoly(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative_x(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            c = FqPoly.zero(F)
            for _ in range(i % F.p):
                c = c + self.coeffs[i]
            out.append(c)
        return AXPoly(F, out)

    def __eq__(self, other):
        return isinstance(other, AXPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({c!r})*X^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero())


# ---------------------------------------------------------------------------
# the Carlitz module
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rho_theta_power(field: FqField, i: int) -> TwistedPoly:
    if i == 0:
        return TwistedPoly.one(field)
    c_theta = TwistedPoly(field, (FqPoly.gen(field), FqPoly.one(field)))
    return _rho_theta_power(field, i - 1) * c_theta


def rho(x: FqPoly) -> TwistedPoly:
    """The Carlitz module map: F_q-algebra morphism with rho(theta) = theta + tau."""
    F = x.field
    acc = TwistedPoly.zero(F)
    for i, c in enumerate(x.coeffs):
        if c:
            acc = acc + _rho_theta_power(F, i).scale(FqPoly.constant(F, c))
    return acc


def rho_as_additive_poly(x: FqPoly) -> AXPoly:
    """rho(x) as the F_q-linear polynomial sum a_i X^(q^i)."""
    return rho(x).to_additive()


def _divisors_with_mobius(m: FqPoly):
    """Yields (d, mu(m/d)) over monic divisors d with m/d squarefree."""
    fac = factor(m)
    places = [g for g, _ in fac]
    mults = [e for _, e in fac]
    for drop in itertools.product((0, 1), repeat=len(places)):
        d = FqPoly.one(m.field)
        for g, e, dr in zip(places, mults, drop):
            d = d * g ** (e - dr)
        yield d, (-1) ** sum(drop)


def cyclotomic_poly(m: FqPoly) -> AXPoly:
    """The primitive-torsion polynomial of conductor m, whose roots are the
    generators of the m-torsion module: phi_m(X) = prod_{d | m}
    rho_d(X)^{mu(m/d)}, by exact division in A[X].

    deg_X phi_m = Phi(m) = |(A/m)^x|; phi_m divides rho_m(X).
    """
    if not m.is_monic() or m.degree < 1:
        raise NonMonicError("conductor must be monic of degree >= 1")
    num = AXPoly.one(m.field)
    den = AXPoly.one(m.field)
    for d, mu in _divisors_with_mobius(m):
        part = rho_as_additive_poly(d)
        if mu == 1:
            num = num * part
        else:
            den = den * part
    quo, rem = divmod(num, den)
    if not rem.is_zero():
        raise ArithmeticError("cyclotomic division left a remainder")
    expected = unit_count(m)
    if quo.degree != expected:
        raise ArithmeticError(f"cyclotomic degree {quo.degree} != Phi(m) = {expected}")
    return quo


# ---------------------------------------------------------------------------
# real subfield generator
# ---------------------------------------------------------------------------


class FactorExtractionError(ArithmeticError):
    """phi_m is not a polynomial in X^(q-1)."""


def real_generator_minpoly(m: FqPoly) -> AXPoly:
    """Minimal polynomial psi over k of e = lambda^(q-1), lambda a root of
    cyclotomic_poly(m), read off phi_m(X) = psi(X^(q-1)).

    Each c in F_q^x acts as rho_c(X) = cX and permutes the primitive
    m-torsion, so phi_m(cX) = c^Phi(m) phi_m(X); F_q^x embeds in (A/m)^x,
    so (q-1) | Phi(m), and only the powers X^(j(q-1)) occur.  phi_m is
    irreducible over k and [k(lambda):k(e)] <= q-1, so psi, monic of degree
    Phi(m)/(q-1) with psi(e) = 0, is minimal (Hayes 1974; Rosen, ch. 12).
    For q = 2 psi is phi_m itself: the real field is the full cyclotomic
    field.
    """
    phi = cyclotomic_poly(m)
    s = m.field.q - 1
    if any(not c.is_zero() for i, c in enumerate(phi.coeffs) if i % s):
        raise FactorExtractionError(f"phi_m has a term X^i with {s} not dividing i")
    return AXPoly(m.field, phi.coeffs[::s])
