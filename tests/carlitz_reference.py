"""The real-subfield minimal polynomial as it stood before it was read off
phi_m, kept verbatim (only the names are renamed) as the oracle that
ctower.carlitz.real_generator_minpoly is tested against: the Krylov
sequence of e = lambda^(q-1) inside A[Y]/(phi_m), solved for its first
linear relation by Gaussian elimination over Frac(A).  Beside it, the small
readers the Carlitz tests check against: the serialized form in which they
name conductors, and the tau-degree and constant term of a twisted
polynomial.
"""

from ctower.carlitz import AXPoly, FactorExtractionError, cyclotomic_poly
from ctower.ffpoly import FqField, FqPoly


def parse_serialized(s: str) -> FqPoly:
    """The polynomial that FqPoly.serialize wrote as s, e.g. "[0,1,1]@q=3^1":
    the form in which the tests name their reference conductors."""
    body, q = s.split("@q=")
    p, e = q.split("^")
    field = FqField(int(p), int(e))
    coeffs = [int(c) for c in body.strip("[]").split(",")] if body != "[0]" else []
    return FqPoly(field, coeffs)


def deg_tau(t) -> int:
    """The tau-degree of a TwistedPoly, -inf for 0."""
    return len(t.coeffs) - 1 if t.coeffs else float("-inf")


def constant_term(t) -> FqPoly:
    """D(sum a_i tau^i) = a_0, a ring morphism A{tau} -> A."""
    return t.coeffs[0] if t.coeffs else FqPoly.zero(t.field)


class _Frac:
    """Rational functions over A, normalized with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: FqPoly, den: FqPoly = None):
        F = num.field
        if den is None:
            den = FqPoly.one(F)
        if den.is_zero():
            raise ZeroDivisionError
        g = num.gcd(den)
        if not g.is_zero() and g.degree >= 1:
            num, den = num // g, den // g
        if not den.is_monic():
            c = F.inv(den.leading())
            num, den = num.scale(c), den.scale(c)
        self.num, self.den = num, den

    def __add__(self, o):
        return _Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return _Frac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return _Frac(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.num.is_zero():
            raise ZeroDivisionError
        return _Frac(self.num * o.den, self.den * o.num)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, o):
        return self.num == o.num and self.den == o.den


def _solve_frac(matrix, rhs):
    """Gaussian elimination over Frac(A); returns solution list or None."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [row[:] + [r] for row, r in zip(matrix, rhs)]
    piv_cols = []
    r = 0
    for c in range(cols):
        sel = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    # consistency
    for i in range(r, rows):
        if not m[i][cols].is_zero():
            return None
    sol = [None] * cols
    for row_idx, c in enumerate(piv_cols):
        sol[c] = m[row_idx][cols]
    zero = _Frac(FqPoly.zero(matrix[0][0].num.field)) if rows else None
    return [s if s is not None else zero for s in sol]


def reference_real_generator_minpoly(m: FqPoly) -> AXPoly:
    """Minimal polynomial over k of e = lambda^(q-1), lambda a root of
    cyclotomic_poly(m).  Degree Phi(m)/(q-1); for q = 2 this is
    cyclotomic_poly(m) itself (the real field is the full cyclotomic
    field).
    """
    F = m.field
    phi = cyclotomic_poly(m)
    if F.q == 2:
        return phi
    n = phi.degree
    expected = n // (F.q - 1)

    # Krylov sequence of e = Y^(q-1) inside A[Y]/(phi); phi is monic so the
    # iterates stay integral
    e = AXPoly(F, [FqPoly.zero(F)] * (F.q - 1) + [FqPoly.one(F)]) % phi
    powers = [AXPoly.one(F)]
    for _ in range(expected):
        powers.append((powers[-1] * e) % phi)

    def to_vec(ax):
        return [ _Frac(ax[i]) for i in range(n) ]

    # minimality: no dependence below the predicted degree
    for d in range(1, expected + 1):
        cols = [to_vec(powers[j]) for j in range(d)]
        matrix = [[cols[j][i] for j in range(d)] for i in range(n)]
        rhs = [_Frac(-powers[d][i]) for i in range(n)]
        sol = _solve_frac(matrix, rhs)
        if sol is None:
            continue
        if d != expected:
            raise FactorExtractionError(
                f"generator satisfies a degree-{d} relation; expected {expected}")
        coeffs = []
        for s in sol:
            if s.den.degree != 0:
                raise FactorExtractionError("minimal polynomial is not integral")
            coeffs.append(s.num.scale(F.inv(s.den.coeffs[0])))
        coeffs.append(FqPoly.one(F))
        return AXPoly(F, coeffs)
    raise FactorExtractionError("no minimal polynomial found up to the predicted degree")
