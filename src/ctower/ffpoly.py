"""Exact arithmetic in F_q (q = p^e) and in the polynomial ring A = F_q[theta].

Elements of F_q are packed integers in [0, q).  For prime fields this is
plain arithmetic mod p.  Every other field is FqField.extension(base, g) =
base[Y]/(g), the one construction of a finite field from an irreducible g:
the base-|base| digits of an element are its coordinates in the power basis
of Y, and the field keeps only the exp, log and Zech tables of a generator,
built once by log_tables.  Multiplication, inversion and powers are exponent
arithmetic, and addition is one Zech lookup, so no q x q table is built.
FqField(p, e) is the extension of F_p by the least irreducible of degree
e, interned by (p, e) so tables are shared; the point-count oracle's
F_(q^i) is the extension of F_q by a degree-i irreducible, built per count.

Polynomials are immutable tuples of packed field elements, trailing zeros
stripped.  deg(0) is the float('-inf') sentinel.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

MAX_Q = 1 << 16
UNIT_ENUM_BUDGET = 1_000_000

NEG_INF = float("-inf")


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class NonMonicError(ValueError):
    """A monic polynomial was required."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def _default_modulus(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e > 1 over F_p."""
    Fp = FqField(p)
    for tail in itertools.product(range(p), repeat=e):
        # tail[0] == 0: x divides the candidate
        if tail[0] and is_irreducible(FqPoly(Fp, tail + (1,))):
            return tail + (1,)
    raise ArithmeticError("no irreducible modulus found")  # unreachable


class FqField:
    """The finite field F_q, q = p^e, with packed-integer elements.

    FqField(p) is F_p, with arithmetic mod p.  FqField(p, e), e > 1, is
    FqField.extension(F_p, modulus) for the lexicographically smallest monic
    irreducible modulus of degree e: the element sum c_j x^j of
    F_p[x]/(modulus) is the integer sum c_j p^j.  Both are interned by
    (p, e); a field over another modulus is built by FqField.extension.
    """

    _interned: dict = {}

    def __new__(cls, p: int, e: int = 1):
        if (p, e) not in cls._interned:
            if not _is_prime(p):
                raise ValueError(f"p = {p} is not prime")
            if e < 1:
                raise ValueError("extension degree must be >= 1")
            if p ** e > MAX_Q:
                raise ValueError(f"q = {p ** e} exceeds the configured bound {MAX_Q}")
            if e > 1:
                self = FqField.extension(FqField(p), _default_modulus(p, e))
            else:
                self = super().__new__(cls)
                self.p, self.e, self.q, self.modulus = p, 1, p, (0, 1)
            cls._interned[(p, e)] = self
        return cls._interned[(p, e)]

    @staticmethod
    def extension(base: "FqField", g) -> "FqField":
        """base[Y]/(g), g a monic irreducible coefficient tuple of degree i
        over base, constant term first, with the tables of log_tables(base,
        g): p = base.p, e = base.e i and q = base.q^i, and the constant c of
        base has index c.  Not interned: the tables live as long as the field.
        """
        self = object.__new__(_LogField)
        i = len(g) - 1
        self.p, self.e, self.q, self.modulus = base.p, base.e * i, base.q ** i, tuple(g)
        exp, self._log, self._zech = log_tables(base, g)
        self._exp = exp + exp  # a product's log, below 2(q - 1), needs no reduction
        return self

    # -- field operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 has no inverse in F_q")
            return 0 if n else 1
        return pow(a, n % (self.p - 1), self.p)

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.e}"

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __eq__(self, other):
        return self is other


class _LogField(FqField):
    """A field built by FqField.extension: a product is a sum of logs, a + b
    = gamma^(log a + zech[log b - log a]) (a negative index counts from the
    end), and -a is a shift of log a by (q - 1)/2 (a itself when p = 2)."""

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if not a or self.p == 2:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return super().pow(a, n)
        return self._exp[self._log[a] * n % (self.q - 1)]


class FqPoly:
    """Dense polynomial over an FqField in the variable theta. Immutable."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FqField, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c % field.q if field.e == 1 else c,))

    @classmethod
    def gen(cls, field):
        """The variable theta."""
        return cls(field, (0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return FqPoly(self.field, (*map(self.field.add, a, b), *a[len(b):]))

    def __neg__(self):
        return FqPoly(self.field, map(self.field.neg, self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return FqPoly(F, out)

    def scale(self, c: int):
        F = self.field
        return FqPoly(F, (F.mul(c, x) for x in self.coeffs))

    def _divide(self, other):
        """Quotient and remainder coefficient lists of self by other."""
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        if len(rem) <= db:
            return [], rem
        inv_lead = F.inv(other.coeffs[-1])
        quo = [0] * (len(rem) - db)
        if F.e == 1:
            # prime field: the same steps with the F_p operations inlined
            p = F.p
            low = other.coeffs[:-1]
            while len(rem) > db:
                lead = rem.pop()
                if lead:
                    c = (lead * inv_lead) % p
                    shift = len(rem) - db
                    quo[shift] = c
                    rem[shift:] = [(a - c * b) % p for a, b in zip(rem[shift:], low)]
            return quo, rem
        # a step adds only the nonzero lower terms of -other, as zpoly.div_rem
        add, mul = F.add, F.mul
        terms = [(j, F.neg(b)) for j, b in enumerate(other.coeffs[:-1]) if b]
        for top in range(len(rem) - 1, db - 1, -1):
            if rem[top]:
                c = mul(rem[top], inv_lead)
                shift = top - db
                quo[shift] = c
                for j, b in terms:
                    rem[shift + j] = add(rem[shift + j], mul(c, b))
        del rem[db:]
        return quo, rem

    def __divmod__(self, other):
        quo, rem = self._divide(other)
        return FqPoly(self.field, quo), FqPoly(self.field, rem)

    def __mod__(self, other):
        return FqPoly(self.field, self._divide(other)[1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = FqPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def powmod(self, n: int, modulus: "FqPoly") -> "FqPoly":
        result = FqPoly.one(self.field) % modulus
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def derivative(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            c = 0
            for _ in range(i % F.p):
                c = F.add(c, self.coeffs[i])
            out.append(c)
        return FqPoly(F, out)

    def gcd(self, other):
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def extended_gcd(self, other):
        """Returns (g, s, t) with s*self + t*other = g, g monic (or zero)."""
        self._check(other)
        F = self.field
        r0, r1 = self, other
        s0, s1 = FqPoly.one(F), FqPoly.zero(F)
        t0, t1 = FqPoly.zero(F), FqPoly.one(F)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        c = F.inv(r0.leading())
        return r0.scale(c), s0.scale(c), t0.scale(c)

    # -- misc ------------------------------------------------------------------

    def frobenius_spread(self, qpow: int = 1):
        """self(theta)^(q^qpow): spreads exponents by q^qpow (coeffs are in F_q)."""
        F = self.field
        step = F.q ** qpow
        out = [0] * (step * (len(self.coeffs) - 1) + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return FqPoly(F, out)

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    def serialize(self) -> str:
        F = self.field
        body = ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"
        return f"[{body}]@q={F.p}^{F.e}"

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(("" if c == 1 else f"{c}*") + "theta")
            else:
                terms.append(("" if c == 1 else f"{c}*") + f"theta^{i}")
        return " + ".join(terms)

    def __eq__(self, other):
        return isinstance(other, FqPoly) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.coeffs))
        return self._hash


@dataclass(frozen=True)
class FinitePlace:
    """A finite place of F_q(theta): a monic irreducible polynomial."""

    gen: FqPoly

    def __post_init__(self):
        if not self.gen.is_monic() or self.gen.degree < 1:
            raise NonMonicError("place generator must be monic of degree >= 1")

    @property
    def degree(self) -> int:
        return self.gen.degree

    @property
    def field(self):
        return self.gen.field

    def __repr__(self):
        return f"({self.gen!r})"


class InfinitePlace:
    """The distinguished place at infinity (uniformizer 1/theta, degree 1)."""

    degree = 1
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "v_inf"


INFINITY = InfinitePlace()


def is_infinite(place) -> bool:
    return isinstance(place, InfinitePlace)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def is_irreducible(f: FqPoly) -> bool:
    """Rabin irreducibility test; requires monic input of degree >= 1."""
    if not f.is_monic():
        raise NonMonicError("irreducibility test requires a monic polynomial")
    d = f.degree
    if d < 1:
        raise NonMonicError("degree must be >= 1")
    if d == 1:
        return True
    F = f.field
    x = FqPoly.gen(F)
    # x^(q^d) = x mod f, and gcd(x^(q^(d/r)) - x, f) = 1 for prime r | d
    xq = _frob_power(x, d, f)
    if xq != x % f:
        return False
    for r in {f2 for f2 in range(2, d + 1) if d % f2 == 0 and _is_prime(f2)}:
        xr = _frob_power(x, d // r, f)
        if f.gcd(xr - x).degree >= 1:
            return False
    return True


def log_tables(field: FqField, g) -> tuple:
    """(exp, log, zech) of field[Y]/(g), g a monic irreducible coefficient
    tuple of degree i over field, constant term first.

    The element sum c_j Y^j has the index sum c_j q^j (c_0 least
    significant), so the constant c has index c.  exp[k] is the index of
    gamma^k for 0 <= k < n = q^i - 1, log its inverse with log[0] = -1, and
    zech[k] = log[1 + gamma^k], -1 when gamma^k = -1: for a, b nonzero,
    a + b = gamma^(log a + zech[log b - log a]) (Zech logarithms, Lidl and
    Niederreiter, Finite Fields).  gamma is the least index with
    gamma^(n/r) != 1 for every prime r | n.  exp multiplies by gamma with
    Horner's rule in Y, O(i deg gamma) digit operations per element.
    """
    q, i = field.q, len(g) - 1
    n = q ** i - 1
    add, mul = field.add, field.mul
    modulus, one = FqPoly(field, g), FqPoly.one(field)
    primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
    weights = [q ** j for j in range(i)]

    def element(c):
        return FqPoly(field, [c // w % q for w in weights])

    gamma = next(x for x in map(element, range(1, n + 1))
                 if all(x.powmod(n // r, modulus) != one for r in primes)).coeffs
    # c Y^i mod g, the carry of multiplying by Y, for each c in field
    carry = [[mul(c, field.neg(t)) for t in g[:i]] for c in range(q)]
    exp, cur = [0] * n, [1] + [0] * (i - 1)
    for k in range(n):
        exp[k] = sum(map(int.__mul__, cur, weights))
        nxt = cur if gamma[-1] == 1 else [mul(gamma[-1], c) for c in cur]
        for t in reversed(gamma[:-1]):
            top, nxt = nxt[-1], [0] + nxt[:-1]
            if top:
                nxt = [add(a, b) for a, b in zip(nxt, carry[top])]
            if t:
                nxt = [add(a, mul(t, c)) for a, c in zip(nxt, cur)]
        cur = nxt
    log = [-1] * (n + 1)
    for k, a in enumerate(exp):
        log[a] = k
    zech = [log[a - a % q + add(a % q, 1)] for a in exp]
    return exp, log, zech


def _frob_power(a: FqPoly, j: int, modulus: FqPoly) -> FqPoly:
    """a^(q^j) mod modulus via iterated q-power Frobenius substitution."""
    cur = a % modulus
    for _ in range(j):
        cur = cur.frobenius_spread(1) % modulus
    return cur


@lru_cache(maxsize=None)
def _irreducible_list(field: FqField, d: int):
    """Sorted tuple of all monic irreducibles of degree exactly d.

    A multiplicative sieve: a monic of degree d is reducible iff it is f*g
    with f monic irreducible of degree e <= d/2 and g monic of degree d-e.
    Every such product is flagged by the index of its coefficient tail
    (c_0, ..., c_{d-1}) in itertools.product order, c_0 most significant.
    That order is sort_key order, so the unflagged tails come out sorted.
    The indices of f*g are built degree by degree, by the recurrence
    index(f*(g' x + c)) = I mod w + w * T[c][I div w] of `_mark_multiples`,
    I = index(f*g').
    """
    q = field.q
    composite = bytearray(q ** d)
    for e in range(1, d // 2 + 1):
        for f in _irreducible_list(field, e):
            _mark_multiples(composite, f.coeffs, d, field)
    survivors = composite.translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))
    tails = itertools.compress(itertools.product(range(q), repeat=d), survivors)
    return tuple(FqPoly(field, tail + (1,)) for tail in tails)


def _mark_multiples(composite, f, d, field):
    """Flag the tail index of f*g for every monic g of degree d - deg f.

    Index recurrence on the degree j of the product, e = deg f: if I is the
    tail index of f*g' (j - 1 digits, g' monic), then f*(g' x + c) =
    x (f g') + c f has tail index

        I mod w + w * T[c][I div w],    w = q^(j-1-e).

    Multiplying by x moves every coefficient one place up, so the low
    j-1-e digits of I become the low digits of the new index, and c f
    changes only coefficients 0..e: the (e+1)-digit block (0, I div w).
    T[c][u] is the index of that block plus c f, q * q^e entries per f.
    The levels j = e+1 .. d-1 are lists of q^(j-e) indices; the last level
    goes straight into composite.
    """
    e = len(f) - 1
    q, add = field.q, field.add
    # column c of `table` is T[c], built digit by digit in product order
    table = [[field.mul(c, f[0]) * q ** e] for c in range(q)]
    for t in range(1, e + 1):
        for c, row in enumerate(table):
            step = [add(b, field.mul(c, f[t])) * q ** (e - t) for b in range(q)]
            table[c] = [x + s for x in row for s in step]
    table = list(zip(*table))
    level = [sum(a * q ** (e - 1 - t) for t, a in enumerate(f[:e]))]
    for j in range(e + 1, d):
        w = q ** (j - 1 - e)
        level = [t * w + low for high, low in map(divmod, level, itertools.repeat(w))
                 for t in table[high]]
    w = q ** (d - 1 - e)
    for high, low in map(divmod, level, itertools.repeat(w)):
        for t in table[high]:
            composite[t * w + low] = 1


def irreducibles_of_degree(field: FqField, d: int):
    """Yields every monic irreducible of degree exactly d, in sorted order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    for f in _irreducible_list(field, d):
        yield FinitePlace(f)


# -- factorization -----------------------------------------------------------


def _squarefree_decomposition(f: FqPoly):
    """Yields (g_i, i) with f = prod g_i^i, g_i squarefree (Yun, char p aware)."""
    F = f.field
    p = F.p
    out = {}

    def accumulate(g, mult):
        if g.degree >= 1:
            out[mult] = out.get(mult, FqPoly.one(F)) * g

    def rec(f, outer):
        d = f.derivative()
        if d.is_zero():
            # f = h(theta^p); take p-th root of coefficients
            root = FqPoly(F, [_fq_pth_root(F, f.coeffs[i])
                              for i in range(0, len(f.coeffs), p)])
            rec(root, outer * p)
            return
        c = f.gcd(d)
        w = f // c
        i = 1
        while w.degree >= 1:
            y = w.gcd(c)
            accumulate(w // y, outer * i)
            w, c = y, c // y
            i += 1
        # c now holds the factors of multiplicity divisible by p, at full
        # multiplicity; the p-th-root branch of the recursion scales them
        if c.degree >= 1:
            rec(c, outer)

    rec(f.monic(), 1)
    return [(g, mult) for mult, g in sorted(out.items())]


def _fq_pth_root(F: FqField, a: int) -> int:
    # a^(p^(e-1)) is the p-th root in F_{p^e}
    return F.pow(a, F.p ** (F.e - 1))


def _distinct_degree(f: FqPoly):
    """Yields (product of irreducible factors of degree d, d) for squarefree monic f."""
    F = f.field
    x = FqPoly.gen(F)
    cur = f
    h = x % f
    d = 0
    while cur.degree >= 1:
        d += 1
        if 2 * d > cur.degree:
            yield cur, cur.degree
            return
        h = h.frobenius_spread(1) % cur
        g = cur.gcd(h - x)
        if g.degree >= 1:
            yield g, d
            cur = cur // g
            h = h % cur
    return


def _equal_degree_split(f: FqPoly, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of squarefree monic f, all factors of degree d."""
    F = f.field
    n = f.degree
    if n == d:
        return [f]
    q = F.q
    while True:
        a = FqPoly(F, [rng.randrange(q) for _ in range(n)] + [1])
        g = f.gcd(a)
        if 1 <= g.degree < n:
            break
        if F.p == 2:
            # additive trace T(a) = a + a^2 + ... + a^(2^(e*d - 1)) mod f
            acc = a % f
            t = a % f
            for _ in range(F.e * d - 1):
                t = (t * t) % f
                acc = acc + t
            g = f.gcd(acc)
        else:
            e = (q ** d - 1) // 2
            b = a.powmod(e, f) - FqPoly.one(F)
            g = f.gcd(b)
        if 1 <= g.degree < n:
            break
    left = _equal_degree_split(g.monic(), d, rng)
    right = _equal_degree_split((f // g).monic(), d, rng)
    return left + right


def factor(f: FqPoly):
    """Full factorization of monic f, deterministic output order.

    Returns a list of (FinitePlace-compatible monic irreducible, multiplicity),
    sorted by degree then lexicographically.  Equal-degree splitting is
    randomized internally but seeded from f for reproducibility.
    """
    if not f.is_monic() or f.degree < 1:
        raise NonMonicError("factor requires a monic polynomial of degree >= 1")
    rng = random.Random(hash((f.field.q, f.coeffs)) & 0xFFFFFFFF)
    factors = {}
    for g, mult in _squarefree_decomposition(f):
        for part, d in _distinct_degree(g):
            for irr in _equal_degree_split(part, d, rng):
                key = irr.monic()
                factors[key] = factors.get(key, 0) + mult
    out = sorted(factors.items(), key=lambda kv: kv[0].sort_key())
    # consistency: product reconstructs f
    check = FqPoly.one(f.field)
    for g, m in out:
        check = check * g ** m
    if check != f:
        raise ArithmeticError("factorization failed to reconstruct input")
    return out


# -- residue rings -----------------------------------------------------------


def unit_count(m: FqPoly) -> int:
    """|(A/m)^x| = q^deg m * prod_{P | m} (1 - q^(-deg P)), m monic of degree >= 1."""
    if not m.is_monic() or m.degree < 1:
        raise NonMonicError("residue ring modulus must be monic of degree >= 1")
    n = m.field.q ** m.degree
    for place, _ in factor(m):
        pd = m.field.q ** place.degree
        n = n // pd * (pd - 1)
    return n
