"""Dense polynomials over Z and Z/m: the one kernel for integer polynomials.

A polynomial is a list of ints, ascending in degree, with no trailing zeros;
the zero polynomial is [].  Every function returns a new trimmed list.  With
mod=m the result is reduced into [0, m).

div_rem is the one division loop (von zur Gathen-Gerhard, *Modern Computer
Algebra*, 2.4); exact_div and the reductions of grouprings all call it.
"""

from __future__ import annotations


def trim(a):
    """a as a new list without trailing zeros."""
    return _pop_zeros(list(a))


def _pop_zeros(a):
    """The list a itself, its trailing zeros popped."""
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a, b, mod=None):
    """a * b over Z, or over Z/mod when mod is given."""
    if not a or not b:
        return []
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    if mod is not None:
        out = [c % mod for c in out]
    return _pop_zeros(out)


def sub(a, b, mod=None):
    """a - b over Z, or over Z/mod when mod is given."""
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    if mod is not None:
        out = [c % mod for c in out]
    return _pop_zeros(out)


def div_rem(a, b, mod=None):
    """(quotient, remainder) of a by b != 0: a = quotient * b + remainder,
    deg remainder < deg b, over Z, or over Z/mod when mod is given; a may
    have trailing zeros.  Over Z/mod, b must be monic (ValueError); over Z,
    lead(b) must divide each quotient term (ArithmeticError).  A step
    subtracts only the nonzero lower terms of b, so a sparse b such as Phi_N
    or u^M costs as many products as it has terms."""
    d = len(b) - 1
    lead = b[-1]
    if mod is not None and lead != 1:
        raise ValueError("division over Z/m needs a monic divisor")
    terms = [(i, c) for i, c in enumerate(b[:-1]) if c]
    r = list(a)
    quo = [0] * max(len(r) - d, 0)
    for j in range(len(r) - 1, d - 1, -1):
        c = r[j]
        if c:
            if lead != 1:
                c, left = divmod(c, lead)
                if left:
                    raise ArithmeticError("inexact polynomial division")
            s = j - d
            quo[s] = c
            for i, bi in terms:
                r[s + i] -= c * bi
    del r[d:]
    if mod is not None:
        quo = [c % mod for c in quo]
        r = [c % mod for c in r]
    return _pop_zeros(quo), _pop_zeros(r)


def exact_div(a, b):
    """The quotient a / b over Z; ArithmeticError unless b divides a exactly."""
    quo, rem = div_rem(a, trim(b))
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quo
