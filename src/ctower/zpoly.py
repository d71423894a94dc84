"""Dense polynomials over Z and Z/m: the one kernel for integer polynomials.

A polynomial is a list of ints, ascending in degree, with no trailing zeros;
the zero polynomial is [].  Every function returns a new trimmed list.  With
mod=m the result is reduced into [0, m).
"""

from __future__ import annotations


def trim(a):
    """a as a list without trailing zeros."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a, b, mod=None):
    """a * b over Z, or over Z/mod when mod is given."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    if mod is not None:
        out = [c % mod for c in out]
    return trim(out)


def sub(a, b, mod=None):
    """a - b over Z, or over Z/mod when mod is given."""
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    if mod is not None:
        out = [c % mod for c in out]
    return trim(out)


def exact_div(a, b):
    """The quotient a / b over Z; ArithmeticError unless b divides a exactly."""
    a, b = trim(a), trim(b)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(a) >= len(b):
        if a[-1] % lead:
            raise ArithmeticError("inexact polynomial division")
        c = a[-1] // lead
        shift = len(a) - len(b)
        quo[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        a = trim(a)
    if a:
        raise ArithmeticError("inexact polynomial division")
    return trim(quo)
