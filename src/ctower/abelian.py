"""Finite abelian groups presented by independent generators.

Elements are exponent tuples relative to the generator list; the group law
is componentwise addition mod the orders.  Layer groups built by rayclass
take their generators from `_abelian_basis`, so they always carry
prime-power generator orders, which makes the p-Sylow / prime-to-p split a
partition of coordinates.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod


class AbelianGroup:
    """The group Z/o_1 x ... x Z/o_r of the generator orders o_i.  A value:
    equal orders give equal groups, so a group keys caches and dicts."""

    __slots__ = ("orders", "exponent")

    def __init__(self, orders: tuple):
        self.orders = orders
        # Character.log_value reads the exponent per element
        self.exponent = lcm(*orders)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash((self.orders,))

    @property
    def identity(self):
        return (0,) * len(self.orders)

    @property
    def order(self) -> int:
        return prod(self.orders)

    def mul(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def inv(self, a):
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def pow(self, a, n: int):
        return tuple((x * n) % o for x, o in zip(a, self.orders))

    def elements(self):
        return itertools.product(*(range(o) for o in self.orders))

    def element_order(self, a) -> int:
        return lcm(*(o // gcd(x, o) for x, o in zip(a, self.orders)))

    def p_partition(self, p: int):
        """(delta_indices, p_indices): coordinates of prime-to-p and p-power
        order.  Requires every generator order to be a prime power or 1."""
        delta, ppart = [], []
        for i, o in enumerate(self.orders):
            if o % p == 0:
                v = o
                while v % p == 0:
                    v //= p
                if v != 1:
                    raise ValueError("generator orders must be prime powers for the p-split")
                ppart.append(i)
            else:
                delta.append(i)
        return tuple(delta), tuple(ppart)

    def subgroup_span(self, gens) -> frozenset:
        """All elements of the subgroup generated by gens (BFS)."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.mul(a, g)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(seen)


TRIVIAL_GROUP = AbelianGroup(())


def _abelian_basis(elements, mul, one, order):
    """Independent generators of prime-power order for a finite abelian group.

    elements: iterable of hashable group elements; mul/one: group law.
    Returns (generators, orders).  Greedy per-Sylow basis extraction with the
    classical correction step, so <g_1> x ... x <g_r> = G exactly.
    """
    def elem_pow(a, n):
        r = one
        while n:
            if n & 1:
                r = mul(r, a)
            a = mul(a, a)
            n >>= 1
        return r

    n = order
    prime_factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            v = 0
            while n % d == 0:
                n //= d
                v += 1
            prime_factors.append((d, v))
        d += 1
    if n > 1:
        prime_factors.append((n, 1))

    def pow_ell(z, ell, memo):
        # z -> z^ell is a pure function, so one product chain per z and ell
        y = memo.get(z)
        if y is None:
            y = memo[z] = elem_pow(z, ell)
        return y

    gens, orders = [], []
    elements = list(elements)
    for ell, v in prime_factors:
        target = ell ** v
        cofactor = order // target
        ell_pow = {}
        # x -> x^cofactor maps G onto the ell-Sylow subgroup, so the scan
        # can stop once every one of its ell^v elements is a key
        sylow = {}
        for x in elements:
            if len(sylow) == target:
                break
            y = elem_pow(x, cofactor)
            if y not in sylow:
                o = 1
                z = y
                while z != one:
                    z = pow_ell(z, ell, ell_pow)
                    o *= ell
                sylow[y] = o
        # greedy basis with corrections
        basis, basis_orders = [], []
        span = {one: ()}
        while len(span) < target:
            best, best_ord = None, 0
            for y in sylow:
                # order of y modulo current span
                o = 1
                z = y
                while z not in span:
                    z = pow_ell(z, ell, ell_pow)
                    o *= ell
                if o > best_ord:
                    best, best_ord = y, o
            y, b = best, best_ord
            # correction: y^b lies in span; divide off the span part
            z = elem_pow(y, b)
            exps = span[z]
            adj = y
            for g, go, c in zip(basis, basis_orders, exps):
                # c is divisible by b; subtract g^(c/b)
                c_over_b = (c // b) % go if c % b == 0 else None
                if c_over_b is None:
                    raise ArithmeticError("basis correction failed")  # unreachable
                adj = mul(adj, elem_pow(g, (go - c_over_b) % go))
            basis.append(adj)
            basis_orders.append(b)
            new_span = {}
            for elem, exps in span.items():
                acc = elem
                for j in range(b):
                    new_span[acc] = exps + (j,)
                    acc = mul(acc, adj)
            span = new_span
        gens.extend(basis)
        orders.extend(basis_orders)
    return gens, orders
