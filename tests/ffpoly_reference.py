"""The index tables of ctower.ffpoly and ctower.rayclass as they stood
before they were built by index recurrence, kept as the oracles the new
constructions are tested against:

- reference_sieve_list and reference_mark_multiples, verbatim but for their
  names: the irreducible sieve that walked the products f*g depth first,
  one partial product per level;
- reference_units, the residues mod m prime to m by a gcd, in
  itertools.product order of their tails (c_0 most significant), as the
  deleted ResidueRing.units yielded them;
- reference_abelian_basis, verbatim but for its name: the greedy basis
  whose Sylow scan raised every element to the cofactor, with no stop once
  the Sylow subgroup is complete;
- reference_class_table, the canonical unit representatives of a layer
  deduplicated from reference_units in first-seen order, its generators
  and orders from reference_abelian_basis, and the dlog table from one
  powmod per generator and exponent tuple.
"""

import itertools
from functools import lru_cache

from ctower.abelian import AbelianGroup
from ctower.ffpoly import FqField, FqPoly, unit_count


@lru_cache(maxsize=None)
def reference_sieve_list(field: FqField, d: int):
    """Sorted tuple of all monic irreducibles of degree exactly d.

    A multiplicative sieve: a monic of degree d is reducible iff it is f*g
    with f monic irreducible of degree e <= d/2 and g monic of degree d-e.
    Every such product is flagged by the index of its coefficient tail
    (c_0, ..., c_{d-1}) in itertools.product order, c_0 most significant.
    That order is sort_key order, so the unflagged tails come out sorted.
    """
    q = field.q
    composite = bytearray(q ** d)
    weight = [q ** (d - 1 - t) for t in range(d)]
    for e in range(1, d // 2 + 1):
        for f in reference_sieve_list(field, e):
            reference_mark_multiples(composite, f.coeffs, weight, field)
    survivors = composite.translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))
    tails = itertools.compress(itertools.product(range(q), repeat=d), survivors)
    return tuple(FqPoly(field, tail + (1,)) for tail in tails)


def reference_mark_multiples(composite, f, weight, field):
    """Flag the tail index of f*g for every monic g of degree d - deg f.

    The terms c*x^j*f of f*g are added level by level, j = d-e-1 down to 0,
    depth first, so only one partial product per level is alive.  A partial
    product keeps its open coefficients j+1..j+e; the term at j closes
    coefficient j+e, whose weighted digit goes into the running index.
    """
    d, e = len(weight), len(f) - 1
    q, p = field.q, field.p
    if field.e == 1:
        add = None
        scaled = [[c * a % p for a in f[:e]] for c in range(q)]
    else:
        add = field.add
        scaled = [[field.mul(c, a) for a in f[:e]] for c in range(q)]
    low = weight[:e]

    def walk(j, acc, open_):
        top, w = open_[-1], weight[j + e]
        for c, s in enumerate(scaled):
            # coefficients j..j+e-1 after adding c*x^j*f; j+e is closed
            if add is None:
                closed = acc + (top + c) % p * w
                nxt = [s[0]] + [(x + y) % p for x, y in zip(open_, s[1:])]
            else:
                closed = acc + add(top, c) * w
                nxt = [s[0]] + [add(x, y) for x, y in zip(open_, s[1:])]
            if j:
                walk(j - 1, closed, nxt)
            else:
                composite[closed + sum(map(int.__mul__, nxt, low))] = 1

    walk(d - e - 1, 0, f[:e])


def reference_abelian_basis(elements, mul, one, order):
    """Independent generators of prime-power order for a finite abelian group,
    as abelian._abelian_basis, with its Sylow scan over every element.

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

    gens, orders = [], []
    elements = list(elements)
    for ell, v in prime_factors:
        cofactor = order // ell ** v
        sylow = {}
        for x in elements:
            y = elem_pow(x, cofactor)
            if y not in sylow:
                o = 1
                z = y
                while z != one:
                    z = elem_pow(z, ell)
                    o *= ell
                sylow[y] = o
        # greedy basis with corrections
        basis, basis_orders = [], []
        span = {one: ()}
        target = ell ** v
        while len(span) < target:
            best, best_ord = None, 0
            for y in sylow:
                # order of y modulo current span
                o = 1
                z = y
                while z not in span:
                    z = elem_pow(z, ell)
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


def reference_units(mod):
    """The units of A/mod, as FqPoly, in product order of their tails."""
    F = mod.field
    for tail in itertools.product(range(F.q), repeat=mod.degree):
        a = FqPoly(F, tail)
        if a.gcd(mod).is_one():
            yield a


def reference_class_table(layer):
    """(reps, generators, orders, dlog) of a GaloisLayer, built as
    GaloisLayer.__init__ built them: canonical keys of reference_units in
    first-seen order, reference_abelian_basis on them, and the dlog key of
    every exponent tuple from one powmod per generator."""
    F, mod = layer.field, layer.modulus
    canon_seen = {}
    for u in reference_units(mod):
        key = layer._canon(u).coeffs
        canon_seen[key] = None
    reps = list(canon_seen)
    expected = unit_count(mod) // (F.q - 1)
    if len(reps) != expected:
        raise ArithmeticError("F_q^x quotient has unexpected size")

    def mul(a, b):
        return layer._canon((FqPoly(F, a) * FqPoly(F, b)) % mod).coeffs

    one = layer._canon(FqPoly.one(F)).coeffs
    gens, orders = reference_abelian_basis(reps, mul, one, expected)
    generators = [FqPoly(F, g) for g in gens]
    group = AbelianGroup(tuple(orders))
    dlog = {}
    for exps in group.elements():
        acc = FqPoly.one(F)
        for g, e in zip(generators, exps):
            acc = acc * g.powmod(e, mod) % mod
        key = layer._canon(acc).coeffs
        if key in dlog:
            raise ArithmeticError("layer generators are not independent")
        dlog[key] = exps
    return reps, generators, tuple(orders), dlog
