import itertools
import math
import random

import pytest

from ctower.abelian import _abelian_basis
from ctower.ffpoly import (
    FieldMismatchError,
    FinitePlace,
    FqField,
    FqPoly,
    NonMonicError,
    _irreducible_list,
    _mark_multiples,
    factor,
    irreducibles_of_degree,
    is_irreducible,
    unit_count,
)

from carlitz_reference import parse_serialized
from ffpoly_reference import reference_abelian_basis, reference_sieve_list, reference_units

F2 = FqField(2)
F3 = FqField(3)
F4 = FqField(2, 2)
F5 = FqField(5)


def poly(field, *coeffs):
    return FqPoly(field, coeffs)


def evaluate(f: FqPoly, a: int) -> int:
    """f(a) for a in F_q, by Horner: the oracle of the root searches below."""
    F = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(q: int, d: int) -> int:
    """(1/d) * sum_{e | d} mu(d/e) q^e: the number of monic irreducibles of
    degree d over F_q, the reference count for irreducibles_of_degree."""
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


def schoolbook_mul(a, b):
    """Independent oracle: naive convolution using only field add/mul."""
    F = a.field
    if a.is_zero() or b.is_zero():
        return FqPoly.zero(F)
    out = [0] * (a.degree + b.degree + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return FqPoly(F, out)


class TestFieldArithmetic:
    def test_prime_field_tables(self):
        for a in range(3):
            for b in range(3):
                assert F3.add(a, b) == (a + b) % 3
                assert F3.mul(a, b) == (a * b) % 3

    def test_extension_field_axioms(self):
        for F in (F4, FqField(3, 2)):
            elems = range(F.q)
            for a, b in itertools.product(elems, repeat=2):
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
            for a in elems:
                assert F.add(a, F.neg(a)) == 0
                if a:
                    assert F.mul(a, F.inv(a)) == 1

    def test_distributivity_f4(self):
        for a, b, c in itertools.product(range(F4.q), repeat=3):
            assert F4.mul(a, F4.add(b, c)) == F4.add(F4.mul(a, b), F4.mul(a, c))

    def test_frobenius_is_automorphism_fixing_fp(self):
        # spot-check small prime extension degrees
        for p, e in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
            F = FqField(p, e)
            def frobenius(a):
                return F.pow(a, p)

            fixed = [a for a in range(F.q) if frobenius(a) == a]
            assert sorted(fixed) == list(range(p))
            for a, b in itertools.product(range(F.q), repeat=2):
                assert frobenius(F.mul(a, b)) == F.mul(frobenius(a), frobenius(b))
                assert frobenius(F.add(a, b)) == F.add(frobenius(a), frobenius(b))

    def test_a_pow_q_equals_a(self):
        for F in (F2, F3, F4, F5, FqField(2, 3)):
            for a in range(F.q):
                assert F.pow(a, F.q) == a

    def test_q_bound(self):
        with pytest.raises(ValueError):
            FqField(2, 17)

    def test_interning(self):
        assert FqField(3) is FqField(3)
        assert FqField(2, 2) is FqField(2, 2)


def schoolbook_mulmod(a, b, p, modulus):
    """Independent oracle for F_p[x]/(modulus) on packed base-p digits."""
    e = len(modulus) - 1
    da = [a // p ** i % p for i in range(e)]
    db = [b // p ** i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i in range(e):
        for j in range(e):
            prod[i + j] += da[i] * db[j]
    for top in range(2 * e - 2, e - 1, -1):  # modulus is monic
        c = prod[top]
        for i in range(e + 1):
            prod[top - e + i] -= c * modulus[i]
    return sum((prod[i] % p) * p ** i for i in range(e))


def schoolbook_addmod(a, b, p, e, sign=1):
    """a + sign * b in F_p[x]/(modulus), digit by digit."""
    return sum((a // p ** i + sign * (b // p ** i)) % p * p ** i for i in range(e))


def schoolbook_powmod(a, n, p, modulus):
    """a^n for n >= 0 by square-and-multiply on schoolbook_mulmod."""
    r = 1
    while n:
        if n & 1:
            r = schoolbook_mulmod(r, a, p, modulus)
        a = schoolbook_mulmod(a, a, p, modulus)
        n >>= 1
    return r


def check_against_schoolbook(F, pairs):
    """add, sub, neg, mul, inv and pow of F on pairs against F_p[x]/(m)."""
    p, e, m = F.p, F.e, F.modulus
    for a, b in pairs:
        assert F.add(a, b) == schoolbook_addmod(a, b, p, e)
        assert F.sub(a, b) == schoolbook_addmod(a, b, p, e, -1)
        assert F.neg(b) == schoolbook_addmod(0, b, p, e, -1)
        assert F.mul(a, b) == schoolbook_mulmod(a, b, p, m)
        assert F.pow(a, b) == schoolbook_powmod(a, b, p, m)
        if b:
            assert schoolbook_mulmod(b, F.inv(b), p, m) == 1
            assert schoolbook_mulmod(F.pow(b, -a), schoolbook_powmod(b, a, p, m), p, m) == 1


class TestExtensionFields:
    # lexicographically smallest monic irreducible, constant term first
    DEFAULT_MODULI = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 0, 1, 1),
        (2, 4): (1, 0, 0, 1, 1),
        (3, 2): (1, 0, 1),
        (3, 3): (1, 0, 2, 1),
        (5, 2): (1, 1, 1),
    }

    def test_default_moduli(self):
        for (p, e), modulus in self.DEFAULT_MODULI.items():
            assert FqField(p, e).modulus == modulus

    def test_mul_matches_schoolbook_mod_modulus(self):
        # and add, sub, neg, inv and pow, on every pair
        fields = [FqField(p, e) for p, e in self.DEFAULT_MODULI]
        fields.append(FqField.extension(F3, (2, 1, 1)))  # a non-default modulus
        for F in fields:
            check_against_schoolbook(F, itertools.product(range(F.q), repeat=2))

    @pytest.mark.parametrize("p, e", [(2, 10), (2, 11), (3, 6)])
    def test_sampled_pairs_match_schoolbook(self, p, e):
        # fields on either side of q = 1024, where an addition table once
        # gave way to digit-by-digit addition
        F = FqField(p, e)
        rng = random.Random(p * 100 + e)
        check_against_schoolbook(F, [(rng.randrange(F.q), rng.randrange(F.q))
                                     for _ in range(500)])


class TestPolyMul:
    def test_char2_square(self):
        # (theta+1)^2 = theta^2 + 1 over F_2
        a = poly(F2, 1, 1)
        assert a * a == poly(F2, 1, 0, 1)

    def test_identity(self):
        a = poly(F3, 2, 1, 1)
        assert a * FqPoly.one(F3) == a

    def test_derived_schoolbook(self):
        # (theta^2+1) * theta over F_3 = theta^3 + theta
        a, b = poly(F3, 1, 0, 1), poly(F3, 0, 1)
        expected = schoolbook_mul(a, b)
        assert expected == poly(F3, 0, 1, 0, 1)
        assert a * b == expected

    def test_random_against_oracle(self):
        rng = random.Random(42)
        for F in (F2, F3, F4, F5):
            for _ in range(40):
                a = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(8))])
                b = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(8))])
                got = a * b
                assert got == schoolbook_mul(a, b)
                if not a.is_zero() and not b.is_zero():
                    assert got.degree == a.degree + b.degree

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            poly(F2, 1, 1) * poly(F3, 1, 1)


class TestDivmodGcd:
    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(60):
            F = rng.choice([F2, F3, F5])
            a = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 10))])
            b = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_extended_gcd(self):
        rng = random.Random(11)
        for _ in range(40):
            F = rng.choice([F2, F3, F4])
            a = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 8))])
            b = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 8))])
            g, s, t = a.extended_gcd(b)
            assert s * a + t * b == g
            assert g == a.gcd(b)


    def test_prime_field_divmod_vs_schoolbook(self):
        def schoolbook_divmod(a, b, p):
            rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
            inv = pow(b[-1], -1, p)
            for shift in range(len(quo) - 1, -1, -1):
                c = rem[shift + len(b) - 1] * inv % p
                quo[shift] = c
                for i, bi in enumerate(b):
                    rem[shift + i] = (rem[shift + i] - c * bi) % p
            return quo, rem[:len(b) - 1]

        rng = random.Random(29)
        for _ in range(400):
            F = FqField(rng.choice([2, 3, 5, 7, 11]))
            p = F.p
            a = FqPoly(F, [rng.randrange(p) for _ in range(rng.randrange(0, 16))])
            b = FqPoly(F, [rng.randrange(p) for _ in range(rng.randrange(0, 8))] + [rng.randrange(1, p)])
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
            ref_q, ref_r = schoolbook_divmod(list(a.coeffs), list(b.coeffs), p)
            assert q == FqPoly(F, ref_q) and r == FqPoly(F, ref_r)


class TestIrreducibility:
    def test_theta2_plus_1_f3(self):
        # no roots in F_3, degree 2 -> irreducible (oracle: root search)
        f = poly(F3, 1, 0, 1)
        assert all(evaluate(f, a) != 0 for a in range(F3.q))
        assert is_irreducible(f)

    def test_theta2_plus_1_f2(self):
        assert not is_irreducible(poly(F2, 1, 0, 1))  # (theta+1)^2

    def test_theta3_theta_1_f2(self):
        # oracle: no roots over F_2, and no roots of any quadratic factor in F_4
        f = poly(F2, 1, 1, 0, 1)
        assert all(evaluate(f, a) != 0 for a in range(F2.q))
        assert is_irreducible(f)

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonicError):
            is_irreducible(poly(F3, 1, 2))

    def test_against_trial_division(self):
        for F in (F2, F3):
            for d in (2, 3, 4):
                smaller = [g for e in range(1, d) for g, _ in
                           [(pl.gen, None) for pl in irreducibles_of_degree(F, e)]]
                for tail in itertools.product(range(F.q), repeat=d):
                    f = FqPoly(F, tail + (1,))
                    by_trial = not any((f % g).is_zero() for g in smaller if 2 * g.degree <= d)
                    assert is_irreducible(f) == by_trial


class TestEnumeration:
    def test_q2_d2(self):
        got = [pl.gen for pl in irreducibles_of_degree(F2, 2)]
        assert got == [poly(F2, 1, 1, 1)]
        assert irreducible_count(2, 2) == 1

    def test_q2_d3_count(self):
        assert len(list(irreducibles_of_degree(F2, 3))) == 2
        assert irreducible_count(2, 3) == (8 - 2) // 3

    def test_q3_d1(self):
        got = [pl.gen for pl in irreducibles_of_degree(F3, 1)]
        assert got == [poly(F3, 0, 1), poly(F3, 1, 1), poly(F3, 2, 1)]

    def test_counts_match_mobius(self):
        for q, F in [(2, F2), (3, F3), (4, F4), (5, F5)]:
            for d in range(1, 7):
                assert len(list(irreducibles_of_degree(F, d))) == irreducible_count(q, d)

    def test_orbit_count_identity_small(self):
        # sum_{e | d} e * N_e = q^d  (points of the affine line over F_{q^d})
        for q, F in [(2, F2), (3, F3)]:
            for d in range(1, 9):
                total = sum(e * irreducible_count(q, e) for e in range(1, d + 1) if d % e == 0)
                assert total == q ** d

    def test_every_enumerated_is_irreducible(self):
        for F in (F3, F4):
            for pl in irreducibles_of_degree(F, 3):
                assert is_irreducible(pl.gen)


def reference_irreducible_list(field, d):
    """The trial-division scan the sieve replaced, kept as its oracle."""
    out = []
    small = [g for e in range(1, d // 2 + 1) for g in reference_irreducible_list(field, e)]
    for tail in itertools.product(range(field.q), repeat=d):
        f = FqPoly(field, tail + (1,))
        if d == 1:
            out.append(f)
            continue
        if any((f % g).is_zero() for g in small):
            continue
        out.append(f)
    return tuple(sorted(out, key=FqPoly.sort_key))


class TestBatchSieve:
    def test_sieve_agrees_with_trial_division(self):
        for F, top in [(F2, 10), (F3, 7), (F4, 5), (F5, 5)]:
            for d in range(1, top + 1):
                sieved = [pl.gen for pl in irreducibles_of_degree(F, d)]
                assert [f.coeffs for f in sieved] == [
                    f.coeffs for f in reference_irreducible_list(F, d)]
                assert all(is_irreducible(f) for f in sieved)

    def test_recurrence_matches_the_recursive_sieve(self):
        # every (q, d) that a benchmark tower asks for through D + 2, and more
        for F, top in [(F2, 13), (F3, 9), (F4, 7), (F5, 6), (FqField(7), 5),
                       (FqField(3, 2), 4)]:
            for d in range(1, top + 1):
                assert [f.coeffs for f in _irreducible_list(F, d)] == [
                    f.coeffs for f in reference_sieve_list(F, d)], (F.q, d)

    def test_flags_are_the_products(self):
        # the flagged indices are exactly the tails of f*g, g monic of
        # degree d - deg f, multiplied out in FqPoly
        for F, d in [(F2, 7), (F3, 5), (F4, 4), (FqField(3, 2), 3), (F5, 4)]:
            weight = [F.q ** (d - 1 - t) for t in range(d)]
            for e in range(1, d // 2 + 1):
                for f in _irreducible_list(F, e):
                    composite = bytearray(F.q ** d)
                    _mark_multiples(composite, f.coeffs, d, F)
                    products = set()
                    for tail in itertools.product(range(F.q), repeat=d - e):
                        h = f * FqPoly(F, tail + (1,))
                        products.add(sum(h[t] * weight[t] for t in range(d)))
                    assert {i for i, b in enumerate(composite) if b} == products, (F.q, f, d)

    def test_enumeration_imports_only_stdlib(self):
        # q^d = 59049 candidate tails; the enumerator needs nothing outside the stdlib
        import os
        import subprocess
        import sys

        import ctower

        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from ctower.ffpoly import FqField, irreducibles_of_degree\n"
            "list(irreducibles_of_degree(FqField(3), 10))\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'ctower'}))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(ctower.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"

    def test_orbit_identity_spec_bounds(self):
        # spec invariant: d <= 8, q in {2,3,4,5}; enumeration counts, not Mobius
        for q, F in [(2, F2), (3, F3), (4, F4), (5, F5)]:
            counts = {e: len(list(irreducibles_of_degree(F, e))) for e in range(1, 9)}
            for d in range(1, 9):
                total = sum(e * counts[e] for e in counts if d % e == 0)
                assert total == q ** d


class TestFactor:
    def test_char2_square(self):
        f = poly(F2, 1, 0, 1)
        assert factor(f) == [(poly(F2, 1, 1), 2)]

    def test_theta3_theta_f3(self):
        # theta^3 + theta = theta * (theta^2 + 1) over F_3, theta^2+1 irreducible
        f = poly(F3, 0, 1, 0, 1)
        got = factor(f)
        assert got == [(poly(F3, 0, 1), 1), (poly(F3, 1, 0, 1), 1)]
        acc = FqPoly.one(F3)
        for g, m in got:
            acc = acc * g ** m
        assert acc == f

    def test_irreducible_fixed_point(self):
        f = poly(F2, 1, 1, 0, 1)
        assert factor(f) == [(f, 1)]

    def test_roundtrip_random_monics(self):
        rng = random.Random(123)
        for _ in range(30):
            F = rng.choice([F2, F3, F5])
            d = rng.randrange(1, 21)
            f = FqPoly(F, [rng.randrange(F.q) for _ in range(d)] + [1])
            got = factor(f)
            acc = FqPoly.one(F)
            for g, m in got:
                assert is_irreducible(g)
                acc = acc * g ** m
            assert acc == f

    def test_deterministic(self):
        f = poly(F3, 1, 2, 0, 2, 1, 1)
        assert factor(f) == factor(f)


def unit_basis(mod):
    """_abelian_basis on (A/mod)^x with the plain residue law, plus the dlog
    table of the basis; every unit must be hit by exactly one exponent tuple."""
    F = mod.field

    def mul(a, b):
        return ((FqPoly(F, a) * FqPoly(F, b)) % mod).coeffs

    units = [u.coeffs for u in reference_units(mod)]
    gens, orders = _abelian_basis(units, mul, FqPoly.one(F).coeffs, unit_count(mod))
    gen_polys = [FqPoly(F, g) for g in gens]
    dlog = {}
    for exps in itertools.product(*(range(o) for o in orders)):
        acc = FqPoly.one(F)
        for g, e in zip(gen_polys, exps):
            acc = acc * g.powmod(e, mod) % mod
        assert acc.coeffs not in dlog
        dlog[acc.coeffs] = exps
    assert set(dlog) == set(units)
    return gen_polys, orders, dlog


class TestResidueRingUnits:
    def test_cyclic_of_order_8(self):
        # q=3, m=theta^2+1: (A/m)^x is F_9^x, cyclic of order 8
        _, orders, _ = unit_basis(poly(F3, 1, 0, 1))
        assert sorted(orders) == [8]

    def test_order_72(self):
        # q=3, m=(theta^2+1)^2: 81 * (1 - 1/9) = 72
        _, orders, dlog = unit_basis(poly(F3, 1, 0, 1) ** 2)
        assert math.prod(orders) == len(dlog) == 72

    def test_trivial_group(self):
        gens, orders, _ = unit_basis(poly(F2, 0, 1))
        assert gens == [] and orders == []

    def test_euler_closed_form_small_moduli(self):
        rng = random.Random(5)
        for _ in range(25):
            F = rng.choice([F2, F3])
            d = rng.randrange(1, 7)
            m = FqPoly(F, [rng.randrange(F.q) for _ in range(d)] + [1])
            _, orders, _ = unit_basis(m)
            brute = sum(1 for _ in reference_units(m))
            assert math.prod(orders) == unit_count(m) == brute

    def test_unit_count_rejects_a_bad_modulus(self):
        for m in (poly(F3, 1, 2), FqPoly.one(F3)):
            with pytest.raises(NonMonicError, match="residue ring modulus"):
                unit_count(m)

    @pytest.mark.parametrize("mod", [poly(F3, 1, 0, 1) ** 2, poly(F2, 1, 1, 1) ** 3,
                                     poly(F2, 0, 1) ** 3 * poly(F2, 1, 1, 1),
                                     poly(F3, 0, 1) * poly(F3, 1, 0, 1) ** 2],
                             ids=["q3-72", "q2-48", "q2-24", "q3-216"])
    def test_sylow_scan_stops_at_the_full_subgroup(self, mod):
        # the greedy choices are those of the full scan, with fewer products
        F = mod.field
        calls = []

        def mul(a, b):
            calls.append(None)
            return ((FqPoly(F, a) * FqPoly(F, b)) % mod).coeffs

        units = [u.coeffs for u in reference_units(mod)]
        args = (units, mul, FqPoly.one(F).coeffs, unit_count(mod))
        got, cheap = _abelian_basis(*args), len(calls)
        calls.clear()
        assert got == reference_abelian_basis(*args)
        assert cheap < len(calls)

    def test_dlog_consistency(self):
        mod = poly(F3, 1, 0, 1) ** 2
        _, orders, dlog = unit_basis(mod)
        rng = random.Random(9)
        units = list(reference_units(mod))
        for _ in range(20):
            a, b = rng.choice(units), rng.choice(units)
            ea, eb = dlog[a.coeffs], dlog[b.coeffs]
            prod_exps = tuple((x + y) % o for x, y, o in zip(ea, eb, orders))
            assert dlog[(a * b % mod).coeffs] == prod_exps

    def test_structure_by_torsion_counting(self):
        # independent oracle: number of x with x^d = 1 determines the structure
        mod = poly(F3, 1, 0, 1) ** 2
        _, orders, _ = unit_basis(mod)
        for d in (2, 3, 4, 6, 8, 9, 72):
            brute = sum(1 for u in reference_units(mod) if u.powmod(d, mod).is_one())
            struct = 1
            for o in orders:
                struct *= math.gcd(o, d)
            assert brute == struct


class TestSerialization:
    def test_roundtrip(self):
        f = poly(F3, 1, 0, 1)
        s = f.serialize()
        assert s == "[1,0,1]@q=3^1"
        assert parse_serialized(s) == f
        assert parse_serialized(FqPoly.zero(F4).serialize()) == FqPoly.zero(F4)

    def test_place_degree(self):
        pl = FinitePlace(poly(F3, 1, 0, 1))
        assert pl.degree == 2
