import itertools
import random

from ctower.snf import (
    hensel_lift_factors,
    zpk_cokernel_exponents,
    zpk_kernel,
    zpk_module_order_exponent,
    zpk_smith,
    zpk_solve,
)


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


class TestZpk:
    def test_smith_transforms(self):
        rng = random.Random(5)
        p, k = 3, 5
        pk = p ** k
        for _ in range(30):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            mat = [[rng.randrange(pk) for _ in range(cols)] for _ in range(rows)]
            vals, u, v = zpk_smith(mat, p, k)
            prod = matmul(matmul(u, mat), v)
            for i in range(rows):
                for j in range(cols):
                    expected = p ** vals[i] % pk if (i == j and i < len(vals) and vals[i] < k) else 0
                    assert prod[i][j] % pk == expected
            assert vals == sorted(vals)

    def test_solve_matches_bruteforce(self):
        rng = random.Random(11)
        p, k = 2, 3
        pk = p ** k
        for _ in range(40):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
            mat = [[rng.randrange(pk) for _ in range(cols)] for _ in range(rows)]
            rhs = [rng.randrange(pk) for _ in range(rows)]
            brute = None
            for cand in itertools.product(range(pk), repeat=cols):
                if all(sum(mat[i][j] * cand[j] for j in range(cols)) % pk == rhs[i] % pk
                       for i in range(rows)):
                    brute = cand
                    break
            got = zpk_solve(mat, rhs, p, k)
            if brute is None:
                assert got is None
            else:
                assert got is not None
                assert all(sum(mat[i][j] * got[j] for j in range(cols)) % pk == rhs[i] % pk
                           for i in range(rows))

    def test_kernel_spans_bruteforce(self):
        rng = random.Random(13)
        p, k = 2, 2
        pk = p ** k
        for _ in range(25):
            rows, cols = rng.randrange(1, 3), rng.randrange(1, 4)
            mat = [[rng.randrange(pk) for _ in range(cols)] for _ in range(rows)]
            brute = {cand for cand in itertools.product(range(pk), repeat=cols)
                     if all(sum(mat[i][j] * cand[j] for j in range(cols)) % pk == 0
                            for i in range(rows))}
            gens = zpk_kernel(mat, p, k)
            span = {tuple([0] * cols)}
            for g in gens:
                new = set()
                for s in span:
                    acc = list(s)
                    for _ in range(pk):
                        new.add(tuple(acc))
                        acc = [(a + b) % pk for a, b in zip(acc, g)]
                span = new
            assert span == brute

    def test_cokernel_order(self):
        # coker of diag(p, p^2) inside (Z/p^4)^2 has order p^3
        p, k = 3, 4
        mat = [[p, 0], [0, p * p]]
        assert zpk_module_order_exponent(mat, p, k) == 3
        assert sorted(zpk_cokernel_exponents(mat, p, k)) == [1, 2]

    def test_cokernel_zero_map(self):
        assert zpk_module_order_exponent([[0, 0], [0, 0]], 2, 5) == 10


class TestHensel:
    def test_phi4_mod3(self):
        # Phi_4 = x^2 + 1 is irreducible mod 3: single factor lifts trivially
        f = [1, 0, 1]
        out = hensel_lift_factors(f, [[1, 0, 1]], 3, 6)
        assert out == [[1, 0, 1]]

    def test_x2_minus_1_mod3(self):
        # x^2 - 1 = (x+1)(x+2) mod 3; lift to mod 3^5
        f = [-1, 0, 1]
        out = hensel_lift_factors(f, [[1, 1], [2, 1]], 3, 5)
        pk = 3 ** 5
        prod = [1]
        for g in out:
            tmp = [0] * (len(prod) + len(g) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(g):
                    tmp[i + j] = (tmp[i + j] + a * b) % pk
            prod = tmp
        assert prod == [c % pk for c in f]

    def test_cyclotomic_12_mod_5(self):
        # Phi_12 = x^4 - x^2 + 1 factors mod 5 as two quadratics
        from ctower.ffpoly import FqField, FqPoly, factor

        F5 = FqField(5)
        phi12 = [1, 0, -1 % 5, 0, 1]
        facs = factor(FqPoly(F5, phi12))
        assert all(m == 1 for _, m in facs)
        lifted = hensel_lift_factors([1, 0, -1, 0, 1], [list(g.coeffs) for g, _ in facs], 5, 8)
        pk = 5 ** 8
        prod = [1]
        for g in lifted:
            tmp = [0] * (len(prod) + len(g) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(g):
                    tmp[i + j] = (tmp[i + j] + a * b) % pk
            prod = tmp
        assert prod == [c % pk for c in [1, 0, -1, 0, 1]]
