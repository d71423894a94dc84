import itertools
import random

from ctower.abelian import AbelianGroup
from ctower.grouprings import (
    PolyGroupRing,
    ZpkGroupRing,
    is_unit,
    mult_matrix,
)
from ctower.snf import (
    hensel_lift_factors,
    zpk_cokernel_exponents,
    zpk_exponents,
    zpk_kernel,
    zpk_smith,
    zpk_solve,
)
from zpk_reference import triangular_exponents


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
            vals, v = zpk_smith(mat, p, k)
            u = reference_zpk_smith(mat, p, k)[1]
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
        assert sum(zpk_cokernel_exponents(mat, p, k)) == 3
        assert sorted(zpk_cokernel_exponents(mat, p, k)) == [1, 2]

    def test_cokernel_zero_map(self):
        assert sum(zpk_cokernel_exponents([[0, 0], [0, 0]], 2, 5)) == 10


# The elimination as it stood before its pivot search and column step were
# tightened, kept verbatim as the oracle for TestSmithReference.
def _ref_val(a, p, k):
    if a == 0:
        return k
    v = 0
    while a % p == 0 and v < k:
        a //= p
        v += 1
    return v


def reference_zpk_smith(mat, p, k):
    """(diag, U, V) with U*M*V = diag(p^v_1,...) mod p^k, U, V units mod p^k.

    diag is returned as the list of exponents v_1 <= v_2 <= ... (v_i = k for
    entries that vanish mod p^k), padded to min(rows, cols).
    """
    pk = p ** k
    m = [[a % pk for a in row] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    t = 0
    vals = []
    while t < min(rows, cols):
        best, best_v = None, k
        for i in range(t, rows):
            for j in range(t, cols):
                v = _ref_val(m[i][j], p, k)
                if v < best_v:
                    best, best_v = (i, j), v
        if best is None or best_v >= k:
            break
        i0, j0 = best
        m[t], m[i0] = m[i0], m[t]
        U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for r in range(rows):
                m[r][t], m[r][j0] = m[r][j0], m[r][t]
            for r in range(cols):
                V[r][t], V[r][j0] = V[r][j0], V[r][t]
        v = best_v
        unit = m[t][t] // p ** v
        unit_inv = pow(unit, -1, pk)
        # normalize pivot row so the pivot is exactly p^v
        m[t] = [(a * unit_inv) % pk for a in m[t]]
        U[t] = [(a * unit_inv) % pk for a in U[t]]
        for i in range(rows):
            if i != t and m[i][t]:
                c = m[i][t] // p ** v  # exact: v is the minimal valuation
                m[i] = [(a - c * b) % pk for a, b in zip(m[i], m[t])]
                U[i] = [(a - c * b) % pk for a, b in zip(U[i], U[t])]
        for j in range(cols):
            if j != t and m[t][j]:
                c = m[t][j] // p ** v
                for r in range(rows):
                    m[r][j] = (m[r][j] - c * m[r][t]) % pk
                for r in range(cols):
                    V[r][j] = (V[r][j] - c * V[r][t]) % pk
        vals.append(v)
        t += 1
    while len(vals) < min(rows, cols):
        vals.append(k)
    return vals, U, V


class TestSmithReference:
    """zpk_smith returns exactly the (vals, V) of the reference elimination."""

    @staticmethod
    def _matrices(rng, p, k, rows, cols):
        pk = p ** k
        yield [[0] * cols for _ in range(rows)]
        yield [[p * rng.randrange(pk) for _ in range(cols)] for _ in range(rows)]
        yield [[rng.randrange(-2 * pk, 2 * pk) for _ in range(cols)] for _ in range(rows)]
        yield [[rng.choice((0, 0, 1, p, p * p)) * rng.randrange(1, pk) for _ in range(cols)]
               for _ in range(rows)]

    @classmethod
    def families(cls, seed):
        """(p, k, mat) for p in {2, 3, 5}, k <= 5 and every shape up to 9 x 9."""
        rng = random.Random(seed)
        for p in (2, 3, 5):
            for k in range(1, 6):
                for rows in range(10):
                    for cols in range(10):
                        for mat in cls._matrices(rng, p, k, rows, cols):
                            yield p, k, mat

    def test_identical_to_reference(self):
        for p, k, mat in self.families(2024):
            vals, _, V = reference_zpk_smith(mat, p, k)
            assert zpk_smith(mat, p, k) == (vals, V), (p, k, mat)


# zpk_solve as it stood before the triangular pass, kept verbatim as the
# oracle for TestTriangularReference; only the elimination it reads U and V
# from is the reference one above.
def reference_zpk_solve(mat, rhs, p, k):
    """One solution x of M x = rhs mod p^k, or None if inconsistent."""
    pk = p ** k
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    vals, U, V = reference_zpk_smith(mat, p, k)
    y = [sum(U[i][j] * rhs[j] for j in range(rows)) % pk for i in range(rows)]
    z = [0] * cols
    for i in range(rows):
        v = vals[i] if i < len(vals) else k
        if v >= k:
            if i < len(y) and y[i] % pk:
                return None
            continue
        if y[i] % (p ** v):
            return None
        z[i] = y[i] // p ** v
    for i in range(min(len(vals), rows), rows):
        if y[i] % pk:
            return None
    x = [sum(V[i][j] * z[j] for j in range(cols)) % pk for i in range(cols)]
    return x


def reference_is_unit(x, ring):
    sol = reference_zpk_solve(mult_matrix(ring, [[x]]), ring.one, ring.p, ring.k)
    if sol is None:
        return False, None
    inv = ring.from_vec(sol)
    if ring.mul(x, inv) != ring.one:
        return False, None
    return True, inv


class TestTriangularReference:
    """The transform-free pass gives zpk_smith's exponents and the reference's
    solvability, and every solution it returns solves the system."""

    def test_exponents_match_smith(self):
        for p, k, mat in TestSmithReference.families(2025):
            assert zpk_exponents(mat, p, k) == zpk_smith(mat, p, k)[0], (p, k, mat)

    def test_solve_matches_reference(self):
        rng = random.Random(2026)
        solved = 0
        for p, k, mat in TestSmithReference.families(2026):
            pk = p ** k
            cols = len(mat[0]) if mat else 0
            x0 = [rng.randrange(-pk, pk) for _ in range(cols)]
            consistent = [sum(a * b for a, b in zip(row, x0)) for row in mat]
            for rhs in (consistent, [rng.randrange(pk) for _ in mat]):
                got = zpk_solve(mat, rhs, p, k)
                assert (got is None) == (reference_zpk_solve(mat, rhs, p, k) is None), \
                    (p, k, mat, rhs)
                if rhs is consistent:
                    assert got is not None
                if got is not None:
                    solved += 1
                    assert len(got) == cols
                    assert all((sum(a * b for a, b in zip(row, got)) - c) % pk == 0
                               for row, c in zip(mat, rhs)), (p, k, mat, rhs)
        assert solved > 6000

    def test_unit_inverses_match_reference(self):
        rng = random.Random(2027)
        rings = [ZpkGroupRing(p, k, AbelianGroup(orders))
                 for orders in ((2,), (3,), (4,), (3, 2), (2, 2), (9,), (5,))
                 for p in (2, 3, 5) for k in (1, 2, 4)]
        rings += [PolyGroupRing(3, 3, (1, 0, 1), AbelianGroup((3,))),
                  PolyGroupRing(5, 2, (1, 0, 1), AbelianGroup((5,))),
                  PolyGroupRing(2, 3, (0, 0, 0, 1), AbelianGroup((2,))),
                  PolyGroupRing(3, 2, (0, 0, 1), AbelianGroup((2,)))]
        units = 0
        for ring in rings:
            one = ring.one
            for _ in range(8):
                rand = [rng.randrange(ring.pk) for _ in range(ring.basis_size)]
                for vec in (rand, [a + ring.p * b for a, b in zip(one, rand)],
                            [ring.p * b for b in rand]):
                    x = ring.from_vec(vec)
                    ok, inv = is_unit(x, ring)
                    ref_ok, ref_inv = reference_is_unit(x, ring)
                    assert ok == ref_ok, (type(ring).__name__, ring.p, ring.k, vec)
                    if ok:
                        units += 1
                        assert inv == ref_inv
        assert units > 300


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


class TestPackedExponents:
    """zpk_exponents, the level-by-level pass over packed rows, against the
    triangular pass."""

    @staticmethod
    def _row(rng, p, k, cols):
        """A zero, p-divisible or arbitrary row, with entries off [0, p^k)."""
        pk = p ** k
        kind = rng.randrange(4)
        if kind == 0:
            return [0] * cols
        if kind == 1:
            return [p ** rng.randint(1, k) * rng.randrange(-pk, pk) for _ in range(cols)]
        return [rng.randrange(-pk, 2 * pk) for _ in range(cols)]

    def test_random_matrices(self):
        rng = random.Random(23)
        widths = set()
        for case in range(3000):
            p, k = rng.choice((2, 3, 5)), rng.randint(1, 24)
            shape = case % 4
            rows = rng.randint(1, 4) if shape == 0 else rng.randint(5, 12)
            cols = rng.randint(1, 4) if shape == 1 else rng.randint(5, 12)
            mat = [self._row(rng, p, k, cols) for _ in range(rows)]
            if shape == 3:  # low rank: a product through r < min(rows, cols)
                r = rng.randint(1, 4)
                left = [self._row(rng, p, k, r) for _ in range(rows)]
                mat = matmul(left, mat[:r])
            assert zpk_exponents(mat, p, k) == triangular_exponents(mat, p, k), (p, k, mat)
            widths.add(2 * (p ** k).bit_length() + (rows + 1).bit_length() + 1)
        # fields that fit an array word, and fields of more than 8 bytes
        assert min(widths) <= 16 and max(widths) > 64

    def test_degenerate_shapes(self):
        for p, k in ((2, 5), (3, 24)):
            assert zpk_exponents([], p, k) == []
            assert zpk_exponents([[], []], p, k) == []
            assert zpk_exponents([[0, 0, 0]], p, k) == [k]
            assert zpk_exponents([[p ** k, -p ** (k + 1)]], p, k) == [k]
            assert zpk_exponents([[p], [p], [p ** 2]], p, k) == [1]
