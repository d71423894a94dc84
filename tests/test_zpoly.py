import random

import pytest
from hypothesis import given, settings, strategies as st

from ctower import zpoly
from ctower.grouprings import cyclotomic_polynomial


def ref_trim(a):
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_mul(a, b, mod=None):
    """Schoolbook convolution, reduced coefficientwise at the end."""
    out = [0] * (len(a) + len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    if mod is not None:
        out = [c % mod for c in out]
    return ref_trim(out)


def ref_sub(a, b, mod=None):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    out = [x - y for x, y in zip(a, b)]
    if mod is not None:
        out = [c % mod for c in out]
    return ref_trim(out)


def random_poly(rng, max_len=7, bound=50):
    # no trailing zero: the kernel's convention for its inputs
    return ref_trim([rng.randrange(-bound, bound + 1) for _ in range(rng.randrange(max_len + 1))])


class TestMulSub:
    @pytest.mark.parametrize("mod", [None, 2, 27, 5 ** 6])
    def test_against_schoolbook(self, mod):
        rng = random.Random(11)
        for _ in range(300):
            a, b = random_poly(rng), random_poly(rng)
            assert zpoly.mul(a, b, mod) == ref_mul(a, b, mod)
            assert zpoly.sub(a, b, mod) == ref_sub(a, b, mod)

    def test_reduced_range(self):
        rng = random.Random(12)
        for _ in range(100):
            a, b = random_poly(rng), random_poly(rng)
            assert all(0 <= c < 9 for c in zpoly.mul(a, b, 9) + zpoly.sub(a, b, 9))


class TestExactDiv:
    def test_inverts_mul(self):
        rng = random.Random(13)
        for _ in range(300):
            a, b = random_poly(rng), random_poly(rng)
            if not b:
                continue
            assert zpoly.exact_div(zpoly.mul(a, b), b) == a

    def test_leading_coefficient_does_not_divide(self):
        # the first quotient term would be 1/2
        with pytest.raises(ArithmeticError):
            zpoly.exact_div([1, 1], [2, 2])
        with pytest.raises(ArithmeticError):
            zpoly.exact_div([1, 0, 3], [1, 2])

    def test_remainder_left(self):
        # u^2 + 1 = (u - 1)(u + 1) + 2
        with pytest.raises(ArithmeticError):
            zpoly.exact_div([1, 0, 1], [-1, 1])
        # lower degree than the divisor, but not zero
        with pytest.raises(ArithmeticError):
            zpoly.exact_div([5], [1, 1])

    def test_negative_leading_coefficient(self):
        # (1 - u^3) / (1 - u) = 1 + u + u^2
        assert zpoly.exact_div([1, 0, 0, -1], [1, -1]) == [1, 1, 1]


class TestZeroConventions:
    def test_zero_is_empty_list(self):
        assert zpoly.trim([0, 0, 0]) == []
        assert zpoly.trim([]) == []
        assert zpoly.trim((3, 0, 1, 0)) == [3, 0, 1]

    def test_zero_operands(self):
        assert zpoly.mul([], [1, 2]) == []
        assert zpoly.mul([1, 2], [], 7) == []
        assert zpoly.sub([], []) == []
        assert zpoly.sub([1, 2], [1, 2]) == []
        assert zpoly.sub([3, 5], [], 3) == [0, 2]
        assert zpoly.exact_div([], [1, -1]) == []

    def test_vanishing_mod_m_is_zero(self):
        # 3u * 3u = 9u^2 = 0 mod 9
        assert zpoly.mul([0, 3], [0, 3], 9) == []
        assert zpoly.sub([9, 18], [0, 9], 9) == []


def assert_division(a, h, mod=None):
    """div_rem(a, h, mod) = (quo, rem) with quo * h + rem = a and
    deg rem < deg h, both reduced into [0, mod) when mod is given."""
    quo, rem = zpoly.div_rem(a, h, mod)
    assert len(rem) < len(zpoly.trim(h))
    assert zpoly.sub(a, zpoly.mul(quo, h, mod), mod) == rem
    assert quo == zpoly.trim(quo) and rem == zpoly.trim(rem)
    if mod is not None:
        assert all(0 <= c < mod for c in quo + rem)
    return quo, rem


def monic(lower):
    return list(lower) + [1]


coeff = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
sparse_coeff = st.sampled_from([0, 0, 0, 1, -1, 2, 10 ** 9])


class TestDivRem:
    """The one division loop, over Z and Z/m."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(coeff, max_size=40), st.lists(st.one_of(coeff, sparse_coeff), max_size=12))
    def test_monic_over_z(self, a, lower):
        assert_division(a, monic(lower))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(coeff, max_size=40), st.lists(st.one_of(coeff, sparse_coeff), max_size=12),
           st.sampled_from([2, 9, 3 ** 6, 2 ** 24, 5 ** 12]))
    def test_monic_over_z_mod_m(self, a, lower, m):
        # h with coefficients reduced into [0, m), as PolyGroupRing keeps it
        assert_division(a, [c % m for c in lower] + [1], m)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 12, 36, 48, 64, 96, 192, 960]), st.data())
    def test_sparse_cyclotomic(self, n, data):
        phi = list(cyclotomic_polynomial(n))
        d = len(phi) - 1
        # up to three times the degree: longer than 2 deg h, as x^N - 1 is
        size = data.draw(st.integers(min_value=0, max_value=3 * d + 2))
        a = data.draw(st.lists(st.one_of(coeff, sparse_coeff), min_size=size, max_size=size))
        quo, rem = assert_division(a, phi)
        if len(a) <= d:
            assert quo == [] and rem == zpoly.trim(a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.lists(coeff, max_size=50),
           st.sampled_from([None, 3 ** 12, 2 ** 6]))
    def test_power_of_u(self, M, a, m):
        # a mod u^M is the truncation, and the quotient the shift
        quo, rem = assert_division(a, [0] * M + [1], m)
        reduce = (lambda c: c) if m is None else (lambda c: c % m)
        assert rem == zpoly.trim([reduce(c) for c in a[:M]])
        assert quo == zpoly.trim([reduce(c) for c in a[M:]])

    def test_x_to_the_n_minus_one(self):
        # x^N - 1 = Phi_N * prod_(d | N, d < N) Phi_d, so it leaves no remainder
        for n in (4, 12, 36, 960):
            assert zpoly.div_rem([-1] + [0] * (n - 1) + [1], cyclotomic_polynomial(n))[1] == []

    def test_shorter_than_the_divisor(self):
        assert zpoly.div_rem([3, 0, 0], [1, 0, 1]) == ([], [3])
        assert zpoly.div_rem([], [5, 1], 7) == ([], [])

    def test_z_mod_m_needs_a_monic_divisor(self):
        with pytest.raises(ValueError):
            zpoly.div_rem([1, 2, 3], [1, 3], 9)

    def test_exact_div_reads_the_loop(self):
        # a non-monic divisor over Z: each quotient term must be an integer
        assert zpoly.div_rem([2, 6, 4], [2, 2]) == ([1, 2], [])
        assert zpoly.exact_div([-2, 0, 2], [-2, 2]) == [1, 1]
