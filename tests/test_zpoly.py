import random

import pytest

from ctower import zpoly


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
