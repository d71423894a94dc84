import random

import pytest

from ctower import carlitz
from ctower.carlitz import (
    AXPoly,
    FactorExtractionError,
    TwistedPoly,
    cyclotomic_poly,
    real_generator_minpoly,
    rho,
    rho_as_additive_poly,
)
from ctower.ffpoly import FqField, FqPoly, unit_count

from carlitz_reference import (
    constant_term,
    deg_tau,
    parse_serialized,
    reference_real_generator_minpoly,
)

F2 = FqField(2)
F3 = FqField(3)
F4 = FqField(2, 2)


def poly(field, *coeffs):
    return FqPoly(field, coeffs)


def additive_eval(ax, mod, theta0, x0):
    """Oracle: evaluate an A[X]-polynomial at (theta0, x0) in the residue
    ring A/mod, each coefficient by Horner in theta0."""
    F = mod.field
    acc = FqPoly.zero(F)
    xpow = FqPoly.one(F)
    for c in ax.coeffs:
        value = FqPoly.zero(F)
        for ci in reversed(c.coeffs):
            value = value * theta0 % mod + FqPoly.constant(F, ci)
        acc = acc + value * xpow % mod
        xpow = xpow * x0 % mod
    return acc % mod


class TestTwisted:
    def test_commutation_rule(self):
        # tau * omega = omega^q * tau
        F = F3
        tau = TwistedPoly(F, (FqPoly.zero(F), FqPoly.one(F)))
        omega = TwistedPoly(F, (poly(F, 1, 2),))
        lhs = tau * omega
        assert lhs.coeffs[1] == poly(F, 1, 2).frobenius_spread(1)

    def test_deg_tau_additive(self):
        F = F3
        a, b = rho(poly(F, 0, 1)), rho(poly(F, 1, 0, 1))
        assert deg_tau(a * b) == deg_tau(a) + deg_tau(b)

    def test_constant_term_morphism(self):
        F = F3
        rng = random.Random(2)
        for _ in range(15):
            x = FqPoly(F, [rng.randrange(3) for _ in range(4)])
            y = FqPoly(F, [rng.randrange(3) for _ in range(4)])
            assert constant_term(rho(x) * rho(y)) == x * y
            assert constant_term(rho(x) + rho(y)) == x + y


class TestRho:
    def test_rho_theta(self):
        # C(theta) = theta*tau^0 + tau^1
        got = rho(FqPoly.gen(F3))
        assert got.coeffs == (FqPoly.gen(F3), FqPoly.one(F3))

    def test_rho_one(self):
        assert rho(FqPoly.one(F3)) == TwistedPoly.one(F3)

    def test_rho_theta_squared(self):
        # (theta + tau) o (theta + tau) = theta^2 + (theta^q + theta) tau + tau^2
        F = F3
        got = rho(poly(F, 0, 0, 1))
        assert got.coeffs == (
            poly(F, 0, 0, 1),
            FqPoly.gen(F).frobenius_spread(1) + FqPoly.gen(F),
            FqPoly.one(F),
        )

    def test_ring_homomorphism_random(self):
        rng = random.Random(5)
        for F in (F2, F3, F4):
            for _ in range(12):
                x = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
                y = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
                assert rho(x * y) == rho(x) * rho(y)
                assert rho(x + y) == rho(x) + rho(y)

    def test_degree_and_constant_term(self):
        rng = random.Random(6)
        for F in (F2, F3):
            for _ in range(10):
                x = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 7))])
                r = rho(x)
                if x.is_zero():
                    continue
                assert deg_tau(r) == x.degree
                assert constant_term(r) == x
                if x.is_monic():
                    assert r.coeffs[-1].is_one()  # sgn-normalization on monics


class TestAdditivePoly:
    def test_q3_example(self):
        # x = theta^2 + 1, q = 3: (theta^2+1) X + (theta^3+theta) X^3 + X^9
        F = F3
        got = rho_as_additive_poly(poly(F, 1, 0, 1))
        assert got[1] == poly(F, 1, 0, 1)
        assert got[3] == poly(F, 0, 1, 0, 1)
        assert got[9] == FqPoly.one(F)
        assert got.degree == 9
        assert all(got[i].is_zero() for i in range(10) if i not in (1, 3, 9))

    def test_q2_theta(self):
        got = rho_as_additive_poly(FqPoly.gen(F2))
        assert got[1] == FqPoly.gen(F2) and got[2] == FqPoly.one(F2)

    def test_zero(self):
        assert rho_as_additive_poly(FqPoly.zero(F3)).is_zero()

    def test_fq_linearity_in_extension(self):
        # x*(z1+z2) = x*z1 + x*z2 and x*(c z) = c (x*z) for c in F_q,
        # checked in the extension A/g with g irreducible
        F = F3
        mod = poly(F, 1, 2, 0, 1)
        x = poly(F, 1, 1)
        ax = rho_as_additive_poly(x)
        rng = random.Random(8)
        for _ in range(10):
            z1 = FqPoly(F, [rng.randrange(3) for _ in range(3)])
            z2 = FqPoly(F, [rng.randrange(3) for _ in range(3)])
            s = additive_eval(ax, mod, FqPoly.gen(F), z1 + z2)
            assert s == (additive_eval(ax, mod, FqPoly.gen(F), z1) +
                         additive_eval(ax, mod, FqPoly.gen(F), z2))
            c = rng.randrange(1, 3)
            zc = z1.scale(c)
            assert additive_eval(ax, mod, FqPoly.gen(F), zc) == \
                additive_eval(ax, mod, FqPoly.gen(F), z1).scale(c) % mod

    def test_module_action_is_evaluation(self):
        # rho_{xy} evaluated = rho_x evaluated after rho_y evaluated
        F = F2
        mod = poly(F, 1, 1, 0, 1)
        x, y = poly(F, 1, 1), poly(F, 0, 1, 1)
        z = poly(F, 0, 1)
        inner = additive_eval(rho_as_additive_poly(y), mod, FqPoly.gen(F), z)
        outer = additive_eval(rho_as_additive_poly(x), mod, FqPoly.gen(F), inner)
        direct = additive_eval(rho_as_additive_poly(x * y), mod, FqPoly.gen(F), z)
        assert outer == direct


class TestCyclotomic:
    def test_prime_linear(self):
        # m = theta: rho_theta(X)/X = theta + X^(q-1)
        for F in (F2, F3, FqField(5)):
            cyc = cyclotomic_poly(FqPoly.gen(F))
            assert cyc.degree == F.q - 1
            assert cyc[0] == FqPoly.gen(F)
            assert cyc[F.q - 1] == FqPoly.one(F)

    def test_prime_conductor(self):
        # m = P prime: phi = rho_P(X)/X of degree q^deg P - 1
        P = poly(F3, 1, 0, 1)
        cyc = cyclotomic_poly(P)
        assert cyc.degree == 3 ** 2 - 1
        quo, rem = divmod(rho_as_additive_poly(P), AXPoly.gen(F3))
        assert rem.is_zero()
        assert cyc == quo

    def test_q3_conductor_theta2_plus_1(self):
        # degree-8 polynomial dividing the additive polynomial after X is removed
        m = poly(F3, 1, 0, 1)
        cyc = cyclotomic_poly(m)
        assert cyc.degree == 8
        quo, rem = divmod(rho_as_additive_poly(m), cyc)
        assert rem.is_zero()

    def test_prime_power_and_composite(self):
        for F, m in [(F3, poly(F3, 1, 0, 1) ** 2),
                     (F2, poly(F2, 0, 1) * poly(F2, 1, 1)),
                     (F2, poly(F2, 1, 1, 1) * poly(F2, 0, 1))]:
            cyc = cyclotomic_poly(m)
            assert cyc.degree == unit_count(m)
            quo, rem = divmod(rho_as_additive_poly(m), cyc)
            assert rem.is_zero()

    def test_torsion_count_is_separable_of_full_degree(self):
        # derivative of rho_m(X) is the constant m != 0: separable, so the
        # root count in a splitting field equals the degree q^deg m
        m = poly(F3, 2, 1, 1)
        ax = rho_as_additive_poly(m)
        der = ax.derivative_x()
        assert der.degree == 0 and der[0] == m
        assert ax.degree == 3 ** m.degree


def annihilates_real_generator(m, mp):
    """Whether mp(e) = 0 in A[Y]/(phi_m) for e = Y^(q-1)."""
    F = m.field
    phi = cyclotomic_poly(m)
    e = AXPoly(F, [FqPoly.zero(F)] * (F.q - 1) + [FqPoly.one(F)]) % phi
    acc = AXPoly.zero(F)
    epow = AXPoly.one(F)
    for c in mp.coeffs:
        acc = (acc + AXPoly(F, [c]) * epow) % phi
        epow = (epow * e) % phi
    return acc.is_zero()


# per field: degree-1 and degree-2 places, the square of a degree-1 place
# and a two-prime conductor; each takes under 0.1 s on the Krylov reference
REFERENCE_CONDUCTORS = [
    "[0,1]@q=2^1", "[1,1,1]@q=2^1", "[0,0,1]@q=2^1", "[0,1,1]@q=2^1", "[0,1,1,1]@q=2^1",
    "[0,1]@q=3^1", "[1,1]@q=3^1", "[1,0,1]@q=3^1", "[2,1,1]@q=3^1", "[0,0,1]@q=3^1",
    "[0,1,1]@q=3^1", "[0,1,0,1]@q=3^1",
    "[0,1]@q=2^2", "[1,1]@q=2^2", "[1,2,1]@q=2^2", "[0,0,1]@q=2^2", "[0,1,1]@q=2^2",
    "[0,1]@q=5^1", "[1,1]@q=5^1", "[1,1,1]@q=5^1", "[0,0,1]@q=5^1", "[0,1,1]@q=5^1",
    "[0,1]@q=3^2", "[1,1]@q=3^2", "[1,4,1]@q=3^2", "[0,0,1]@q=3^2", "[0,1,1]@q=3^2",
]


class TestRealGenerator:
    @pytest.mark.parametrize("conductor", REFERENCE_CONDUCTORS)
    def test_matches_krylov_reference(self, conductor):
        m = parse_serialized(conductor)
        got = real_generator_minpoly(m)
        assert got == reference_real_generator_minpoly(m)
        assert got.degree == unit_count(m) // (m.field.q - 1)

    @pytest.mark.parametrize("m, degree", [
        (poly(F3, 1, 0, 1) ** 2, 36),
        (poly(F2, 1, 1, 1) ** 3, 48),
    ], ids=["q3-(x^2+1)^2", "q2-(x^2+x+1)^3"])
    def test_deep_conductor(self, m, degree):
        # checked without the reference, which takes 0.8 s on the first
        got = real_generator_minpoly(m)
        assert got.degree == degree and got.coeffs[-1].is_one()
        assert annihilates_real_generator(m, got)

    def test_phi_not_in_x_to_the_q_minus_1_raises(self, monkeypatch):
        # X^2 + X + theta over F_3 has an odd power of X
        fake = AXPoly(F3, (FqPoly.gen(F3), FqPoly.one(F3), FqPoly.one(F3)))
        monkeypatch.setattr(carlitz, "cyclotomic_poly", lambda m: fake)
        with pytest.raises(FactorExtractionError):
            real_generator_minpoly(FqPoly.gen(F3))

    def test_q3_theta_is_degree_one(self):
        # Phi(theta)/(q-1) = 1: real field is k itself
        got = real_generator_minpoly(FqPoly.gen(F3))
        assert got.degree == 1

    def test_q3_flagship_quartic(self):
        # q=3, m=theta^2+1: degree 8/2 = 4; the cyclotomic polynomial is a
        # polynomial in X^2, so the minpoly of e = lambda^2 can be read off
        # as the independent oracle: Y^4 + (theta^3+theta) Y + (theta^2+1)
        m = poly(F3, 1, 0, 1)
        got = real_generator_minpoly(m)
        assert got.degree == 4
        assert got[4] == FqPoly.one(F3)
        assert got[1] == poly(F3, 0, 1, 0, 1)
        assert got[0] == poly(F3, 1, 0, 1)
        assert got[2].is_zero() and got[3].is_zero()

    def test_q2_returns_cyclotomic(self):
        m = poly(F2, 1, 1, 1)
        got = real_generator_minpoly(m)
        cyc = cyclotomic_poly(m)
        assert got == cyc
        assert got.degree == 3

    def test_substituted_generator_vanishes(self):
        # the returned minpoly annihilates e = Y^(q-1) mod phi_m
        m = poly(F3, 1, 0, 1)
        assert annihilates_real_generator(m, real_generator_minpoly(m))

    def test_q3_second_conductor(self):
        # m = theta^2 + theta + 2 is irreducible over F_3: degree (9-1)/2 = 4
        m = poly(F3, 2, 1, 1)
        got = real_generator_minpoly(m)
        assert got.degree == 4
