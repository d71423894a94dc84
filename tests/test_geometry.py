import itertools
import random

import pytest

from ctower import geometry
from ctower.ffpoly import FinitePlace, FqField, FqPoly, factor, irreducibles_of_degree
from ctower.geometry import (
    ConfigurationRefused,
    CurveModelError,
    FiberMismatchError,
    SDivisorData,
    ZetaData,
    charpoly_theta_report,
    count_points_model,
    count_points_splitting,
    curve_model,
    evaluate_hypotheses,
    nabla_order,
    s_divisor_data,
    sigma_factor_at_one,
    sigma_factor_norm,
    tate_charpoly,
    zeta_numerator,
    _fiber_root_count,
    _frobenius_orbits,
)
from ctower.grouprings import from_mapping, group_index, quotient_order_exponent
from ctower.lfun import theta
from ctower.rayclass import TowerConfig, TrivialLayer, build_layer, default_s
from geometry_reference import reference_count_points_model, reference_discriminant
from zpk_reference import (
    ReferenceGroupRingElem,
    reference_sigma_factor_norm,
    reference_sigma_factor_poly,
)

F2 = FqField(2)
F3 = FqField(3)


def poly(field, *coeffs):
    return FqPoly(field, coeffs)


def flagship_q3():
    p = FinitePlace(poly(F3, 1, 0, 1))
    return TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p),
                       frozenset({FinitePlace(poly(F3, 0, 1))}))


def flagship_q2():
    p = FinitePlace(poly(F2, 1, 1, 1))
    return TowerConfig(F2, FqPoly.one(F2), p, default_s(FqPoly.one(F2), p),
                       frozenset({FinitePlace(poly(F2, 0, 1))}))


def ext_field(field, i):
    """F_(q^i) as count_points_model builds it."""
    return FqField.extension(field, next(irreducibles_of_degree(field, i)).gen.coeffs)


def at(ext, f, x):
    """f(x) for f an FqPoly over F_q or over ext, and x in ext."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = ext.add(ext.mul(acc, x), c)
    return acc


class TestExtOps:
    """FqField.extension, the point-count oracle's F_(q^i) = F_q[Y]/(g), against
    schoolbook arithmetic on coefficient tuples modulo the same g: the
    element sum c_j Y^j has the index sum c_j q^j, c_0 least significant."""

    F4 = FqField(2, 2)
    CASES = [(F2, i) for i in range(1, 5)] + [(F3, i) for i in range(1, 4)] + \
        [(F4, 1), (F4, 2)]

    @staticmethod
    def schoolbook(field, g):
        q, i = field.q, len(g) - 1

        def reduce(c):
            c = list(c) + [0] * max(0, i - len(c))
            for j in range(len(c) - 1, i - 1, -1):
                t = c[j]
                if t:
                    for k in range(i + 1):
                        c[j - i + k] = field.sub(c[j - i + k], field.mul(t, g[k]))
            return tuple(c[:i])

        def add(a, b):
            return tuple(field.add(x, y) for x, y in zip(a, b))

        def mul(a, b):
            out = [0] * (2 * i - 1)
            for s, x in enumerate(a):
                for t, y in enumerate(b):
                    out[s + t] = field.add(out[s + t], field.mul(x, y))
            return reduce(out)

        def power(a, n):
            acc = (1,) + (0,) * (i - 1)
            while n:
                if n & 1:
                    acc = mul(acc, a)
                a, n = mul(a, a), n >> 1
            return acc

        def digits(x):
            return tuple(x // q ** j % q for j in range(i))

        return add, mul, power, digits

    def check(self, field, i, pairs, exponents):
        g = next(irreducibles_of_degree(field, i)).gen.coeffs
        ext = ext_field(field, i)
        add, mul, power, digits = self.schoolbook(field, g)
        n, zero, one = field.q ** i - 1, digits(0), digits(1)
        assert (ext.p, ext.e, ext.q) == (field.p, field.e * i, n + 1)
        # the constant c of F_q is the element c of F_(q^i)
        for c, d in itertools.product(range(field.q), repeat=2):
            assert (ext.add(c, d), ext.mul(c, d)) == (field.add(c, d), field.mul(c, d))
        for a, b in pairs:
            ta, tb = digits(a), digits(b)
            assert digits(ext.add(a, b)) == add(ta, tb)
            assert digits(ext.mul(a, b)) == mul(ta, tb)
            assert add(digits(ext.neg(b)), tb) == zero
            assert ext.sub(a, b) == ext.add(a, ext.neg(b))
            if b:
                assert mul(digits(ext.inv(b)), tb) == one
        for a, es in exponents:
            ta = digits(a)
            for e in es:
                assert digits(ext.pow(a, e)) == power(ta, e)
                if a:
                    assert mul(digits(ext.pow(a, -e)), power(ta, e)) == one

    def test_against_schoolbook(self):
        for field, i in self.CASES + [(F3, 2), (F3, 3), (self.F4, 2)]:
            size = field.q ** i
            pairs = itertools.product(range(size), repeat=2)
            self.check(field, i, pairs, [(a, range(2 * size + 1)) for a in range(size)])

    def test_exp_table_is_the_least_generator(self):
        # the documented layout: gamma^k for k < q^i - 1, gamma the least
        # index of multiplicative order q^i - 1
        for field, i in self.CASES:
            g = next(irreducibles_of_degree(field, i)).gen.coeffs
            _, mul, power, digits = self.schoolbook(field, g)
            n, one = field.q ** i - 1, digits(1)
            gamma = next(a for a in range(1, n + 1)
                         if all(power(digits(a), n // r) != one
                                for r in range(2, n + 1) if n % r == 0))
            assert [digits(x) for x in ext_field(field, i)._exp[:n]] == \
                [power(digits(gamma), k) for k in range(n)]

    def test_sampled_pairs_of_f729(self):
        rng = random.Random(729)
        pairs = [(rng.randrange(729), rng.randrange(729)) for _ in range(2000)]
        self.check(F3, 6, pairs, [(a, [b, 728 + b]) for a, b in pairs[:300]])


class TestFiberRootCount:
    def test_against_exhaustive_evaluation(self):
        # oracle: evaluate the fiber polynomial and its derivative at every
        # element of F_(q^i); a root is multiple where both vanish
        rng = random.Random(77)
        multiple = 0
        for field, i in [(F3, 2), (F2, 3), (F3, 3), (F2, 4), (FqField(2, 2), 2)]:
            q, ext = field.q, ext_field(field, i)
            elements = range(ext.q)
            for case in range(25):
                deg = rng.randrange(1, 5)
                f = FqPoly(ext, [rng.choice(elements) for _ in range(deg)] + [1])  # monic
                if case % 2:  # a double root at a random element
                    f = f * FqPoly(ext, [ext.neg(rng.choice(elements)), 1]) ** 2
                roots = [x for x in elements if at(ext, f, x) == 0]
                simple = all(at(ext, f.derivative(), x) for x in roots)
                multiple += not simple
                # the gcd degree counts each distinct root once, and so
                # does the search, squarefree or not
                assert _fiber_root_count(f, q, i, False) == len(roots)
                if simple:
                    assert _fiber_root_count(f, q, i, True) == len(roots)
                else:
                    with pytest.raises(CurveModelError, match="singular off S"):
                        _fiber_root_count(f, q, i, True)
        assert multiple >= 60


def q4_layer0():
    # q = 2^2, p = x^3+x+1 (irreducible over F_2, so over F_4), Sigma = {x}
    F4 = FqField(2, 2)
    p = FinitePlace(poly(F4, 1, 1, 0, 1))
    cfg = TowerConfig(F4, FqPoly.one(F4), p, default_s(FqPoly.one(F4), p),
                      frozenset({FinitePlace(poly(F4, 0, 1))}))
    return build_layer(cfg, 0)


def trivial_layer():
    return TrivialLayer(F3, {FinitePlace(poly(F3, 1, 0, 1))}, {FinitePlace(poly(F3, 0, 1))})


def f4_genus3_layer():
    # the F_4 layer of the pinned count-points bytes: f = x, so S = {x, x+1}
    F4 = FqField(2, 2)
    f, p = poly(F4, 0, 1), FinitePlace(poly(F4, 1, 1))
    cfg = TowerConfig(F4, f, p, default_s(f, p), frozenset({FinitePlace(poly(F4, 1, 1, 0, 1))}))
    return build_layer(cfg, 1)


class TestFiberSmoothness:
    """count_points_model refuses a fiber off S whose rational roots are not
    simple.  The oracle is the discriminant Res_X(F, dF/dX) over A of
    geometry_reference: a place divides it where its fiber is singular."""

    @pytest.mark.parametrize("make_layer", [
        lambda: build_layer(flagship_q3(), 0),
        lambda: build_layer(flagship_q2(), 0),
        lambda: build_layer(flagship_q2(), 1),
        f4_genus3_layer,
    ], ids=["q3-0", "q2-0", "q2-1", "f4-genus3"])
    def test_simple_roots_iff_off_the_discriminant(self, make_layer):
        layer = make_layer()
        model = curve_model(layer)
        field, q = layer.field, layer.field.q
        disc = reference_discriminant(model.fpoly)
        s_gens = {v.gen for v in layer.finite_s()}
        # the model is smooth off S: the discriminant's support lies in S
        assert disc.degree >= 1 and {g for g, _ in factor(disc.monic())} <= s_gens
        singular = set()
        for d in range(1, 7):
            ext = ext_field(field, d)
            # a theta0 whose Frobenius orbit has size d is a root of one
            # place of degree d, and each place of degree d has one such orbit
            for th, size in _frobenius_orbits(ext, q):
                if size != d:
                    continue
                fiber = FqPoly(ext, [at(ext, c, th) for c in model.fpoly.coeffs])
                try:
                    _fiber_root_count(fiber, q, d, True)
                except CurveModelError:
                    simple = False
                else:
                    simple = True
                above = next((g for g in s_gens if not at(ext, g, th)), None)
                if above is None:
                    assert simple == (at(ext, disc, th) != 0), (d, th)
                elif not simple:
                    singular.add(above)
        # above p, totally ramified, F = X^deg mod p has the multiple root 0;
        # above the rest of S a multiple root need not be rational
        assert layer.cfg.p_place.gen in singular


class TestOrbitCount:
    """count_points_model counts one fiber per orbit of the q-power Frobenius;
    the count over every element of F_(q^i) in geometry_reference is the
    oracle."""

    @staticmethod
    def covers_q_power_orbits(reps, ext, q):
        # each rep's orbit under theta -> theta^q has the rep's size, and the
        # orbits partition F_(q^i)
        covered = set()
        for rep, size in reps:
            orbit, a = {rep}, ext.pow(rep, q)
            while a != rep:
                orbit.add(a)
                a = ext.pow(a, q)
            if len(orbit) != size or orbit & covered:
                return False
            covered |= orbit
        return covered == set(range(ext.q))

    @pytest.mark.parametrize("make_layer,ins", [
        (lambda: build_layer(flagship_q3(), 0), range(1, 7)),
        (lambda: build_layer(flagship_q2(), 0), range(1, 7)),
        (lambda: build_layer(flagship_q2(), 1), range(1, 7)),
        (q4_layer0, range(1, 4)),
        (trivial_layer, range(1, 5)),
    ], ids=["q3-0", "q2-0", "q2-1", "q4-0", "trivial"])
    def test_matches_every_fiber(self, make_layer, ins):
        model = curve_model(make_layer())
        for i in ins:
            assert count_points_model(model, i) == reference_count_points_model(model, i)

    @pytest.mark.parametrize("field,ins", [(F2, range(1, 9)), (F3, range(1, 7)),
                                           (FqField(2, 2), range(1, 5)), (FqField(5), range(1, 4))],
                             ids=["q2", "q3", "q4", "q5"])
    def test_one_rep_per_q_power_orbit(self, field, ins):
        for i in ins:
            ext = ext_field(field, i)
            reps = _frobenius_orbits(ext, field.q)
            assert sum(size for _, size in reps) == field.q ** i
            assert self.covers_q_power_orbits(reps, ext, field.q)

    def test_p_power_orbits_are_refused_at_q4(self):
        # F_(4^i) = F_(2^(2i)): the orbits of squaring join q-power orbits
        field = FqField(2, 2)
        for i in range(1, 5):
            ext = ext_field(field, i)
            assert not self.covers_q_power_orbits(_frobenius_orbits(ext, 2), ext, field.q)

    def test_corrupted_table_is_a_fiber_mismatch(self):
        model = curve_model(build_layer(flagship_q3(), 0))
        v = FinitePlace(poly(F3, 1, 0, 1))
        assert model.exceptional[v] == (2, 1)
        bad = geometry.CurveModel(model.layer, model.fpoly, {**model.exceptional, v: (2, 2)})
        with pytest.raises(FiberMismatchError, match="affine count 2 != table count 4"):
            count_points_model(bad, 2)
        with pytest.raises(FiberMismatchError, match="affine count 2 != table count 4"):
            reference_count_points_model(bad, 2)

    def test_one_fiber_per_orbit_at_flagship(self, monkeypatch):
        # 3 + 6 + 11 + 24 + 51 + 130 = 225 fibers for i <= 6, against
        # 3 + 9 + ... + 729 = 1092 for every element
        model = curve_model(build_layer(flagship_q3(), 0))
        calls = []
        count = geometry._fiber_root_count
        monkeypatch.setattr(geometry, "_fiber_root_count",
                            lambda *args: calls.append(args) or count(*args))
        fibers = []
        for i in range(1, 7):
            calls.clear()
            count_points_model(model, i)
            fibers.append(len(calls))
        assert fibers == [3, 6, 11, 24, 51, 130]


class TestTrivialLayerCounts:
    def test_projective_line(self):
        layer = TrivialLayer(F3, {FinitePlace(poly(F3, 1, 0, 1))},
                             {FinitePlace(poly(F3, 0, 1))})
        model = curve_model(layer)
        for i in range(1, 5):
            assert count_points_model(model, i) == 3 ** i + 1
            assert count_points_splitting(layer, i) == 3 ** i + 1

    def test_q2_line(self):
        layer = TrivialLayer(F2, {FinitePlace(poly(F2, 0, 1))},
                             {FinitePlace(poly(F2, 1, 1))})
        for i in range(1, 7):
            assert count_points_splitting(layer, i) == 2 ** i + 1


class TestFlagshipCounts:
    def test_q3_model_vs_splitting(self):
        # the central independence check: polynomial root counting vs the
        # class-field splitting law, q=3 flagship layer 0, i <= 6
        layer = build_layer(flagship_q3(), 0)
        model = curve_model(layer)
        for i in range(1, 7):
            nm = count_points_model(model, i)
            ns = count_points_splitting(layer, i)
            assert nm == ns
            assert nm == 3 ** i + 1  # the real layer L_0 has genus 0

    def test_q2_model_vs_splitting(self):
        layer = build_layer(flagship_q2(), 0)
        model = curve_model(layer)
        for i in range(1, 7):
            assert count_points_model(model, i) == count_points_splitting(layer, i)
            assert count_points_model(model, i) == 2 ** i + 1

    def test_splitting_law_detail_q3(self):
        # Q = (theta): Frobenius has order 2 in G_0, so there are
        # |G|/f = 2 places of degree d*f = 2 above it
        layer = build_layer(flagship_q3(), 0)
        v = FinitePlace(poly(F3, 0, 1))
        f = layer.group.element_order(layer.frobenius(v))
        assert f == 2
        assert layer.order // f == 2

    def test_budget(self):
        layer = build_layer(flagship_q3(), 0)
        model = curve_model(layer)
        with pytest.raises(ValueError):
            count_points_model(model, 20, budget=10 ** 6)

    def test_model_shape_q3(self):
        model = curve_model(build_layer(flagship_q3(), 0))
        assert model.fpoly.degree == 4
        # disc supported only at p
        disc = reference_discriminant(model.fpoly)
        assert disc.monic() == (poly(F3, 1, 0, 1)) ** 3

    @pytest.mark.parametrize("cfg, n, ins", [(flagship_q3, 1, range(1, 5)),
                                             (flagship_q2, 2, range(1, 7))],
                             ids=["q3-1", "q2-2"])
    def test_model_vs_splitting_above_layer_0(self, cfg, n, ins):
        # no discriminant over A is formed, so the plane model is cheap here
        layer = build_layer(cfg(), n)
        model = curve_model(layer)
        for i in ins:
            assert count_points_model(model, i) == count_points_splitting(layer, i)

    def test_weil_bound_postcheck(self):
        layer = build_layer(flagship_q3(), 0)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        for i, n in enumerate(counts, start=1):
            assert (n - 3 ** i - 1) ** 2 <= 4 * z.genus ** 2 * 3 ** i


class TestZetaNumerator:
    def test_no_counts_are_refused(self):
        # with no count every genus fits, g = 0 first
        with pytest.raises(ValueError, match="at least one point count"):
            zeta_numerator([], 3)

    def test_genus_zero(self):
        z = zeta_numerator([4, 10, 28, 82], 3)
        assert z.genus == 0 and z.numerator == [1] and z.h == 1

    def test_degree_two_newton(self):
        # ordinary elliptic curve over F_3 with a = -3: P = 1 + 3u + 3u^2
        z = zeta_numerator([7, 7, 28, 91], 3)
        assert z.genus == 1
        assert z.numerator == [1, 3, 3]
        assert z.h == 7

    def test_supersingular_q2(self):
        z = zeta_numerator([3, 9, 9, 9], 2)
        assert z.numerator == [1, 0, 2]
        assert z.h == 3

    def test_inconsistent_counts(self):
        with pytest.raises(ArithmeticError):
            zeta_numerator([5, 1], 2)

    def test_non_integral_newton_coefficient(self):
        # s = (-1, 0): c_1 = 1 and c_2 = 1/2, which no genus fits
        with pytest.raises(ArithmeticError, match="no integral zeta numerator"):
            zeta_numerator([4, 5], 2)

    def test_counts_from_numerator_roundtrip(self):
        # recompute N_i from the reconstructed numerator and compare
        counts = [7, 7, 28, 91]
        z = zeta_numerator(counts, 3)
        # N_i = q^i + 1 - sum alpha^i: use Newton's identity on the numerator
        s = []
        c = z.numerator + [0] * 10
        for n in range(1, len(counts) + 1):
            acc = -n * c[n]
            for i in range(1, n):
                acc -= s[i - 1] * c[n - i]
            s.append(acc)
        for i, n in enumerate(counts, start=1):
            assert n == 3 ** i + 1 - s[i - 1]


class TestSDivisorAndNabla:
    def test_flagship_q3(self):
        layer = build_layer(flagship_q3(), 0)
        sdiv = s_divisor_data(layer)
        assert sdiv.degrees == [2]
        assert sdiv.d_s == 2
        assert sdiv.x_rank == 0
        assert sdiv.zp_mod_ds_exponent == 0  # 2 is prime to p = 3
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        nab = nabla_order(layer, z, sdiv)
        assert nab.hypotheses["d_p_coprime_deg_p"]
        assert nab.total_p_exponent == 0  # 3-part of h(L_0) = 1

    def test_flagship_q2_hypothesis_d_fails(self):
        # p = 2 divides deg p = 2: the extra factor |Z_p/d_S| = 2 enters
        layer = build_layer(flagship_q2(), 0)
        sdiv = s_divisor_data(layer)
        assert sdiv.d_s == 2 and sdiv.zp_mod_ds_exponent == 1
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 2)
        nab = nabla_order(layer, z, sdiv)
        assert not nab.hypotheses["d_p_coprime_deg_p"]
        assert z.h % 2 == 1  # v_2(h) = 0: the 2 is all |Z_p/d_S|
        assert nab.total_p_exponent == 1

    def test_nabla_matches_group_ring_quotient(self):
        # spec invariant: nabla totals equal |Z/p^k[G_n]/(Theta(1))|
        for cfg, p in [(flagship_q3(), 3), (flagship_q2(), 2)]:
            layer = build_layer(cfg, 0)
            tr = theta(layer)
            special = tr.special_value()
            quot = quotient_order_exponent(layer.group, special, p, 24)
            sdiv = s_divisor_data(layer)
            counts = [count_points_splitting(layer, i) for i in range(1, 7)]
            z = zeta_numerator(counts, cfg.field.q)
            nab = nabla_order(layer, z, sdiv)
            assert quot == nab.total_p_exponent

    def test_refusal_outside_case_a(self):
        p = FinitePlace(poly(F3, 1, 0, 1))
        f = poly(F3, 0, 1)
        cfg = TowerConfig(F3, f, p, default_s(f, p),
                          frozenset({FinitePlace(poly(F3, 1, 1))}))
        layer = build_layer(cfg, 0)
        sdiv = s_divisor_data(layer)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        with pytest.raises(ConfigurationRefused):
            nabla_order(layer, z, sdiv)


class TestTateCharpoly:
    def test_single_degree_one_place_genus_zero(self):
        z = ZetaData(counts=[], genus=0, numerator=[1], h=1)
        sdiv = SDivisorData(degrees=[1], d_s=1, x_rank=0,
                            zp_mod_ds_exponent=0)
        layer = build_layer(flagship_q3(), 0)
        assert tate_charpoly(layer, z, sdiv) == [1]

    def test_two_degree_one_places_genus_zero(self):
        z = ZetaData(counts=[], genus=0, numerator=[1], h=1)
        sdiv = SDivisorData(degrees=[1, 1], d_s=1, x_rank=1,
                            zp_mod_ds_exponent=0)
        layer = build_layer(flagship_q3(), 0)
        assert tate_charpoly(layer, z, sdiv) == [1, -1]

    def test_flagship_q3(self):
        layer = build_layer(flagship_q3(), 0)
        sdiv = s_divisor_data(layer)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        assert tate_charpoly(layer, z, sdiv) == [1, 1]  # (1-u^2)/(1-u)

    def test_charpoly_theta_identity_q3(self):
        layer = build_layer(flagship_q3(), 0)
        tr = theta(layer)
        sdiv = s_divisor_data(layer)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        report = charpoly_theta_report(layer, tr, z, sdiv)
        assert report["exact_identity"]
        assert report["unit_certified"]
        assert report["pinned_discrepancy_matches"]
        assert report["first_mismatch_degree"] is None

    def test_first_mismatch_degree(self, monkeypatch):
        # Q + u^3 against Q: N(Sigma) has constant term 1, so the two sides
        # of the identity first differ at u^3
        layer = build_layer(flagship_q3(), 0)
        sdiv = s_divisor_data(layer)
        z = zeta_numerator([count_points_splitting(layer, i) for i in range(1, 7)], 3)
        real = geometry.tate_charpoly
        monkeypatch.setattr(geometry, "tate_charpoly", lambda *args: real(*args) + [0, 1])
        report = charpoly_theta_report(layer, theta(layer), z, sdiv)
        assert not report["exact_identity"]
        assert report["first_mismatch_degree"] == 3

    def test_charpoly_theta_identity_q2(self):
        layer = build_layer(flagship_q2(), 0)
        tr = theta(layer)
        sdiv = s_divisor_data(layer)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 2)
        report = charpoly_theta_report(layer, tr, z, sdiv)
        assert report["exact_identity"]
        assert report["unit_certified"]
        assert report["pinned_discrepancy_matches"]


def sigma_towers():
    """(config, N) of the towers whose Sigma factors are checked against the
    Z[G] product: q = 3, p = x^2+1 with Sigma = {x} and {x+1, x+2}; q = 2,
    p = x^2+x+1 with Sigma = {x}; q = 2, p = x^3+x+1 with Sigma = {x, x+1}."""
    def config(field, p, sigma):
        p = FinitePlace(FqPoly(field, p))
        return TowerConfig(field, FqPoly.one(field), p, default_s(FqPoly.one(field), p),
                           frozenset(FinitePlace(FqPoly(field, v)) for v in sigma))

    return [(config(F3, (1, 0, 1), [(0, 1)]), 2),
            (config(F3, (1, 0, 1), [(1, 1), (2, 1)]), 2),
            (config(F2, (1, 1, 1), [(0, 1)]), 2),
            (config(F2, (1, 1, 0, 1), [(0, 1), (1, 1)]), 1)]


SIGMA_LAYERS = [(cfg, n) for cfg, N in sigma_towers() for n in range(N + 1)]
SIGMA_IDS = [f"q{cfg.field.q}-{len(cfg.sigma)}sigma-n{n}" for cfg, n in SIGMA_LAYERS]


class TestSigmaFactor:
    """Multiplication by the Sigma factor at u = 1 on Z[G], one translation
    row per Sigma place, and its norm, read off the orders of the Sigma
    Frobenii, against the product in Z[G][u] and its norm over every
    character (zpk_reference)."""

    @pytest.mark.parametrize("cfg, n", SIGMA_LAYERS, ids=SIGMA_IDS)
    def test_against_the_group_ring_product(self, cfg, n):
        layer = build_layer(cfg, n)
        group = layer.group
        coeffs = reference_sigma_factor_poly(layer)
        at_one = sum(coeffs[1:], coeffs[0])
        # 1 gives W(1) itself; x, with a distinct coefficient at every
        # element, tells every translation apart
        elems, _ = group_index(group)
        x = ReferenceGroupRingElem(group, {g: j + 1 for j, g in enumerate(elems)})
        for ref in (ReferenceGroupRingElem.one(group), x):
            flat = from_mapping(group, ref.coeffs)
            assert sigma_factor_at_one(layer, flat) == from_mapping(group, (ref * at_one).coeffs)
        assert sigma_factor_norm(layer) == reference_sigma_factor_norm(layer)

    def test_frobenius_orders_above_one_are_covered(self):
        # so the comparison above tells f_v from 1 and from |G|
        layers = [build_layer(cfg, n) for cfg, n in SIGMA_LAYERS]
        orders = {(layer.group.element_order(layer.frobenius(v)), layer.group.order)
                  for layer in layers for v in layer.sigma}
        assert any(1 < f < size for f, size in orders)


class TestHypotheses:
    def test_flagships(self):
        hyp3 = evaluate_hypotheses(build_layer(flagship_q3(), 0))
        assert all(hyp3.values())
        hyp2 = evaluate_hypotheses(build_layer(flagship_q2(), 0))
        assert hyp2["a_f_trivial_and_S_is_p"] and not hyp2["d_p_coprime_deg_p"]
