import pytest

from ctower.ffpoly import FinitePlace, FqField, FqPoly
from ctower.geometry import (
    ConfigurationRefused,
    SDivisorData,
    ZetaData,
    charpoly_theta_report,
    count_points_model,
    count_points_splitting,
    curve_model,
    evaluate_hypotheses,
    nabla_order,
    s_divisor_data,
    tate_charpoly,
    zeta_numerator,
)
from ctower.grouprings import quotient_order_exponent
from ctower.lfun import theta
from ctower.rayclass import TowerConfig, TrivialLayer, build_layer, default_s

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


class TestExtOps:
    """The log-coded F_(q^i) of the point-count oracle against schoolbook
    arithmetic on coefficient tuples modulo the same g."""

    CASES = [(F2, i) for i in range(1, 5)] + [(F3, i) for i in range(1, 4)] + \
        [(FqField(2, 2), 1), (FqField(2, 2), 2)]

    @staticmethod
    def schoolbook(field, g):
        i = len(g) - 1

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

        return add, mul

    def test_against_schoolbook(self):
        import itertools

        from ctower.ffpoly import irreducibles_of_degree
        from ctower.geometry import _ext_ops

        for field, i in self.CASES:
            q = field.q
            ops = _ext_ops(field, i)
            codes = list(ops["elements"]())
            tuples = list(itertools.product(range(q), repeat=i))
            assert sorted(codes) == list(range(q ** i))
            decode = dict(zip(codes, tuples))
            g = next(irreducibles_of_degree(field, i)).gen.coeffs
            add, mul = self.schoolbook(field, g)
            one = (1,) + (0,) * (i - 1)
            assert decode[ops["zero"]] == (0,) * i and decode[ops["one"]] == one
            for c in range(q):
                assert decode[ops["embed"](c)] == (c,) + (0,) * (i - 1)
            for a in codes:
                ta = decode[a]
                assert add(decode[ops["neg"](a)], ta) == (0,) * i
                for b in codes:
                    tb = decode[b]
                    assert decode[ops["add"](a, b)] == add(ta, tb)
                    assert decode[ops["mul"](a, b)] == mul(ta, tb)
                acc = one
                for e in range(2 * q ** i + 1):
                    assert decode[ops["pow"](a, e)] == acc
                    acc = mul(acc, ta)


class TestFiberRootCount:
    def test_against_exhaustive_evaluation(self):
        # oracle: evaluate the fiber polynomial at every element of F_(q^i)
        import random as _random

        from ctower.geometry import _ext_ops, _fiber_root_count

        rng = _random.Random(77)
        for q, field, i in [(3, F3, 2), (2, F2, 3), (3, F3, 3), (2, F2, 4)]:
            ops = _ext_ops(field, i)
            elements = list(ops["elements"]())
            for _ in range(25):
                deg = rng.randrange(1, 5)
                coeffs = [rng.choice(elements) for _ in range(deg)]
                coeffs.append(ops["one"])  # monic
                got = _fiber_root_count(coeffs, ops, i, q)
                brute = 0
                for x in elements:
                    acc = ops["zero"]
                    for c in reversed(coeffs):
                        acc = ops["add"](ops["mul"](acc, x), c)
                    if acc == ops["zero"]:
                        brute += 1
                # squarefree fibers: distinct roots == root count; for
                # non-squarefree random inputs the gcd degree counts each
                # distinct root once, so compare against distinct roots
                assert got == brute


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
        assert model.disc.monic() == (poly(F3, 1, 0, 1)) ** 3

    def test_weil_bound_postcheck(self):
        layer = build_layer(flagship_q3(), 0)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        for i, n in enumerate(counts, start=1):
            assert (n - 3 ** i - 1) ** 2 <= 4 * z.genus ** 2 * 3 ** i


class TestZetaNumerator:
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
        assert nab.sharp_total_exponent == 0

    def test_flagship_q2_hypothesis_d_fails(self):
        # p = 2 divides deg p = 2: the extra factor |Z_p/d_S| = 2 enters
        layer = build_layer(flagship_q2(), 0)
        sdiv = s_divisor_data(layer)
        assert sdiv.d_s == 2 and sdiv.zp_mod_ds_exponent == 1
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 2)
        nab = nabla_order(layer, z, sdiv)
        assert not nab.hypotheses["d_p_coprime_deg_p"]
        assert nab.h_p_exponent == 0
        assert nab.total_p_exponent == 1
        # sharp part: (Z_p/d_S)^sharp = 0
        assert nab.sharp_total_exponent == 0
        # the Z/2 sits in the trivial-character component
        triv_exp = [e for e, v in nab.per_char_exponents.items() if e == (0,)]
        assert nab.per_char_exponents[(0,)] == 1

    def test_nabla_matches_group_ring_quotient(self):
        # spec invariant: nabla totals equal |Z/p^k[G_n]/(Theta(1))|
        for cfg, p in [(flagship_q3(), 3), (flagship_q2(), 2)]:
            layer = build_layer(cfg, 0)
            tr = theta(layer)
            special = tr.special_value()
            quot = quotient_order_exponent(special, p, 24)
            sdiv = s_divisor_data(layer)
            counts = [count_points_splitting(layer, i) for i in range(1, 7)]
            z = zeta_numerator(counts, cfg.field.q)
            nab = nabla_order(layer, z, sdiv)
            assert quot == nab.total_p_exponent

    def test_finiteness_flags(self):
        # the chi-component of nabla is flagged finite exactly when chi is
        # nontrivial on every decomposition group over S; with p totally
        # ramified that means every nontrivial character
        layer = build_layer(flagship_q3(), 0)
        sdiv = s_divisor_data(layer)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        nab = nabla_order(layer, z, sdiv)
        assert nab.infinite_chars == [(0,)]
        assert len(nab.finite_chars) == layer.order - 1

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
        sdiv = SDivisorData(places={}, degrees=[1], d_s=1, x_rank=0,
                            zp_mod_ds_exponent=0)
        layer = build_layer(flagship_q3(), 0)
        assert tate_charpoly(layer, z, sdiv) == [1]

    def test_two_degree_one_places_genus_zero(self):
        z = ZetaData(counts=[], genus=0, numerator=[1], h=1)
        sdiv = SDivisorData(places={}, degrees=[1, 1], d_s=1, x_rank=1,
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
        report = charpoly_theta_report(layer, tr, z, sdiv, k=12, M=12)
        assert report["exact_identity"]
        assert report["unit_certified"]
        assert report["pinned_discrepancy_matches"]

    def test_charpoly_theta_identity_q2(self):
        layer = build_layer(flagship_q2(), 0)
        tr = theta(layer)
        sdiv = s_divisor_data(layer)
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 2)
        report = charpoly_theta_report(layer, tr, z, sdiv, k=12, M=12)
        assert report["exact_identity"]
        assert report["unit_certified"]
        assert report["pinned_discrepancy_matches"]


class TestHypotheses:
    def test_flagships(self):
        hyp3 = evaluate_hypotheses(build_layer(flagship_q3(), 0))
        assert all(hyp3.values())
        hyp2 = evaluate_hypotheses(build_layer(flagship_q2(), 0))
        assert hyp2["a_f_trivial_and_S_is_p"] and not hyp2["d_p_coprime_deg_p"]
