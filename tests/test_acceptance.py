"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here: exact integer equality throughout, p-adic
precisions p^24 (class-number identity), (p^6, u^6) (Sigma units),
(p^12, u^12) (charpoly identity), 200 seeded cases for the algebra suites,
20 toy systems / short exact sequences.  Wall-clock limits follow the
stated budgets.
"""

import time

import pytest

from ctower.ffpoly import FinitePlace, FqField, FqPoly, INFINITY
from ctower.geometry import (
    charpoly_theta_report,
    count_points_model,
    count_points_splitting,
    curve_model,
    nabla_order,
    s_divisor_data,
    tate_charpoly,
    zeta_numerator,
)
from ctower.grouprings import (
    ZpkGroupRing,
    characters,
    from_mapping,
    is_unit,
    quotient_order_exponent,
)
from ctower.lfun import (
    euler_series,
    functoriality_check,
    order_of_vanishing_check,
    sigma_factor_unit,
    theta,
)
from ctower.rayclass import TowerConfig, TrivialLayer, build_layer, default_s, layer_projection
from ctower.tower import algebra_suite
from zpk_reference import reference_sigma_factor_poly

F2 = FqField(2)
F3 = FqField(3)

PRECISION_K = 24


def _report(tag, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {tag}" + (f" -- {detail}" if detail else ""))
    assert passed, tag


def poly(field, *coeffs):
    return FqPoly(field, coeffs)


@pytest.fixture(scope="module")
def flagships():
    """Both flagship towers with layers 0, 1 and their Theta results."""
    data = {}
    for name, field, p_coeffs, sigma_coeffs in (
            ("q3", F3, (1, 0, 1), (0, 1)),
            ("q2", F2, (1, 1, 1), (0, 1))):
        p = FinitePlace(FqPoly(field, p_coeffs))
        cfg = TowerConfig(field, FqPoly.one(field), p, default_s(FqPoly.one(field), p),
                          frozenset({FinitePlace(FqPoly(field, sigma_coeffs))}))
        layers = {}
        thetas = {}
        timings = {}
        for n in (0, 1):
            t0 = time.monotonic()
            layers[n] = build_layer(cfg, n)
            thetas[n] = theta(layers[n])
            timings[n] = time.monotonic() - t0
        data[name] = {"cfg": cfg, "layers": layers, "thetas": thetas,
                      "timings": timings}
    return data


class TestCriterion1:
    def test_theta_sanity_identity(self):
        # q=2, trivial group, S={v_inf,(theta)}, Sigma={(theta+1)}: the Euler
        # product to degree 12 is exactly 1 - u, in under a second
        t0 = time.monotonic()
        layer = TrivialLayer(F2, {INFINITY, FinitePlace(poly(F2, 0, 1))},
                             {FinitePlace(poly(F2, 1, 1))})
        tr = theta(layer, D=12)
        elapsed = time.monotonic() - t0
        good = tr.theta == [[1], [-1]]  # one coefficient each: G is trivial
        _report("criterion 1: Theta sanity identity (1 - u)",
                good and elapsed < 1.0, f"elapsed {elapsed:.3f}s")


class TestCriterion2:
    def test_stabilization_certificates(self, flagships):
        for name, data in flagships.items():
            for n in (0, 1):
                t0 = time.monotonic()
                tr = data["thetas"][n]
                # coefficients above the per-character bound vanish exactly
                bounds_ok = all(d <= b for d, b in tr.per_char_degrees.values())
                series = euler_series(data["layers"][n], tr.D)
                window_ok = all(not any(series[i]) for i in range(tr.bound + 1, tr.D + 1))
                tr2 = theta(data["layers"][n], D=tr.D + 2, cross_check=False)
                recompute_ok = tr.theta == tr2.theta and \
                    euler_series(data["layers"][n], tr.D + 2)[: tr.D + 1] == series
                elapsed = time.monotonic() - t0 + data["timings"][n]
                _report(f"criterion 2: stabilization [{name} n={n}]",
                        bounds_ok and window_ok and recompute_ok and elapsed < 60,
                        f"bound {tr.bound}, D {tr.D}, elapsed {elapsed:.2f}s")


class TestCriterion3:
    def test_functoriality(self, flagships):
        for name, data in flagships.items():
            t0 = time.monotonic()
            lm = layer_projection(data["layers"][1], data["layers"][0])
            rep = functoriality_check(data["thetas"][1], data["thetas"][0], lm)
            elapsed = time.monotonic() - t0
            _report(f"criterion 3: functoriality [{name}]",
                    rep.equal and elapsed < 60, f"elapsed {elapsed:.2f}s")


class TestCriterion4:
    def test_order_of_vanishing(self, flagships):
        for name, data in flagships.items():
            for n in (0, 1):
                layer, tr = data["layers"][n], data["thetas"][n]
                ok = True
                for chi in characters(layer.group):
                    if chi.is_trivial():
                        continue
                    mult, predicted = order_of_vanishing_check(layer, tr, chi)
                    ok = ok and mult == predicted
                _report(f"criterion 4: order of vanishing [{name} n={n}]", ok)


class TestCriterion5:
    def test_sigma_factor_units(self, flagships):
        for name, data in flagships.items():
            cfg = data["cfg"]
            for n in (0, 1):
                layer = data["layers"][n]
                ok = True
                for v in sorted(cfg.sigma, key=lambda v: v.gen.sort_key()):
                    ok = ok and sigma_factor_unit(layer, v)
                _report(f"criterion 5: Sigma-factor unit witness [{name} n={n}]",
                        ok, "precision (p^6, u^6)")


class TestCriterion6:
    def test_oracle_independence(self, flagships):
        t0 = time.monotonic()
        layer = flagships["q3"]["layers"][0]
        model = curve_model(layer)
        counts_model = []
        counts_split = []
        for i in range(1, 7):
            counts_model.append(count_points_model(model, i, budget=10 ** 7))
            counts_split.append(count_points_splitting(layer, i))
        agree = counts_model == counts_split
        z = zeta_numerator(counts_split, 3)
        # zeta_numerator enforces the functional equation and Weil bounds
        # exactly; recheck the FE here explicitly
        g, c = z.genus, z.numerator
        fe = all(c[2 * g - j] == 3 ** (g - j) * c[j] for j in range(2 * g + 1))
        elapsed = time.monotonic() - t0
        _report("criterion 6: point-count oracle independence [q3 n=0]",
                agree and fe and elapsed < 120,
                f"counts {counts_split}, numerator {c}, elapsed {elapsed:.1f}s")


class TestCriterion7:
    def test_main_conjecture_shadow(self, flagships):
        layer = flagships["q3"]["layers"][0]
        tr = flagships["q3"]["thetas"][0]
        # pipeline 1: point counts -> class number -> nabla order
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        sdiv = s_divisor_data(layer)
        nab = nabla_order(layer, z, sdiv)
        # pipeline 2: Euler product -> Theta(1) -> Fitting quotient order
        quot = quotient_order_exponent(layer.group, tr.special_value(), 3, PRECISION_K)
        hyp_ok = all(nab.hypotheses.values())
        _report("criterion 7: finite-layer main-conjecture shadow [q3 n=0]",
                hyp_ok and quot == nab.total_p_exponent,
                f"3-valuations: nabla {nab.total_p_exponent}, "
                f"quotient {quot} at precision 3^{PRECISION_K}")

    def test_hypothesis_d_failure_variant(self, flagships):
        # the constructed q=2 example where p | deg(p): the extra factor
        # |Z_p/d_S| = 2 enters and the identity still holds
        layer = flagships["q2"]["layers"][0]
        tr = flagships["q2"]["thetas"][0]
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 2)
        sdiv = s_divisor_data(layer)
        nab = nabla_order(layer, z, sdiv)
        quot = quotient_order_exponent(layer.group, tr.special_value(), 2, PRECISION_K)
        _report("criterion 7 variant: hypothesis (d) dropped [q2 n=0]",
                (not nab.hypotheses["d_p_coprime_deg_p"]) and
                sdiv.zp_mod_ds_exponent == 1 and quot == nab.total_p_exponent == 1,
                f"2-valuations: nabla {nab.total_p_exponent}, quotient {quot}")


class TestCriterion8:
    def test_sigma_independence(self, flagships):
        cfg = flagships["q3"]["cfg"]
        layer = flagships["q3"]["layers"][0]
        tr = flagships["q3"]["thetas"][0]
        alt_cfg = TowerConfig(cfg.field, cfg.f, cfg.p_place, cfg.S,
                              frozenset({FinitePlace(poly(F3, 1, 1))}))
        alt_layer = build_layer(alt_cfg, 0)
        alt_tr = theta(alt_layer)
        p, k = 3, PRECISION_K
        ring = ZpkGroupRing(p, k, layer.group)
        s1 = ring.from_vec(tr.special_value())
        s2 = ring.from_vec(alt_tr.special_value())

        def sigma_factor_at_one(lay):  # summed from its product in Z[G][u]
            c = reference_sigma_factor_poly(lay)
            return ring.from_vec(from_mapping(layer.group, sum(c[1:], c[0]).coeffs))

        w1, w2 = sigma_factor_at_one(layer), sigma_factor_at_one(alt_layer)
        ok1, w1_inv = is_unit(w1, ring)
        w = ring.mul(w2, w1_inv)
        unit_ok, _ = is_unit(w, ring)
        transfer_ok = s2 == ring.mul(s1, w)
        q1 = quotient_order_exponent(layer.group, tr.special_value(), p, k)
        q2 = quotient_order_exponent(layer.group, alt_tr.special_value(), p, k)
        _report("criterion 8: Sigma-independence [q3 n=0]",
                ok1 and unit_ok and transfer_ok and q1 == q2,
                f"quotient exponents {q1} == {q2}, unit certified at 3^{k}")


class TestCriterion9:
    def test_charpoly_identity(self, flagships):
        layer = flagships["q3"]["layers"][0]
        tr = flagships["q3"]["thetas"][0]
        counts = [count_points_splitting(layer, i) for i in range(1, 7)]
        z = zeta_numerator(counts, 3)
        sdiv = s_divisor_data(layer)
        report = charpoly_theta_report(layer, tr, z, sdiv)
        _report("criterion 9: charpoly identity shadow [q3 n=0]",
                report["exact_identity"] and report["unit_certified"] and
                report["pinned_discrepancy_matches"],
                f"charpoly {tate_charpoly(layer, z, sdiv)}, precision (p^12, u^12)")


class TestCriterion10And11:
    def test_algebra_property_suites(self):
        verdicts = algebra_suite(seed=0, cases=200)
        by_name = {v["name"]: v["passed"] for v in verdicts}
        for name in ("fitting_presentation_invariance", "fitting_direct_sum",
                     "fitting_base_change", "matrix_lifting_lemma"):
            _report(f"criterion 10: {name} (200 seeded cases)", by_name[name])
        _report("criterion 10: coherent_nzd_check (20 toy systems)",
                by_name["coherent_nzd_systems"])
        _report("criterion 11: sharp kills Z_p/d_S",
                by_name["sharp_kills_trivial_action"])
        _report("criterion 11: sharp-exactness (20 random SES)",
                by_name["sharp_exactness_ses"])
