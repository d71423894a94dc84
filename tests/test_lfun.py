import itertools
import math
import random

import pytest

from ctower import grouprings, tower
from ctower.abelian import AbelianGroup
from ctower.ffpoly import FinitePlace, FqField, FqPoly, INFINITY, factor as fq_factor
from ctower.grouprings import (
    CyclotomicRing,
    ZpkGroupRing,
    apply_character,
    character_norm,
    character_orbits,
    characters,
    chi_component,
    chi_component_ring,
    from_mapping,
    group_index,
)
from ctower.lfun import (
    DEFAULT_EXTRA_DEGREE,
    PER_CHARACTER_PRODUCT_MAX_ORDER,
    PoleError,
    StabilizationError,
    character_conductor,
    degree_bound,
    divisor_sum_series,
    euler_series,
    functoriality_check,
    order_of_vanishing_check,
    order_of_vanishing_table,
    per_character_degree_bound,
    per_character_euler_product,
    residue_degree,
    sigma_factor_unit,
    theta,
    trivial_character_symbolic,
)
from ctower.rayclass import TowerConfig, TrivialLayer, build_layer, default_s, layer_projection
from ffpoly_reference import reference_units
from zpk_reference import (
    ReferenceChiComponentRing,
    ReferenceGroupRingElem,
    ReferenceTruncPolyRing,
    reference_chi_component,
    reference_divisor_sum_series,
    reference_euler_series,
    reference_per_character_euler_product,
    reference_scale,
    reference_zeta_pow,
)

F2 = FqField(2)
F3 = FqField(3)


def poly(field, *coeffs):
    return FqPoly(field, coeffs)


def items(group, x):
    """{exponent tuple: coefficient} of the nonzero coefficients of the flat
    Z[G] element x, G = group."""
    return {g: v for g, v in zip(group_index(group)[0], x) if v}


def chi_of_theta(tr, chi):
    """chi(Theta)(u), chi evaluated on tr.theta directly."""
    return apply_character(chi, tr.theta)


def flagship_q3():
    p = FinitePlace(poly(F3, 1, 0, 1))
    return TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p),
                       frozenset({FinitePlace(poly(F3, 0, 1))}))


def flagship_q2():
    p = FinitePlace(poly(F2, 1, 1, 1))
    return TowerConfig(F2, FqPoly.one(F2), p, default_s(FqPoly.one(F2), p),
                       frozenset({FinitePlace(poly(F2, 0, 1))}))


def multi_prime_q3():
    # f = theta(theta+1), p = theta^2+1, Sigma = {(theta+2)}
    p = FinitePlace(poly(F3, 1, 0, 1))
    f = poly(F3, 0, 1) * poly(F3, 1, 1)
    return TowerConfig(F3, f, p, default_s(f, p), frozenset({FinitePlace(poly(F3, 2, 1))}))


class TestSanityIdentity:
    def test_theta_is_one_minus_u(self):
        # q=2, trivial group, S = {v_inf, (theta)}, Sigma = {(theta+1)}:
        # the zeta manipulation gives (1-2u) * (1-u)/(1-2u) = 1 - u
        layer = TrivialLayer(F2, {INFINITY, FinitePlace(poly(F2, 0, 1))},
                             {FinitePlace(poly(F2, 1, 1))})
        tr = theta(layer, D=12)
        assert len(tr.theta) - 1 == 1
        assert items(layer.group, tr.theta[0]) == {(): 1}
        assert items(layer.group, tr.theta[1]) == {(): -1}

    def test_symbolic_oracle_included(self):
        # independent symbolic zeta manipulation for the same configuration
        layer = TrivialLayer(F2, {INFINITY, FinitePlace(poly(F2, 0, 1))},
                             {FinitePlace(poly(F2, 1, 1))})
        assert trivial_character_symbolic(layer) == [1, -1]

    def test_uncancelled_pole_detected(self):
        # with S empty the (1-u) zeta pole survives Sigma-smoothing: the
        # symbolic path must refuse rather than divide a series
        layer = TrivialLayer(F2, set(), {FinitePlace(poly(F2, 1, 1))})
        with pytest.raises(PoleError):
            trivial_character_symbolic(layer)


def brute_force_characters_mod_p(field, p_gen, order, q):
    """Independent oracle: the even characters mod an irreducible p_gen,
    as plain functions monic-residue -> power of zeta_order, built from a
    brute-force discrete log in (A/p)^x (no rayclass machinery)."""
    units = list(reference_units(p_gen))
    gen = None
    n_units = len(units)
    for u in units:
        seen = set()
        acc = FqPoly.one(field)
        for _ in range(n_units):
            acc = acc * u % p_gen
            seen.add(acc.coeffs)
        if len(seen) == n_units:
            gen = u
            break
    dlog = {}
    acc = FqPoly.one(field)
    for i in range(n_units):
        dlog[acc.coeffs] = i
        acc = acc * gen % p_gen
    # even characters: trivial on F_q^x; chi_j(g^t) = zeta^(j * t * order/n_units)
    # where j * dlog(constants) = 0 mod n_units
    const_logs = [dlog[FqPoly.constant(field, c).coeffs] for c in range(1, q)]
    chars = []
    for j in range(n_units):
        if all((j * cl) % n_units == 0 for cl in const_logs):
            chars.append(j)
    assert len(chars) == order

    def make(j):
        def chi(a):
            return (j * dlog[(a % p_gen).coeffs]) % n_units
        return chi

    return [(j, make(j)) for j in chars], n_units


class TestFlagshipThetaQ3:
    def test_layer0_against_independent_oracle(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        assert len(tr.theta) - 1 == 1

        # oracle: chi(Theta) = (1 - chi(theta)^{-1} 3u) * L^fin(u, chi^{-1})/(1-u)
        # with L^fin summed over monics of degree <= 3 directly
        oracle_chars, n_units = brute_force_characters_mod_p(F3, cfg.p_place.gen, 4, 3)
        ring4 = CyclotomicRing(4)
        engine_chars = characters(layer.group)
        fr_theta_plus_1 = layer.frobenius(FinitePlace(poly(F3, 1, 1)))
        for j, chi_fn in oracle_chars:
            # L-series sum (inverse character), truncated well past the bound
            coeffs = [ring4.zero] * 5
            coeffs[0] = ring4.one
            for d in range(1, 5):
                for tail in itertools.product(range(3), repeat=d):
                    a = FqPoly(F3, tail + (1,))
                    if (a % cfg.p_place.gen).is_zero():
                        continue
                    lg = (-chi_fn(a)) % n_units  # chi^{-1}(a)
                    coeffs[d] = ring4.add(coeffs[d], reference_zeta_pow(ring4, lg * 4 // n_units))
            while coeffs and ring4.is_zero(coeffs[-1]):
                coeffs.pop()
            # divide by (1 - u) for nontrivial chi (infinity factor)
            if j != 0:
                acc = ring4.zero
                new = []
                total = ring4.zero
                for c in coeffs:
                    total = ring4.add(total, c)
                assert ring4.is_zero(total)
                for c in coeffs[:-1]:
                    acc = ring4.add(acc, c)
                    new.append(acc)
                lser = new
            else:
                lser = None  # trivial character handled by the symbolic path
            if lser is None:
                continue
            # multiply by Sigma factor (1 - chi(sigma_theta)^{-1} (3u))
            z = reference_zeta_pow(ring4, ((-chi_fn(poly(F3, 0, 1))) % n_units) * 4 // n_units)
            expect = [lser[0]]
            for i in range(1, len(lser) + 1):
                lo = lser[i] if i < len(lser) else ring4.zero
                expect.append(ring4.add(lo, reference_scale(-3, ring4.mul(z, lser[i - 1]))))
            while expect and ring4.is_zero(expect[-1]):
                expect.pop()
            # match the engine character with the same value on Frob_(theta+1)
            target_val = reference_zeta_pow(ring4, chi_fn(poly(F3, 1, 1)) * 4 // n_units)
            matches = [ch for ch in engine_chars
                       if reference_zeta_pow(ring4, ch.log_value(fr_theta_plus_1)) == target_val]
            assert len(matches) == 1
            assert chi_of_theta(tr, matches[0]) == expect

    def test_layer0_frozen_values(self):
        # frozen from the oracle above: chi(Theta) is 1+u, 1-3u, 1+3u, 1+3u
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        ring4 = CyclotomicRing(4)
        seen = []
        for chi in characters(layer.group):
            c = chi_of_theta(tr, chi)
            assert len(c) == 2 and c[0] == ring4.one
            seen.append(c[1])
        vals = sorted(str(v) for v in seen)
        expected = sorted(str(reference_scale(c, ring4.one)) for c in (1, -3, 3, 3))
        # 1+u for trivial; 1-3u for the quadratic; 1+3u for both faithful
        assert sorted(x[0] for x in seen) == [-3, 1, 3, 3] or vals == expected

    def test_special_value_augmentation(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        special = tr.special_value()
        assert sum(special) == 2  # (1-3)*2/(1-3) = 2 symbolically
        # augmentation of Theta(1) equals the trivial-character value
        triv = [c for c in characters(layer.group) if c.is_trivial()][0]
        val = apply_character(triv, [special])
        ring = CyclotomicRing(layer.group.exponent)
        assert val == [reference_scale(2, ring.one)]

    def test_layer1_stabilization_and_recompute(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 1)
        tr = theta(layer)
        assert tr.bound == 3
        tr2 = theta(layer, D=tr.D + 2, cross_check=False)
        assert tr.theta == tr2.theta

    def test_layer1_sampled_per_character_products(self):
        # the automatic per-character cross-check only runs on small groups;
        # exercise the independent cyclotomic-ring Euler product on a sample
        # of layer-1 characters of each conductor type
        from ctower.lfun import character_conductor, per_character_euler_product

        cfg = flagship_q3()
        layer = build_layer(cfg, 1)
        tr = theta(layer)
        chars = characters(layer.group)
        sample = []
        seen_conductor_degrees = set()
        for chi in chars:
            d = character_conductor(layer, chi).degree
            if d not in seen_conductor_degrees:
                seen_conductor_degrees.add(d)
                sample.append(chi)
        assert len(sample) == 3  # conductors 1, p, p^2
        for chi in sample:
            direct = per_character_euler_product(layer, chi, tr.D)
            assert direct == chi_of_theta(tr, chi)


class TestFlagshipThetaQ2:
    def test_layer0_values(self):
        cfg = flagship_q2()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        # derived by the same zeta manipulation: chi0 -> 1+u, chi of order 3
        # -> 1 - 2 chi(omega)^{-1} u; averaging the idempotents gives
        # Theta = 1 + (1 + sigma - sigma^2) u with sigma = Frobenius of (theta)
        s = layer.frobenius(FinitePlace(poly(F2, 0, 1)))
        g = layer.group
        assert len(tr.theta) - 1 == 1
        assert items(layer.group, tr.theta[0]) == {g.identity: 1}
        assert items(layer.group, tr.theta[1]) == {g.identity: 1, s: 1, g.inv(s): -1}

    def test_special_value(self):
        cfg = flagship_q2()
        layer = build_layer(cfg, 0)
        special = theta(layer).special_value()
        # norm over characters: 2 * 7 = 14
        norm = character_norm(layer.group, [apply_character(chi, [special])
                                            for chi in characters(layer.group)])
        assert norm == [14]

    def test_layer1(self):
        cfg = flagship_q2()
        layer = build_layer(cfg, 1)
        tr = theta(layer)
        assert tr.bound == 3
        assert not any(map(any, euler_series(layer, tr.D)[tr.bound + 1:] + tr.tail))


class TestFunctoriality:
    @pytest.mark.parametrize("make_cfg", [flagship_q3, flagship_q2])
    def test_consecutive_layers(self, make_cfg):
        cfg = make_cfg()
        l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
        tr0, tr1 = theta(l0), theta(l1)
        lm = layer_projection(l1, l0)
        report = functoriality_check(tr1, tr0, lm)
        assert report.equal

    def test_projection_to_trivial_group(self):
        # projecting to the trivial group recovers the G-trivial Theta of the
        # same (S, Sigma)
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        triv = TrivialLayer(F3, set(cfg.S), set(cfg.sigma))
        tr_triv = theta(triv, D=8)

        class _Collapse:
            @staticmethod
            def apply(_):
                return ()

        report = functoriality_check(tr, tr_triv, _Collapse)
        assert report.equal

    def test_identity(self):
        cfg = flagship_q2()
        l0 = build_layer(cfg, 0)
        tr = theta(l0)
        lm = layer_projection(l0, l0)
        assert functoriality_check(tr, tr, lm).equal


class TestSpecialValueEdge:
    def test_one_minus_u_vanishes_at_one(self):
        layer = TrivialLayer(F2, {INFINITY, FinitePlace(poly(F2, 0, 1))},
                             {FinitePlace(poly(F2, 1, 1))})
        tr = theta(layer, D=12)
        assert not any(tr.special_value())


class TestAlternativeConfigurations:
    def test_degree_two_sigma_place(self):
        # Sigma with a place of degree 2: the smoothing factor is
        # 1 - sigma^{-1} (qu)^2
        p = FinitePlace(poly(F3, 1, 0, 1))
        sigma = frozenset({FinitePlace(poly(F3, 2, 1, 1))})  # theta^2+theta+2
        cfg = TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p), sigma)
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        assert not any(map(any, euler_series(layer, tr.D)[tr.bound + 1:] + tr.tail))
        assert degree_bound(layer) == 2 + 2 - 2
        # the trivial component: (1-(3u)^2)(1-u^2)/((1-u)(1-3u)) = (1+3u)(1+u)
        triv = [sum(c) for c in tr.theta]
        assert triv == [1, 4, 3]

    def test_infinity_in_s_convention(self):
        # with v_inf in S the infinite Euler factor is omitted; since v_inf
        # splits completely its decomposition group is trivial, so every
        # nontrivial character picks up a simple zero at u = 1
        p = FinitePlace(poly(F3, 1, 0, 1))
        cfg = TowerConfig(F3, FqPoly.one(F3), p,
                          frozenset({p, INFINITY}),
                          frozenset({FinitePlace(poly(F3, 0, 1))}))
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        assert not any(map(any, euler_series(layer, tr.D)[tr.bound + 1:] + tr.tail))
        for chi in characters(layer.group):
            if chi.is_trivial():
                continue
            mult, predicted = order_of_vanishing_check(layer, tr, chi)
            assert predicted == 1  # counts v_inf, where chi(G_v) = 1
            assert mult == 1


class TestMultiPrimeConductor:
    def test_f_with_two_prime_factors(self):
        # f = theta(theta+1), p = theta^2+1, Sigma = {(theta+2)}: G_0 is
        # Z/8 x Z/2 of order 16; the vanishing-order formula holds for every
        # nontrivial character, with exactly one simple zero
        from collections import Counter

        p = FinitePlace(poly(F3, 1, 0, 1))
        f = poly(F3, 0, 1) * poly(F3, 1, 1)
        cfg = TowerConfig(F3, f, p, default_s(f, p),
                          frozenset({FinitePlace(poly(F3, 2, 1))}))
        layer = build_layer(cfg, 0)
        assert layer.order == 16
        assert sorted(layer.group.orders) == [2, 8]
        tr = theta(layer)
        assert not any(map(any, euler_series(layer, tr.D)[tr.bound + 1:] + tr.tail))
        dist = Counter()
        for chi in characters(layer.group):
            if chi.is_trivial():
                continue
            mult, predicted = order_of_vanishing_check(layer, tr, chi)
            assert mult == predicted
            dist[predicted] += 1
        assert dist == {0: 14, 1: 1}


class TestEulerFactors:
    def test_factor_listing(self):
        from ctower.lfun import euler_factors

        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        facs = euler_factors(layer, 2)
        modes = {f.mode for f in facs}
        assert modes == {"S-inverse", "Sigma-forward"}
        # infinity participates with trivial Frobenius; p is excluded
        infinities = [f for f in facs if f.degree == 1 and f.mode == "S-inverse"]
        assert any(f.frobenius == layer.group.identity for f in infinities)
        # p = theta^2 + 1 is the one place of degree <= 2 left out: with
        # infinity, 1 + 3 factors of degree 1 and 3 - 1 of degree 2
        degrees = [f.degree for f in facs if f.mode == "S-inverse"]
        assert (degrees.count(1), degrees.count(2)) == (4, 2)
        sigma_facs = [f for f in facs if f.mode == "Sigma-forward"]
        assert len(sigma_facs) == 1 and sigma_facs[0].degree == 1

    def test_class_of_divides_no_polynomial(self, monkeypatch):
        # every Frobenius and divisor class of theta at flagship layer 1 is a
        # walk through the successor table, with no reduction mod m
        layer = build_layer(flagship_q3(), 1)
        calls, inside, divisions = [], [], []
        class_of, divmod_ = layer.class_of, FqPoly.__divmod__

        def counted_class_of(a):
            calls.append(a)
            inside.append(a)
            try:
                return class_of(a)
            finally:
                inside.pop()

        def counted_divmod(a, b):
            if inside:
                divisions.append((a, b))
            return divmod_(a, b)

        monkeypatch.setattr(layer, "class_of", counted_class_of)
        monkeypatch.setattr(FqPoly, "__divmod__", counted_divmod)
        theta(layer)
        assert calls and divisions == []


class TestOrderOfVanishing:
    @pytest.mark.parametrize("make_cfg", [flagship_q3, flagship_q2])
    def test_flagship_all_nontrivial_chars(self, make_cfg):
        # p is totally ramified: chi(G_p) != 1 for nontrivial chi, so the
        # predicted multiplicity is 0 and L(1, chi) != 0
        cfg = make_cfg()
        for n in (0, 1):
            layer = build_layer(cfg, n)
            tr = theta(layer)
            for chi in characters(layer.group):
                if chi.is_trivial():
                    continue
                mult, predicted = order_of_vanishing_check(layer, tr, chi)
                assert predicted == 0
                assert mult == 0

    def test_constructed_multiplicity_one(self):
        # f = theta, p = theta^2+1: G_0 has order 8 and D_theta has index 2;
        # the character killing D_theta has a simple zero at u = 1
        p = FinitePlace(poly(F3, 1, 0, 1))
        f = poly(F3, 0, 1)
        cfg = TowerConfig(F3, f, p, default_s(f, p),
                          frozenset({FinitePlace(poly(F3, 1, 1))}))
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        v_theta = FinitePlace(poly(F3, 0, 1))
        dec = layer.decomposition_group(v_theta)
        special = [chi for chi in characters(layer.group)
                   if not chi.is_trivial() and chi.trivial_on(dec)]
        assert len(special) == 1
        mult, predicted = order_of_vanishing_check(layer, tr, special[0])
        assert predicted == 1
        assert mult == 1
        # every other nontrivial character has multiplicity 0
        for chi in characters(layer.group):
            if chi.is_trivial() or chi.exps == special[0].exps:
                continue
            mult, predicted = order_of_vanishing_check(layer, tr, chi)
            assert mult == predicted == 0

    def test_trivial_character_rejected(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        triv = [c for c in characters(layer.group) if c.is_trivial()][0]
        with pytest.raises(ValueError):
            order_of_vanishing_check(layer, tr, triv)


def reference_invert_one_plus_nilpotent_u(ring, x, is_unit):
    """The inverse of x in base[u]/(u^M) (ReferenceTruncPolyRing) as
    invert_one_plus_nilpotent_u built it before a constant term of one
    skipped the elimination: the constant term inverted by is_unit, then the
    geometric series of the nilpotent rest."""
    ok, c0_inv = is_unit(x[0], ring.base)
    assert ok
    c0_inv_full = ring.from_list([c0_inv])
    n = ring.sub(ring.one, ring.mul(c0_inv_full, x))
    acc, power = ring.one, n
    for _ in range(ring.M - 1):
        acc = ring.add(acc, power)
        power = ring.mul(power, n)
    return ring.mul(acc, c0_inv_full)


def _sigma_unit_witness(layer, v, monkeypatch):
    """(x, inverse) that sigma_factor_unit certifies for v: the factors of
    its last product in the ring, the check x * inverse = 1."""
    products, mul = [], grouprings.PolyGroupRing.mul

    def recording(ring, a, b):
        products.append((a, b))
        return mul(ring, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(grouprings.PolyGroupRing, "mul", recording)
        assert sigma_factor_unit(layer, v)
    return products[-1]


class TestSigmaUnit:
    @pytest.mark.parametrize("make_cfg", [flagship_q3, flagship_q2])
    def test_witness(self, make_cfg):
        cfg = make_cfg()
        layer = build_layer(cfg, 0)
        v = sorted(cfg.sigma, key=lambda v: v.gen.sort_key())[0]
        assert sigma_factor_unit(layer, v) is True

    def test_u_to_zero_specialization(self, monkeypatch):
        # at u = 0 the factor is 1 and its inverse is 1
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        v = sorted(cfg.sigma, key=lambda v: v.gen.sort_key())[0]
        _, inverse = _sigma_unit_witness(layer, v, monkeypatch)
        ring = ZpkGroupRing(cfg.char, 6, layer.group)
        # block g of the inverse holds its coefficients of g at u^0, ..., u^5
        assert inverse[::6] == ring.from_mapping({layer.group.identity: 1})

    @pytest.mark.parametrize("make_cfg,n", [(flagship_q3, 1), (flagship_q2, 2)])
    def test_one_constant_term_needs_no_elimination(self, make_cfg, n, monkeypatch):
        # the constant term of 1 - sigma^{-1} (qu)^d is one, its own
        # inverse: no multiplication matrix is built (every elimination on
        # the ring reads one off mult_rows), and the witness is the one that
        # the is_unit path builds in the u-major base[u]/(u^M), transposed
        cfg = make_cfg()
        layer = build_layer(cfg, n)
        mult_rows = grouprings.PolyGroupRing.mult_rows
        calls = []

        def counting(ring, e):
            calls.append(ring)
            return mult_rows(ring, e)

        monkeypatch.setattr(grouprings.PolyGroupRing, "mult_rows", counting)
        for v in cfg.sigma:
            element, inverse = _sigma_unit_witness(layer, v, monkeypatch)
            assert calls == []
            ref = ReferenceTruncPolyRing(ZpkGroupRing(cfg.char, 6, layer.group), 6)
            inv = reference_invert_one_plus_nilpotent_u(ref, ref.from_group_major(element),
                                                        grouprings.is_unit)
            assert inverse == ref.to_group_major(inv)

    def test_non_sigma_place_rejected(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        with pytest.raises(ValueError):
            sigma_factor_unit(layer, cfg.p_place)


def reference_factors_through(layer, chi, m_prime):
    """The per-character descent step as it stood before each layer kept
    its level kernels: chi trivial on ker(G_n -> (A/m')^x / F_q^x), by
    enumerating the kernel for this character alone."""
    F = layer.field
    m = layer.modulus
    if m_prime.degree == m.degree:
        return True
    rest_deg = m.degree - m_prime.degree
    for c in range(1, F.q):
        cc = FqPoly.constant(F, c)
        for tail in itertools.product(range(F.q), repeat=rest_deg):
            t = FqPoly(F, tail)
            a = cc + m_prime * t
            if not a.gcd(m).is_one():
                continue
            if chi.log_value(layer.class_of(a)) != 0:
                return False
    return True


def reference_conductor(layer, chi):
    """Least level f' p^j in sort_key order through which chi factors, f'
    running over the monic divisors of f."""
    cfg = layer.cfg
    F = cfg.field
    f_divs = {FqPoly.one(F)}
    for g, e in (fq_factor(cfg.f) if cfg.f.degree >= 1 else []):
        f_divs = {d * g ** j for d in f_divs for j in range(e + 1)}
    candidates = sorted((d * cfg.p_place.gen ** j for d in f_divs for j in range(layer.n + 2)),
                        key=FqPoly.sort_key)
    return next(m for m in candidates if reference_factors_through(layer, chi, m))


class TestBoundsAndConductors:
    @pytest.mark.parametrize("make_cfg,n", [(flagship_q3, 0), (flagship_q3, 1)]
                             + [(flagship_q2, n) for n in range(4)]
                             + [(multi_prime_q3, 0)])
    def test_conductors_match_the_per_character_descent(self, make_cfg, n):
        layer = build_layer(make_cfg(), n)
        for chi in characters(layer.group):
            assert character_conductor(layer, chi) == reference_conductor(layer, chi)

    def test_flagship_bounds(self):
        cfg = flagship_q3()
        assert degree_bound(build_layer(cfg, 0)) == 1
        assert degree_bound(build_layer(cfg, 1)) == 3

    def test_trivial_layer_bounds(self):
        # conductor 1: deg Sigma + deg of the finite S-places - 2 + [inf in S]
        x, x1 = FinitePlace(poly(F3, 0, 1)), FinitePlace(poly(F3, 1, 1))
        cases = [(TrivialLayer(F3, {INFINITY, x, x1}, {FinitePlace(poly(F3, 1, 0, 1))}), 3),
                 (TrivialLayer(F3, {x}, {x1}), 0),
                 (TrivialLayer(F2, set(), {FinitePlace(poly(F2, 1, 1))}), -1)]
        for layer, expected in cases:
            assert degree_bound(layer) == expected
            (chi,) = characters(layer.group)
            assert character_conductor(layer, chi) == FqPoly.one(layer.field)
            assert per_character_degree_bound(layer, chi) == expected

    def test_character_conductors_layer1(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 1)
        p_gen = cfg.p_place.gen
        conductors = {}
        for chi in characters(layer.group):
            m = character_conductor(layer, chi)
            conductors[chi.exps] = m
            if chi.is_trivial():
                assert m == FqPoly.one(F3)
            else:
                assert m in (p_gen, p_gen * p_gen)
        # the characters factoring through level 0 are exactly |G_0| many
        low = [e for e, m in conductors.items() if m.degree <= 2]
        assert len(low) == 4

    def test_per_character_bound_respected(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 1)
        tr = theta(layer)
        for exps, (deg, bound) in tr.per_char_degrees.items():
            assert deg <= bound

    def test_degree_too_small_rejected(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        with pytest.raises(ValueError):
            theta(layer, D=0)


# The per-term character evaluator as it stood before apply_character summed
# the coefficients by log value and reduced once, kept verbatim (self renamed
# x, now the dict of nonzero coefficients of items; ring.scale and
# ring.zeta_pow, since deleted, are the reference_ functions of
# zpk_reference) as the oracle for TestCharacterEvaluatorReference.
def reference_apply_character(x, chi):
    ring = chi.ring
    acc = ring.zero
    for k, v in x.items():
        acc = ring.add(acc, reference_scale(v, reference_zeta_pow(ring, chi.log_value(k))))
    return acc


def chi_value(chi, x):
    """chi(x) for x in Z[G]: apply_character on the one-coefficient [x]."""
    return (apply_character(chi, [x]) or [chi.ring.zero])[0]


@pytest.fixture(scope="module")
def flagship_thetas():
    """(layer, theta) of q=3 p=x^2+1 layers 0-1 and q=2 p=x^2+x+1 layers
    0-3, keyed by (q, n)."""
    out = {}
    for make_cfg, N in ((flagship_q3, 1), (flagship_q2, 3)):
        cfg = make_cfg()
        for n in range(N + 1):
            layer = build_layer(cfg, n)
            out[cfg.field.q, n] = layer, theta(layer, cross_check=False)
    return out


class TestCharacterEvaluatorReference:
    """The one-pass evaluator gives the per-term evaluator's tuples."""

    def test_every_theta_coefficient(self, flagship_thetas):
        for layer, tr in flagship_thetas.values():
            for chi in characters(layer.group):
                ref = [reference_apply_character(items(layer.group, c), chi) for c in tr.theta]
                assert [chi_value(chi, c) for c in tr.theta] == ref
                while ref and chi.ring.is_zero(ref[-1]):
                    ref.pop()
                assert apply_character(chi, tr.theta) == ref
                assert tr.chi_poly(chi) == ref
                if chi.exps in tr.chi_theta:
                    assert tr.chi_theta[chi.exps] == ref
        assert max(layer.group.order for layer, _ in flagship_thetas.values()) == 192

    @pytest.mark.parametrize("orders", [(4,), (3, 2), (2, 2, 2), (9,), ()])
    def test_random_elements(self, orders):
        group = AbelianGroup(orders)
        elems = list(group.elements())
        rng = random.Random(sum(orders) + 17)
        samples = [from_mapping(group, {}), from_mapping(group, {g: 1 for g in elems})]
        for _ in range(25):
            samples.append(from_mapping(group, {g: rng.randint(-10 ** 6, 10 ** 6)
                                                for g in rng.sample(elems, rng.randint(1, len(elems)))}))
        for x in samples:
            for chi in characters(group):
                assert chi_value(chi, x) == reference_apply_character(items(group, x), chi)


# rational character orbits of the flagship layers, keyed by (q, n)
ORBIT_COUNTS = {(2, 0): 2, (2, 1): 8, (2, 2): 20, (2, 3): 80, (2, 4): 176,
                (3, 0): 3, (3, 1): 15, (3, 2): 123}


class TestCharacterTable:
    """theta stores chi(Theta) once per rational orbit, and chi_poly
    evaluates every other character directly; the verdicts read the
    per-orbit store."""

    def test_independent_product_beyond_cutoff(self, flagship_thetas):
        # theta runs this oracle only while |G| <= PER_CHARACTER_PRODUCT_MAX_ORDER
        for key in ((2, 1), (2, 2), (2, 3), (3, 1)):
            layer, tr = flagship_thetas[key]
            assert layer.group.order > PER_CHARACTER_PRODUCT_MAX_ORDER
            for chi in characters(layer.group):
                assert per_character_euler_product(layer, chi, tr.D) == tr.chi_poly(chi)

    def test_table_order_and_value_at_one(self, flagship_thetas):
        for layer, tr in flagship_thetas.values():
            chars = characters(layer.group)
            reps = [chi for chi in chars if tr.orbit_rep[chi.exps].exps == chi.exps]
            assert list(tr.orbit_rep) == [chi.exps for chi in chars]
            assert list(tr.chi_theta) == [chi.exps for chi in reps]
            assert len(reps) == ORBIT_COUNTS[layer.field.q, layer.n]
            assert "chi_theta" not in tr.to_json()
            special = tr.special_value()
            for chi in chars:
                at_one = chi.ring.zero
                for c in tr.chi_poly(chi):
                    at_one = chi.ring.add(at_one, c)
                assert at_one == chi_value(chi, special)
                assert tr.chi_at_one(chi) == chi_value(chi, special)
            for chi in reps:
                assert tr.chi_theta[chi.exps] == tr.chi_poly(chi) == chi_of_theta(tr, chi)

    def test_norm_from_table(self, flagship_thetas):
        for key in ((3, 0), (2, 0), (2, 1)):
            layer, tr = flagship_thetas[key]
            # against every character evaluated on the dict-keyed Theta
            ref = [ReferenceGroupRingElem(layer.group, items(layer.group, c)) for c in tr.theta]
            assert character_norm(layer.group, [tr.chi_poly(chi)
                                                for chi in characters(layer.group)]) == \
                character_norm(layer.group, [[c.apply_character(chi) for c in ref]
                                             for chi in characters(layer.group)])

    @pytest.mark.parametrize("key", [(3, 0), (3, 1), (2, 0), (2, 1), (2, 2), "F4"])
    def test_rotation_product_matches_the_ring_product(self, flagship_thetas, key):
        # the per-character product by rotation in Z[x]/(x^N - 1) against the
        # one CyclotomicRing product per step that it replaced, on every
        # character, above the |G| <= 8 gate too; "F4" is the layer
        # --q 2^2 --p x^3+x+1 --N 0 --Sigma x+1 (|G| = 21)
        if key == "F4":
            F4 = FqField(2, 2)
            p4 = FinitePlace(poly(F4, 1, 1, 0, 1))
            layer = build_layer(TowerConfig(F4, FqPoly.one(F4), p4, default_s(FqPoly.one(F4), p4),
                                            frozenset({FinitePlace(poly(F4, 1, 1))})), 0)
            tr = theta(layer, cross_check=False)
            assert layer.group.order == 21
        else:
            layer, tr = flagship_thetas[key]
        for chi in characters(layer.group):
            direct = per_character_euler_product(layer, chi, tr.D)
            assert direct == reference_per_character_euler_product(layer, chi, tr.D)
            assert direct == tr.chi_poly(chi)

    def test_order_of_vanishing_table(self, flagship_thetas):
        layer, tr = flagship_thetas[2, 2]
        table = order_of_vanishing_table(layer, tr)
        assert [chi.exps for chi, _, _ in table] == \
            [chi.exps for chi in characters(layer.group) if not chi.is_trivial()]
        for chi, mult, predicted in table:
            assert (mult, predicted) == order_of_vanishing_check(layer, tr, chi)


def euler_phi(M):
    """M prod (1 - 1/ell) over the primes ell dividing M."""
    out, rest, ell = M, M, 2
    while rest > 1:
        if rest % ell == 0:
            out -= out // ell
            while rest % ell == 0:
                rest //= ell
        ell += 1
    return out


def _vanishing_order_at_one(ring, coeffs):
    """The multiplicity of u = 1 in the polynomial coeffs, by repeated
    division by u - 1 (Horner's scheme, remainder first)."""
    mult = 0
    while coeffs:
        quotient, acc = [], ring.zero
        for c in reversed(coeffs):
            acc = ring.add(acc, c)
            quotient.append(acc)
        if not ring.is_zero(quotient.pop()):
            return mult
        coeffs = quotient[::-1]
        mult += 1
    raise ArithmeticError("the zero polynomial has no vanishing order")


@pytest.fixture(scope="module")
def orbit_thetas():
    """(layer, theta) of the q=2 flagship at n = 0-4 (|G| <= 768) and the
    q=3 flagship at n = 0-2, keyed by (q, n)."""
    out = {}
    for make_cfg, N in ((flagship_q2, 4), (flagship_q3, 2)):
        cfg = make_cfg()
        for n in range(N + 1):
            layer = build_layer(cfg, n)
            out[cfg.field.q, n] = layer, theta(layer, cross_check=False)
    return out


class TestRationalOrbits:
    """Everything theta and the tower read once per rational orbit against
    the per-character computation on every character: apply_character,
    per_character_degree_bound and split_count are the oracle."""

    def test_orbits_are_the_galois_classes(self, orbit_thetas):
        for (q, n), (layer, tr) in orbit_thetas.items():
            chars = characters(layer.group)
            reps, orbit = character_orbits(chars)
            assert tr.orbit_rep == {chi.exps: reps[orbit[chi.exps]] for chi in chars}
            members = {}
            for chi in chars:
                members.setdefault(tr.orbit_rep[chi.exps].exps, []).append(chi.exps)
            assert len(members) == ORBIT_COUNTS[q, n]
            for rep in {r.exps: r for r in tr.orbit_rep.values()}.values():
                M = rep.order
                assert members[rep.exps][0] == rep.exps
                assert sorted(members[rep.exps]) == \
                    sorted({rep.power(a).exps for a in range(1, M + 1) if math.gcd(a, M) == 1})
                assert len(members[rep.exps]) == euler_phi(M)

    def test_per_char_degrees(self, orbit_thetas):
        for layer, tr in orbit_thetas.values():
            expect = {}
            for chi in characters(layer.group):
                coeffs = chi_of_theta(tr, chi)
                expect[chi.exps] = (len(coeffs) - 1, per_character_degree_bound(layer, chi))
            assert list(tr.per_char_degrees.items()) == list(expect.items())

    def test_rep_values(self, orbit_thetas):
        for layer, tr in orbit_thetas.values():
            reps = {r.exps: r for r in tr.orbit_rep.values()}
            assert list(tr.chi_theta) == list(reps)
            for exps, rep in reps.items():
                assert tr.chi_theta[exps] == chi_of_theta(tr, rep)

    def test_order_of_vanishing_table(self, orbit_thetas):
        for layer, tr in orbit_thetas.values():
            expect = [(chi.exps, _vanishing_order_at_one(chi.ring, chi_of_theta(tr, chi)),
                       layer.split_count(chi))
                      for chi in characters(layer.group) if not chi.is_trivial()]
            got = [(chi.exps, mult, predicted)
                   for chi, mult, predicted in order_of_vanishing_table(layer, tr)]
            assert got == expect

    def test_live_set(self, orbit_thetas):
        for layer, tr in orbit_thetas.values():
            live_reps, live = tower._live_characters(layer, tr)
            expect = [chi for chi in characters(layer.group)
                      if layer.split_count(chi) == chi.is_trivial()]
            assert live == expect
            assert live_reps == {tr.orbit_rep[chi.exps] for chi in expect}
            special = tr.special_value()
            # the live characters are exactly those with chi(Theta(1)) != 0
            assert [chi for chi in characters(layer.group)
                    if apply_character(chi, [special])] == expect


class TestFlatLayoutReference:
    """The flat Euler and divisor-sum series and chi-components agree with
    the dict-keyed code of zpk_reference on q=3 layers 0-1 and q=2 layers 0-3."""

    def test_series(self, flagship_thetas):
        for layer, tr in flagship_thetas.values():
            group = layer.group
            for flat, ref in ((euler_series(layer, tr.D), reference_euler_series(layer, tr.D)),
                              (divisor_sum_series(layer, tr.D),
                               reference_divisor_sum_series(layer, tr.D))):
                assert len(flat) == len(ref) == tr.D + 1
                for c, r in zip(flat, ref):
                    assert len(c) == group.order
                    assert items(group, c) == r
            # Theta is the series through its bound, trailing zeros dropped
            assert tr.theta == euler_series(layer, tr.D)[:len(tr.theta)]

    @pytest.mark.parametrize("k", [1, 5])
    def test_chi_components(self, flagship_thetas, k):
        rng = random.Random(k)
        for layer, tr in flagship_thetas.values():
            group, p = layer.group, layer.field.p
            delta = AbelianGroup(tuple(group.orders[i] for i in layer.delta_idx))
            pgrp = AbelianGroup(tuple(group.orders[i] for i in layer.p_idx))
            xs = [tr.special_value(), *tr.theta, from_mapping(group, {})]
            xs += [from_mapping(group, {g: rng.randrange(-p ** k, p ** k)
                                        for g in group.elements()})
                   for _ in range(2)]
            for chi in character_orbits(characters(delta), p)[0]:
                ring = chi_component_ring(chi, p, k, pgrp)
                ref = ReferenceChiComponentRing(p, k, ring.h, pgrp, chi.order)
                assert ring.zero == ref.to_vec(ref.zero)
                assert ring.one == ref.to_vec(ref.one)
                imgs = []
                for x in xs:
                    a = chi_component(group, x, chi, ring, layer.delta_idx, layer.p_idx)
                    ra = reference_chi_component(ReferenceGroupRingElem(group, items(group, x)),
                                                 chi, ref, layer.delta_idx, layer.p_idx)
                    assert a == ref.to_vec(ra)
                    assert ring.from_vec(ref.to_vec(ra)) == a
                    imgs.append((a, ra))
                for (a, ra), (b, rb) in zip(imgs, imgs[1:] + imgs[:1]):
                    for op in ("add", "sub", "mul"):
                        assert getattr(ring, op)(a, b) == ref.to_vec(getattr(ref, op)(ra, rb))
                    c = rng.randrange(-100, 100)
                    assert ring.scale_int(c, a) == ref.to_vec(ref.scale_int(c, ra))
                    assert (a == b) == ref.equal(ra, rb)



def _residue_configs():
    """Layers where the residue modulus M (layer modulus times the finite
    S-places prime to it) differs from m, or where deg M is a boundary."""
    x3, x3p1 = FinitePlace(poly(F3, 0, 1)), FinitePlace(poly(F3, 1, 1))
    p3 = FinitePlace(poly(F3, 1, 0, 1))
    one3 = FqPoly.one(F3)
    extra_s = TowerConfig(F3, one3, p3, frozenset({p3, x3p1}), frozenset({x3}))
    inf_s = TowerConfig(F3, one3, p3, frozenset({p3, x3p1, INFINITY}), frozenset({x3}))
    p2, x2 = FinitePlace(poly(F2, 1, 1, 1)), poly(F2, 0, 1)
    f_x = TowerConfig(F2, x2, p2, default_s(x2, p2), frozenset({FinitePlace(poly(F2, 1, 1))}))
    F4 = FqField(2, 2)
    p4 = FinitePlace(poly(F4, 1, 1, 0, 1))
    q4 = TowerConfig(F4, FqPoly.one(F4), p4, default_s(FqPoly.one(F4), p4),
                     frozenset({FinitePlace(poly(F4, 0, 1))}))
    cases = [(build_layer(extra_s, n), f"q3-extra-S-{n}") for n in (0, 1)]
    cases += [(build_layer(inf_s, 0), "q3-inf-in-S-0")]
    cases += [(build_layer(f_x, n), f"q2-f=x-{n}") for n in (0, 1)]
    cases += [(build_layer(q4, 0), "q4-0")]
    cases += [(TrivialLayer(F3, {p3, INFINITY}, {x3}), "trivial-p-inf")]
    return [pytest.param(layer, id=name) for layer, name in cases]


RESIDUE_LAYERS = _residue_configs()


def _as_dicts(layer, series):
    return [items(layer.group, c) for c in series]


class TestResidueSums:
    """divisor_sum_series enumerates monics only through deg M and reads the
    higher coefficients off residues mod M; the full enumeration of
    zpk_reference stays the oracle."""

    @pytest.mark.parametrize("layer", RESIDUE_LAYERS)
    def test_matches_full_enumeration(self, layer):
        D = degree_bound(layer) + DEFAULT_EXTRA_DEGREE
        assert D > residue_degree(layer)
        series = divisor_sum_series(layer, D)
        assert _as_dicts(layer, series) == reference_divisor_sum_series(layer, D)
        assert series == euler_series(layer, D)

    @pytest.mark.parametrize("layer", RESIDUE_LAYERS)
    def test_window_at_or_below_deg_m(self, layer):
        top = residue_degree(layer)
        for D in (top - 1, top):
            assert _as_dicts(layer, divisor_sum_series(layer, D)) == \
                reference_divisor_sum_series(layer, D)

    @pytest.mark.parametrize("layer", RESIDUE_LAYERS)
    def test_class_of_calls_bounded_by_residues(self, layer, monkeypatch):
        # the enumeration stops at deg M whatever D is: at most
        # sum_{d <= deg M} q^d classes, against q^D for the full sum
        q, top = layer.field.q, residue_degree(layer)
        for v in layer.sigma:
            layer.frobenius(v)
        calls = []
        class_of = layer.class_of
        monkeypatch.setattr(layer, "class_of", lambda a: calls.append(a) or class_of(a))
        divisor_sum_series(layer, top + 6)
        assert len(calls) <= sum(q ** d for d in range(top + 1))
        assert all(a.degree <= top for a in calls)


def _tail_configs():
    """The flagship towers, and the residue layers beside q = 5 and
    f = theta + 1 at q = 3."""
    p3, x3 = FinitePlace(poly(F3, 1, 0, 1)), FinitePlace(poly(F3, 0, 1))
    f3 = poly(F3, 1, 1)
    f_x1 = TowerConfig(F3, f3, p3, default_s(f3, p3), frozenset({x3}))
    F5 = FqField(5)
    p5 = FinitePlace(poly(F5, 2, 0, 1))
    q5 = TowerConfig(F5, FqPoly.one(F5), p5, default_s(FqPoly.one(F5), p5),
                     frozenset({FinitePlace(poly(F5, 0, 1))}))
    cases = [(flagship_q3(), n, f"q3-{n}") for n in range(3)]
    cases += [(flagship_q2(), n, f"q2-{n}") for n in range(5)]
    cases += [(f_x1, n, f"q3-f=x+1-{n}") for n in (0, 1)]
    cases += [(q5, 0, "q5-0")]
    return [pytest.param(cfg, n, id=name) for cfg, n, name in cases]


class TestDivisorSumTail:
    """theta keeps the divisor-sum coefficients at D + 1 and D + 2; the
    Euler product through D + 2 is their oracle."""

    @pytest.mark.parametrize("cfg,n", _tail_configs())
    def test_tail_is_the_euler_series_past_d(self, cfg, n):
        self._check(build_layer(cfg, n))

    @pytest.mark.parametrize("layer", RESIDUE_LAYERS)
    def test_tail_on_residue_layers(self, layer):
        self._check(layer)

    @staticmethod
    def _check(layer):
        tr = theta(layer)
        longer = euler_series(layer, tr.D + 2)
        assert longer[: tr.D + 1] == euler_series(layer, tr.D)
        assert tr.theta == longer[: len(tr.theta)]
        assert tr.tail == longer[tr.D + 1:]
        assert len(tr.tail) == 2 and not any(map(any, tr.tail))
        tr.certify_tail()

    def test_certify_tail_names_the_first_nonzero_degree(self):
        tr = theta(build_layer(flagship_q3(), 0))
        tr.tail[1] = [1] + tr.tail[1][1:]
        with pytest.raises(StabilizationError,
                           match=f"nonzero coefficient at degree {tr.D + 2} > bound {tr.bound}"):
            tr.certify_tail()

    def test_no_tail_without_the_cross_check(self):
        tr = theta(build_layer(flagship_q3(), 0), cross_check=False)
        assert tr.tail is None and tr.checks == {}
