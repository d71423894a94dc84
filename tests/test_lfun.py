import itertools
import random

import pytest

from ctower.abelian import AbelianGroup
from ctower.ffpoly import FinitePlace, FqField, FqPoly, INFINITY, factor as fq_factor
from ctower.grouprings import (
    CyclotomicRing,
    GroupRingElem,
    ZpkGroupRing,
    character_norm,
    characters,
    chi_component,
    chi_component_ring,
    conjugacy_orbit_reps,
)
from ctower.lfun import (
    PER_CHARACTER_PRODUCT_MAX_ORDER,
    PoleError,
    SigmaUnitWitness,
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
    sigma_factor_unit,
    theta,
    trivial_character_symbolic,
)
from ctower.rayclass import TowerConfig, TrivialLayer, build_layer, default_s, layer_projection
from zpk_reference import (
    ReferenceChiComponentRing,
    ReferenceGroupRingElem,
    reference_chi_component,
    reference_divisor_sum_series,
    reference_euler_series,
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
        assert tr.theta.degree == 1
        assert dict(tr.theta.coefficient(0).items()) == {(): 1}
        assert dict(tr.theta.coefficient(1).items()) == {(): -1}

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
    from ctower.ffpoly import ResidueRing

    ring = ResidueRing(p_gen)
    units = list(ring.units())
    gen = None
    n_units = len(units)
    for u in units:
        seen = set()
        acc = FqPoly.one(field)
        for _ in range(n_units):
            acc = ring.mul(acc, u)
            seen.add(acc.coeffs)
        if len(seen) == n_units:
            gen = u
            break
    dlog = {}
    acc = FqPoly.one(field)
    for i in range(n_units):
        dlog[acc.coeffs] = i
        acc = ring.mul(acc, gen)
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
            return (j * dlog[ring.reduce(a).coeffs]) % n_units
        return chi

    return [(j, make(j)) for j in chars], n_units


class TestFlagshipThetaQ3:
    def test_layer0_against_independent_oracle(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        assert tr.theta.degree == 1

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
                    coeffs[d] = ring4.add(coeffs[d], ring4.zeta_pow(lg * 4 // n_units))
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
            z = ring4.zeta_pow(((-chi_fn(poly(F3, 0, 1))) % n_units) * 4 // n_units)
            expect = [lser[0]]
            for i in range(1, len(lser) + 1):
                lo = lser[i] if i < len(lser) else ring4.zero
                expect.append(ring4.sub(lo, ring4.scale(3, ring4.mul(z, lser[i - 1]))))
            while expect and ring4.is_zero(expect[-1]):
                expect.pop()
            # match the engine character with the same value on Frob_(theta+1)
            target_val = ring4.zeta_pow(chi_fn(poly(F3, 1, 1)) * 4 // n_units)
            matches = [ch for ch in engine_chars if ch.value(fr_theta_plus_1) == target_val]
            assert len(matches) == 1
            assert tr.theta.apply_character(matches[0]) == expect

    def test_layer0_frozen_values(self):
        # frozen from the oracle above: chi(Theta) is 1+u, 1-3u, 1+3u, 1+3u
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        ring4 = CyclotomicRing(4)
        seen = []
        for chi in characters(layer.group):
            c = tr.theta.apply_character(chi)
            assert len(c) == 2 and c[0] == ring4.one
            seen.append(c[1])
        vals = sorted(str(v) for v in seen)
        expected = sorted(str(v) for v in [
            ring4.from_int(1), ring4.from_int(-3), ring4.from_int(3), ring4.from_int(3)])
        # 1+u for trivial; 1-3u for the quadratic; 1+3u for both faithful
        assert sorted(x[0] for x in seen) == [-3, 1, 3, 3] or vals == expected

    def test_special_value_augmentation(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        special = tr.special_value()
        assert special.augmentation() == 2  # (1-3)*2/(1-3) = 2 symbolically
        # augmentation of Theta(1) equals the trivial-character value
        triv = [c for c in characters(layer.group) if c.is_trivial()][0]
        val = special.apply_character(triv)
        assert val == CyclotomicRing(layer.group.exponent).from_int(2)

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
            assert direct == tr.theta.apply_character(chi)


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
        assert tr.theta.degree == 1
        assert dict(tr.theta.coefficient(0).items()) == {g.identity: 1}
        assert dict(tr.theta.coefficient(1).items()) == {g.identity: 1, s: 1, g.inv(s): -1}

    def test_special_value(self):
        cfg = flagship_q2()
        layer = build_layer(cfg, 0)
        special = theta(layer).special_value()
        # norm over characters: 2 * 7 = 14
        tpn = special
        from ctower.grouprings import ThetaPoly
        norm = ThetaPoly(layer.group, [tpn]).norm_poly()
        assert norm == [14]

    def test_layer1(self):
        cfg = flagship_q2()
        layer = build_layer(cfg, 1)
        tr = theta(layer)
        assert tr.bound == 3
        assert tr.stabilization_ok


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
        assert dict(tr.special_value().items()) == {}


class TestAlternativeConfigurations:
    def test_degree_two_sigma_place(self):
        # Sigma with a place of degree 2: the smoothing factor is
        # 1 - sigma^{-1} (qu)^2
        p = FinitePlace(poly(F3, 1, 0, 1))
        sigma = frozenset({FinitePlace(poly(F3, 2, 1, 1))})  # theta^2+theta+2
        cfg = TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p), sigma)
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        assert tr.stabilization_ok
        assert degree_bound(layer) == 2 + 2 - 2
        # the trivial component: (1-(3u)^2)(1-u^2)/((1-u)(1-3u)) = (1+3u)(1+u)
        triv = [c.augmentation() for c in tr.theta.coeffs]
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
        assert tr.stabilization_ok
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
        assert tr.stabilization_ok
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
        assert all(f.place != cfg.p_place for f in facs)
        sigma_facs = [f for f in facs if f.mode == "Sigma-forward"]
        assert len(sigma_facs) == 1 and sigma_facs[0].degree == 1


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


class TestSigmaUnit:
    @pytest.mark.parametrize("make_cfg", [flagship_q3, flagship_q2])
    def test_witness(self, make_cfg):
        cfg = make_cfg()
        layer = build_layer(cfg, 0)
        v = sorted(cfg.sigma, key=lambda v: v.gen.sort_key())[0]
        w = sigma_factor_unit(layer, v, k=6, M=6)
        assert isinstance(w, SigmaUnitWitness)
        assert w.verified

    def test_u_to_zero_specialization(self):
        # at u = 0 the factor is 1 and its inverse is 1
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        v = sorted(cfg.sigma, key=lambda v: v.gen.sort_key())[0]
        w = sigma_factor_unit(layer, v, k=6, M=6)
        base = w.inverse[0]
        ring = ZpkGroupRing(cfg.char, 6, layer.group)
        assert base == ring.from_mapping({layer.group.identity: 1})

    def test_non_sigma_place_rejected(self):
        cfg = flagship_q3()
        layer = build_layer(cfg, 0)
        with pytest.raises(ValueError):
            sigma_factor_unit(layer, cfg.p_place, k=6, M=6)


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
# x) as the oracle for TestCharacterEvaluatorReference.
def reference_apply_character(x, chi):
    ring = chi.ring
    acc = ring.zero
    for k, v in x.items():
        acc = ring.add(acc, ring.scale(v, ring.zeta_pow(chi.log_value(k))))
    return acc


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
                ref = [reference_apply_character(c, chi) for c in tr.theta.coeffs]
                assert [c.apply_character(chi) for c in tr.theta.coeffs] == ref
                while ref and chi.ring.is_zero(ref[-1]):
                    ref.pop()
                assert tr.chi_theta[chi.exps] == ref
        assert max(layer.group.order for layer, _ in flagship_thetas.values()) == 192

    @pytest.mark.parametrize("orders", [(4,), (3, 2), (2, 2, 2), (9,), ()])
    def test_random_elements(self, orders):
        group = AbelianGroup(orders)
        elems = list(group.elements())
        rng = random.Random(sum(orders) + 17)
        samples = [GroupRingElem.zero(group), GroupRingElem.from_mapping(group, {g: 1 for g in elems})]
        for _ in range(25):
            samples.append(GroupRingElem.from_mapping(group, {g: rng.randint(-10 ** 6, 10 ** 6)
                                                 for g in rng.sample(elems, rng.randint(1, len(elems)))}))
        for x in samples:
            for chi in characters(group):
                assert x.apply_character(chi) == reference_apply_character(x, chi)


class TestCharacterTable:
    """theta stores chi(Theta) for every character; the verdicts read it."""

    def test_independent_product_beyond_cutoff(self, flagship_thetas):
        # theta runs this oracle only while |G| <= PER_CHARACTER_PRODUCT_MAX_ORDER
        for key in ((2, 1), (2, 2), (2, 3), (3, 1)):
            layer, tr = flagship_thetas[key]
            assert layer.group.order > PER_CHARACTER_PRODUCT_MAX_ORDER
            for chi in characters(layer.group):
                assert per_character_euler_product(layer, chi, tr.D) == tr.chi_theta[chi.exps]

    def test_table_order_and_value_at_one(self, flagship_thetas):
        for layer, tr in flagship_thetas.values():
            chars = characters(layer.group)
            assert list(tr.chi_theta) == [chi.exps for chi in chars]
            assert "chi_theta" not in tr.to_json()
            special = tr.special_value()
            for chi in chars:
                assert tr.chi_at_one(chi) == special.apply_character(chi)

    def test_norm_from_table(self, flagship_thetas):
        for key in ((3, 0), (2, 0), (2, 1)):
            layer, tr = flagship_thetas[key]
            assert character_norm(layer.group, tr.chi_theta.values()) == tr.theta.norm_poly()

    def test_order_of_vanishing_table(self, flagship_thetas):
        layer, tr = flagship_thetas[2, 2]
        table = order_of_vanishing_table(layer, tr)
        assert [chi.exps for chi, _, _ in table] == \
            [chi.exps for chi in characters(layer.group) if not chi.is_trivial()]
        for chi, mult, predicted in table:
            assert (mult, predicted) == order_of_vanishing_check(layer, tr, chi)


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
                    assert dict(GroupRingElem(group, c).items()) == r
            assert tr.series == euler_series(layer, tr.D)

    @pytest.mark.parametrize("k", [1, 5])
    def test_chi_components(self, flagship_thetas, k):
        rng = random.Random(k)
        for layer, tr in flagship_thetas.values():
            group, p = layer.group, layer.field.p
            delta = AbelianGroup(tuple(group.orders[i] for i in layer.delta_idx))
            pgrp = AbelianGroup(tuple(group.orders[i] for i in layer.p_idx))
            xs = [tr.special_value(), *tr.theta.coeffs, GroupRingElem.zero(group)]
            xs += [GroupRingElem.from_mapping(group, {g: rng.randrange(-p ** k, p ** k)
                                                      for g in group.elements()})
                   for _ in range(2)]
            for chi in conjugacy_orbit_reps(characters(delta), p):
                ring = chi_component_ring(chi, p, k, pgrp)
                ref = ReferenceChiComponentRing(p, k, ring.h, pgrp, ring.chi_order)
                assert ring.to_vec(ring.zero) == ref.to_vec(ref.zero)
                assert ring.to_vec(ring.one) == ref.to_vec(ref.one)
                imgs = []
                for x in xs:
                    a = chi_component(x, chi, ring, layer.delta_idx, layer.p_idx)
                    ra = reference_chi_component(ReferenceGroupRingElem(group, dict(x.items())),
                                                 chi, ref, layer.delta_idx, layer.p_idx)
                    assert ring.to_vec(a) == ref.to_vec(ra)
                    assert ring.from_vec(ref.to_vec(ra)) == a
                    imgs.append((a, ra))
                for (a, ra), (b, rb) in zip(imgs, imgs[1:] + imgs[:1]):
                    for op in ("add", "sub", "mul"):
                        assert ring.to_vec(getattr(ring, op)(a, b)) == \
                            ref.to_vec(getattr(ref, op)(ra, rb))
                    assert ring.to_vec(ring.neg(a)) == ref.to_vec(ref.neg(ra))
                    c = rng.randrange(-100, 100)
                    assert ring.to_vec(ring.scale_int(c, a)) == ref.to_vec(ref.scale_int(c, ra))
                    assert ring.equal(a, b) == ref.equal(ra, rb)

