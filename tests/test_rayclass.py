import itertools

import pytest

from ctower.abelian import AbelianGroup
from ctower.ffpoly import FinitePlace, FqField, FqPoly, INFINITY, ResidueRing, irreducibles_of_degree
from ctower.rayclass import (
    RamifiedPlaceError,
    TowerConfig,
    TrivialLayer,
    build_layer,
    default_s,
    layer_projection,
    relative_decomposition_group,
)

F2 = FqField(2)
F3 = FqField(3)


def poly(field, *coeffs):
    return FqPoly(field, coeffs)


def flagship_q3(sigma_gen=(0, 1)):
    p = FinitePlace(poly(F3, 1, 0, 1))
    sigma = frozenset({FinitePlace(FqPoly(F3, sigma_gen))})
    return TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p), sigma)


def flagship_q2():
    p = FinitePlace(poly(F2, 1, 1, 1))
    sigma = frozenset({FinitePlace(poly(F2, 0, 1))})
    return TowerConfig(F2, FqPoly.one(F2), p, default_s(FqPoly.one(F2), p), sigma)


def conductor_config_q3():
    # f = theta, p = theta^2+1, S = {theta, p}, Sigma = {theta+1}
    p = FinitePlace(poly(F3, 1, 0, 1))
    f = poly(F3, 0, 1)
    sigma = frozenset({FinitePlace(poly(F3, 1, 1))})
    return TowerConfig(F3, f, p, default_s(f, p), sigma)


class TestAbelianGroup:
    def test_ops(self):
        g = AbelianGroup((4, 3))
        assert g.order == 12 and g.exponent == 12
        a = (3, 2)
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.pow((1, 1), 7) == (3, 1)
        assert g.element_order((2, 0)) == 2

    def test_p_partition(self):
        g = AbelianGroup((4, 3, 3))
        delta, ppart = g.p_partition(3)
        assert delta == (0,) and ppart == (1, 2)

    def test_subgroup_span(self):
        g = AbelianGroup((4,))
        assert len(g.subgroup_span([(2,)])) == 2


class TestConfigValidation:
    def test_sigma_disjoint(self):
        p = FinitePlace(poly(F3, 1, 0, 1))
        with pytest.raises(ValueError):
            TowerConfig(F3, FqPoly.one(F3), p, frozenset({p}), frozenset({p}))

    def test_sigma_nonempty(self):
        p = FinitePlace(poly(F3, 1, 0, 1))
        with pytest.raises(ValueError):
            TowerConfig(F3, FqPoly.one(F3), p, frozenset({p}), frozenset())

    def test_p_divides_f_rejected(self):
        p = FinitePlace(poly(F3, 1, 0, 1))
        with pytest.raises(ValueError):
            TowerConfig(F3, poly(F3, 1, 0, 1), p, frozenset({p}),
                        frozenset({FinitePlace(poly(F3, 0, 1))}))

    def test_s_must_cover_ramification(self):
        p = FinitePlace(poly(F3, 1, 0, 1))
        f = poly(F3, 0, 1)
        with pytest.raises(ValueError):
            TowerConfig(F3, f, p, frozenset({p}), frozenset({FinitePlace(poly(F3, 1, 1))}))


class TestLayerStructure:
    def test_q3_flagship_layer0(self):
        layer = build_layer(flagship_q3(), 0)
        assert layer.order == 4
        assert tuple(sorted(layer.group.orders)) == (4,)

    def test_q3_flagship_layer1(self):
        layer = build_layer(flagship_q3(), 1)
        assert layer.order == 36
        # oracle: unit group is Z/8 x (Z/3)^2, quotient by F_3^x leaves Z/4 x (Z/3)^2
        assert sorted(layer.group.orders) == [3, 3, 4]

    def test_q2_flagship_layer0(self):
        layer = build_layer(flagship_q2(), 0)
        assert layer.order == 3
        assert tuple(layer.group.orders) == (3,)

    def test_order_formula(self):
        # |G_n| = Phi(f p^(n+1)) / (q-1) on several configurations
        for cfg, n in [(flagship_q3(), 0), (flagship_q3(), 1),
                       (flagship_q2(), 0), (flagship_q2(), 1),
                       (conductor_config_q3(), 0)]:
            layer = build_layer(cfg, n)
            phi = ResidueRing(cfg.modulus(n)).unit_count()
            assert layer.order == phi // (cfg.field.q - 1)

    def test_structure_oracle_by_torsion_counts(self):
        # d-torsion counts of the layer group vs brute-force in the quotient
        from math import gcd
        layer = build_layer(flagship_q3(), 1)
        ring = layer.ring
        reps = {layer._canon(u).coeffs for u in ring.units()}
        for d in (2, 3, 4, 6, 9, 12, 36):
            brute = 0
            for key in reps:
                u = FqPoly(F3, key)
                if layer._canon(ring.pow(u, d)).coeffs == layer._canon(FqPoly.one(F3)).coeffs:
                    brute += 1
            struct = 1
            for o in layer.group.orders:
                struct *= gcd(o, d)
            assert brute == struct

    def test_delta_part_stable(self):
        cfg = flagship_q3()
        l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
        d0 = sorted(l0.group.orders[i] for i in l0.delta_idx)
        d1 = sorted(l1.group.orders[i] for i in l1.delta_idx)
        assert d0 == d1 == [4]

    def test_kernel_size_per_step(self):
        # |G_{n+1}| / |G_n| = q^(d_p) beyond the first layer
        for cfg in (flagship_q3(), flagship_q2()):
            l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
            q, dp = cfg.field.q, cfg.p_place.degree
            assert l1.order == l0.order * q ** dp


class TestFrobenius:
    def test_infinity_identity(self):
        layer = build_layer(flagship_q3(), 0)
        assert layer.frobenius(INFINITY) == layer.group.identity

    def test_theta_has_order_two(self):
        # theta^2 = -1 in F_9, so the class of theta has order 2 in G_0
        layer = build_layer(flagship_q3(), 0)
        fr = layer.frobenius(FinitePlace(poly(F3, 0, 1)))
        assert layer.group.element_order(fr) == 2

    def test_kernel_of_reciprocity(self):
        # v with monic generator congruent to a constant mod m: identity class
        layer = build_layer(flagship_q3(), 0)
        # theta^4 + theta^2 + 1 + (theta^2+1) adjustments: find an irreducible
        # congruent to 1 or 2 mod theta^2+1
        found = None
        for d in range(1, 5):
            for pl in irreducibles_of_degree(F3, d):
                if pl.gen == layer.cfg.p_place.gen:
                    continue
                r = pl.gen % layer.modulus
                if r.is_constant() and not r.is_zero():
                    found = pl
                    break
            if found:
                break
        assert found is not None
        assert layer.frobenius(found) == layer.group.identity

    def test_multiplicative(self):
        layer = build_layer(flagship_q3(), 1)
        a, b = poly(F3, 0, 1), poly(F3, 1, 1)
        ca, cb = layer.class_of(a), layer.class_of(b)
        assert layer.class_of(a * b) == layer.group.mul(ca, cb)

    def test_ramified_refused(self):
        layer = build_layer(flagship_q3(), 0)
        with pytest.raises(RamifiedPlaceError):
            layer.frobenius(layer.cfg.p_place)


class TestDecomposition:
    def test_p_totally_ramified_flagship(self):
        for cfg in (flagship_q3(), flagship_q2()):
            for n in (0, 1):
                layer = build_layer(cfg, n)
                e, f, g = layer.ramification_data(cfg.p_place)
                assert e == layer.order and f == 1 and g == 1

    def test_infinity_splits(self):
        layer = build_layer(flagship_q3(), 0)
        e, f, g = layer.ramification_data(INFINITY)
        assert (e, f, g) == (1, 1, layer.order)

    def test_conductor_layer_counts(self):
        # f=theta, p=theta^2+1, q=3: |G_0| = Phi(theta*p)/2 = (2*8)/2 = 8
        cfg = conductor_config_q3()
        layer = build_layer(cfg, 0)
        assert layer.order == 8
        v = FinitePlace(poly(F3, 0, 1))
        e, f, g = layer.ramification_data(v)
        assert e == 2 and f == 2 and g == 2
        ep, fp, gp = layer.ramification_data(cfg.p_place)
        assert ep == 8 and fp == 1 and gp == 1  # H_theta = k, so p is totally ramified

    def test_exceptional_table_flagship(self):
        layer = build_layer(flagship_q3(), 0)
        table = layer.exceptional_table()
        assert table[layer.cfg.p_place] == [(2, 1)]
        assert table[INFINITY] == [(1, 4)]


def _cache_layers():
    return [(flagship_q3, n) for n in (0, 1)] + [(flagship_q2, n) for n in (0, 1, 2)]


def _places(layer):
    """S, infinity and the unramified places of degree <= 2."""
    F = layer.cfg.field
    unramified = [pl for d in (1, 2) for pl in irreducibles_of_degree(F, d)
                  if pl.gen.gcd(layer.modulus).is_one()]
    return sorted(layer.cfg.S, key=lambda v: v.gen.sort_key()) + [INFINITY] + unramified


class TestDecompositionCache:
    @pytest.mark.parametrize("make_cfg,n", _cache_layers())
    def test_repeat_call_returns_same_object(self, make_cfg, n):
        layer = build_layer(make_cfg(), n)
        for v in _places(layer):
            dec, inertia = layer.decomposition_group(v), layer.inertia_group(v)
            assert isinstance(dec, frozenset) and isinstance(inertia, frozenset)
            assert layer.decomposition_group(v) is dec
            assert layer.inertia_group(v) is inertia

    @pytest.mark.parametrize("make_cfg,n", _cache_layers())
    def test_query_order_does_not_matter(self, make_cfg, n):
        cfg = make_cfg()
        forward, backward = build_layer(cfg, n), build_layer(cfg, n)
        places = _places(forward)
        for v in reversed(places):
            backward.decomposition_group(v)
        for v in places:
            assert forward.decomposition_group(v) == backward.decomposition_group(v)
            assert forward.inertia_group(v) == backward.inertia_group(v)

    @pytest.mark.parametrize("make_cfg,n", _cache_layers())
    def test_unramified_order_is_frobenius_order(self, make_cfg, n):
        layer = build_layer(make_cfg(), n)
        for v in _places(layer):
            if v is INFINITY or v in layer.cfg.S:
                continue
            assert len(layer.decomposition_group(v)) == layer.group.element_order(layer.frobenius(v))
            assert layer.inertia_group(v) == {layer.group.identity}

    @pytest.mark.parametrize("make_cfg,n", _cache_layers())
    def test_p_decomposition_is_whole_group_for_trivial_f(self, make_cfg, n):
        layer = build_layer(make_cfg(), n)
        p = layer.cfg.p_place
        assert layer.cfg.f.is_one()
        assert layer.decomposition_group(p) == frozenset(layer.group.elements())
        assert layer.decomposition_group(p) == layer.inertia_group(p)


def _span_layers():
    return ([(flagship_q3, n) for n in (0, 1, 2)] + [(flagship_q2, n) for n in range(4)]
            + [(conductor_config_q3, n) for n in (0, 1)])


@pytest.mark.parametrize("make_cfg,n", _span_layers())
def test_decomposition_cosets_match_the_span(make_cfg, n):
    # D_v as the cosets of I_v by powers of the Frobenius lift is the
    # subgroup that I_v and the lift generate
    layer = build_layer(make_cfg(), n)
    for v in layer.finite_s():
        gens = set(layer.inertia_group(v)) | {layer.frobenius_lift(v)}
        assert layer.decomposition_group(v) == layer.group.subgroup_span(gens)


class TestProjection:
    def test_flagship_projection(self):
        cfg = flagship_q3()
        l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
        lm = layer_projection(l1, l0)
        kernel = [e for e in l1.group.elements() if lm.apply(e) == l0.group.identity]
        assert len(kernel) == 9

    def test_identity_projection(self):
        cfg = flagship_q2()
        l0 = build_layer(cfg, 0)
        lm = layer_projection(l0, l0)
        for e in l0.group.elements():
            assert lm.apply(e) == e

    def test_frobenius_compatibility_degree_le_4(self):
        cfg = flagship_q2()
        l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
        lm = layer_projection(l1, l0)
        for d in range(1, 5):
            for pl in irreducibles_of_degree(F2, d):
                if not pl.gen.gcd(l1.modulus).is_one():
                    continue
                assert lm.apply(l1.frobenius(pl)) == l0.frobenius(pl)


class TestRelativeDecomposition:
    def test_p_branch_full_relative_group(self):
        cfg = flagship_q3()
        out = relative_decomposition_group(cfg, 0, 1, cfg.p_place)
        # p is totally ramified, so G_p(L_1/L_0) is all of Gal(L_1/L_0)
        assert len(out["subgroup"]) == 9

    def test_f_branch_example(self):
        cfg = conductor_config_q3()
        v = FinitePlace(poly(F3, 0, 1))
        out = relative_decomposition_group(cfg, 0, 1, v)
        # x_v = theta^t with theta^t = c mod p^(n+1): the class of theta in
        # (A/p)^x/F_3^x has order 2 (theta^2 = -1 = const)
        assert out["t"] == 2
        assert out["constant"] == 2
        # invariant: |G_v(L_1/L_0)| = |D_v(L_1)| / |D_v(L_0)|
        l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
        d1 = len(l1.decomposition_group(v))
        d0 = len(l0.decomposition_group(v))
        assert len(out["subgroup"]) == d1 // d0

    def test_compatible_under_projection(self):
        # images of relative generators at consecutive layers are compatible
        cfg = conductor_config_q3()
        v = FinitePlace(poly(F3, 0, 1))
        out01 = relative_decomposition_group(cfg, 0, 1, v)
        l0 = build_layer(cfg, 0)
        lm = layer_projection(out01["layer"], l0)
        assert lm.apply(out01["image"]) == l0.group.identity

    def test_infinite_place_rejected(self):
        with pytest.raises(ValueError):
            relative_decomposition_group(flagship_q3(), 0, 1, INFINITY)


class TestTrivialLayer:
    def test_basic(self):
        t = TrivialLayer(F2, {INFINITY, FinitePlace(poly(F2, 0, 1))},
                         {FinitePlace(poly(F2, 1, 1))})
        assert t.order == 1
        assert t.frobenius(INFINITY) == ()

    def test_layer_interface(self):
        # the trivial layer reads like a tower layer of conductor 1
        v0, v1 = FinitePlace(poly(F3, 0, 1)), FinitePlace(poly(F3, 1, 1))
        t = TrivialLayer(F3, {INFINITY, v1, v0}, {FinitePlace(poly(F3, 1, 0, 1))})
        assert t.field is F3 and t.modulus.is_one()
        assert t.finite_s() == [v0, v1] and t.infinity_in_s()
        assert t.class_of(poly(F3, 2, 1)) == ()
        layer = build_layer(flagship_q3(), 0)
        assert (layer.field, layer.S, layer.sigma) == (F3, layer.cfg.S, layer.cfg.sigma)
        assert layer.finite_s() == [layer.cfg.p_place] and not layer.infinity_in_s()


def _canon_layers():
    cfgs = [(flagship_q3(), (0, 1)), (flagship_q2(), (0, 1, 2, 3))]
    for F, ns in ((FqField(2, 2), (0, 1)), (FqField(5), (0,))):
        p = next(iter(irreducibles_of_degree(F, 2)))
        sigma = frozenset({FinitePlace(poly(F, 0, 1))})
        cfgs.append((TowerConfig(F, FqPoly.one(F), p, default_s(FqPoly.one(F), p), sigma), ns))
    return [pytest.param(cfg, n, id=f"q{cfg.field.q}-{n}") for cfg, ns in cfgs for n in ns]


class TestCanonicalRepresentative:
    @pytest.mark.parametrize("cfg,n", _canon_layers())
    def test_closed_form_is_least_multiple(self, cfg, n):
        # reference: the least sort_key over all F_q^x multiples, reduced
        layer = build_layer(cfg, n)
        F, ring = cfg.field, layer.ring
        for u in ring.units():
            multiples = [ring.reduce(u * FqPoly.constant(F, c)) for c in range(1, F.q)]
            assert layer._canon(u) == min(multiples, key=FqPoly.sort_key)

    @pytest.mark.parametrize("make_cfg,n", [(flagship_q3, 1), (conductor_config_q3, 0),
                                            (flagship_q2, 2)])
    def test_coprime_to_modulus_is_gcd_one(self, make_cfg, n):
        layer = build_layer(make_cfg(), n)
        F = layer.field
        for d in range(0, 5):
            for tail in itertools.product(range(F.q), repeat=d):
                g = FqPoly(F, tail + (1,))
                assert layer.coprime_to_modulus(g) == g.gcd(layer.modulus).is_one()


class TestSerialization:
    def test_layer_dump(self):
        layer = build_layer(flagship_q2(), 0)
        blob = layer.to_json()
        assert blob["order"] == 3
        assert blob["generator_orders"] == [3]
        assert blob["frobenius_table"]
