import itertools
import json
import random

import pytest

from ctower.abelian import AbelianGroup
from ctower.grouprings import (
    Character,
    ChiComponentRing,
    CyclotomicRing,
    FittingIdeal,
    GroupRingElem,
    PresentationMatrix,
    ThetaPoly,
    TruncPolyRing,
    ZpkGroupRing,
    ZpkRing,
    characters,
    chi_component,
    chi_component_ring,
    conjugacy_orbit_reps,
    cyclotomic_polynomial,
    delta_idempotent,
    fitting_ideal,
    ideal_equal,
    is_unit,
    invert_one_plus_nilpotent_u,
    module_order_exponent,
    mult_matrix,
    nzd_test_polynomial,
    sharp_element,
    sharp_presentation,
)
from zpk_reference import (
    ReferenceGroupRingElem,
    ReferenceZpkGroupRing,
    reference_det,
    reference_fitting_generators,
    reference_mult_matrix_rows,
)

C4 = AbelianGroup((4,))
C2 = AbelianGroup((2,))
C3 = AbelianGroup((3,))
C4xC9 = AbelianGroup((4, 9))


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)

    def test_zeta_relations(self):
        ring = CyclotomicRing(12)
        z = ring.zeta_pow(1)
        acc = ring.one
        for _ in range(12):
            acc = ring.mul(acc, z)
        assert acc == ring.one
        assert ring.zeta_pow(6) == ring.neg(ring.one)

    def test_sum_of_all_roots(self):
        # sum over j of zeta_4^j = 0
        ring = CyclotomicRing(4)
        acc = ring.zero
        for j in range(4):
            acc = ring.add(acc, ring.zeta_pow(j))
        assert ring.is_zero(acc)


class TestCharacters:
    def test_c4_table(self):
        chars = characters(C4)
        assert len(chars) == 4
        ring = CyclotomicRing(4)
        # values live in Z[x]/(x^2+1); the faithful characters take value zeta_4
        faithful = [c for c in chars if c.order == 4]
        assert len(faithful) == 2
        assert faithful[0].value((1,)) in (ring.zeta_pow(1), ring.zeta_pow(3))

    def test_trivial_group(self):
        chars = characters(AbelianGroup(()))
        assert len(chars) == 1 and chars[0].is_trivial()

    def test_orthogonality_c4xc9(self):
        # exhaustive orthogonality on the q=3 flagship layer-1-like group
        chars = characters(C4xC9)
        assert len(chars) == 36
        ring = CyclotomicRing(36)
        rng = random.Random(1)
        pairs = [(rng.choice(chars), rng.choice(chars)) for _ in range(12)]
        pairs += [(c, c) for c in rng.sample(chars, 4)]
        for chi, psi in pairs:
            acc = ring.zero
            for g in C4xC9.elements():
                acc = ring.add(acc, ring.mul(chi.value(g), psi.value(C4xC9.inv(g))))
            if chi.exps == psi.exps:
                assert acc == ring.from_int(36)
            else:
                assert ring.is_zero(acc)

    def test_multiplicativity(self):
        chars = characters(C4xC9)
        ring = CyclotomicRing(36)
        chi = chars[7]
        for a, b in itertools.islice(itertools.product(C4xC9.elements(), repeat=2), 50):
            assert chi.value(C4xC9.mul(a, b)) == ring.mul(chi.value(a), chi.value(b))

    def test_restriction_to_subproduct(self):
        big = AbelianGroup((4, 3))
        chi = characters(big)[7]
        res = chi.restrict((0,))
        assert res.group.orders == (4,)
        assert res.exps == (chi.exps[0],)
        # zeta_12^(chi log on (e,0)) must equal zeta_4^(restricted log on (e,))
        for e in range(4):
            assert chi.log_value((e, 0)) == 3 * res.log_value((e,)) % 12

    def test_orbit_reps_c4_p3(self):
        # Galois orbits of C4-characters over Q_3: chi ~ chi^3 pairs the two
        # faithful characters; four characters -> three orbits
        reps = conjugacy_orbit_reps(characters(C4), 3)
        assert len(reps) == 3


class TestGroupRing:
    def test_augmentation_morphism(self):
        rng = random.Random(3)
        for _ in range(10):
            a = GroupRingElem.from_mapping(C4, {(i,): rng.randrange(-5, 6) for i in range(4)})
            b = GroupRingElem.from_mapping(C4, {(i,): rng.randrange(-5, 6) for i in range(4)})
            assert (a * b).augmentation() == a.augmentation() * b.augmentation()
            assert (a + b).augmentation() == a.augmentation() + b.augmentation()

    def test_apply_character_is_ring_hom(self):
        chars = characters(C4)
        chi = chars[1]
        ring = chi.ring
        rng = random.Random(4)
        for _ in range(10):
            a = GroupRingElem.from_mapping(C4, {(i,): rng.randrange(-3, 4) for i in range(4)})
            b = GroupRingElem.from_mapping(C4, {(i,): rng.randrange(-3, 4) for i in range(4)})
            assert chi.ring.mul(a.apply_character(chi), b.apply_character(chi)) == \
                (a * b).apply_character(chi)
        assert GroupRingElem.one(C4).apply_character(chi) == ring.one

    def test_theta_poly_norm(self):
        # norm of (1 - g u) over C2 = (1-u)(1+u) = 1 - u^2
        g = GroupRingElem.basis(C2, (1,))
        tp = ThetaPoly(C2, [GroupRingElem.one(C2), -g])
        assert tp.norm_poly() == [1, 0, -1]

    def test_evaluate_at_one(self):
        tp = ThetaPoly(C2, [GroupRingElem.one(C2), GroupRingElem.basis(C2, (1,))])
        val = tp.evaluate_at_one()
        assert dict(val.items()) == {(0,): 1, (1,): 1}


class TestChiComponent:
    def test_identity_maps_to_one(self):
        delta_idx, p_idx = (0,), (1,)
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((9,))
        big = AbelianGroup((4, 9))
        for chi in characters(delta):
            ring = chi_component_ring(chi, 3, 6, pgrp)
            img = chi_component(GroupRingElem.one(big), chi, ring, delta_idx, p_idx)
            assert ring.equal(img, ring.one)

    def test_flagship_component_shapes(self):
        # q=3 flagship: Delta = C4, p = 3: Phi_4 = x^2+1 irreducible mod 3:
        # components are Z/3^k (chi trivial / quadratic) and Z/3^k[x]/(x^2+1)
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup(())
        reps = conjugacy_orbit_reps(characters(delta), 3)
        degs = sorted(chi_component_ring(c, 3, 8, pgrp).deg for c in reps)
        assert degs == [1, 1, 2]

    def test_ring_morphism(self):
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((3,))
        big = AbelianGroup((4, 3))
        chi = [c for c in characters(delta) if c.order == 4][0]
        ring = chi_component_ring(chi, 3, 6, pgrp)
        rng = random.Random(7)
        for _ in range(10):
            a = GroupRingElem.from_mapping(big, {k: rng.randrange(9) for k in big.elements()})
            b = GroupRingElem.from_mapping(big, {k: rng.randrange(9) for k in big.elements()})
            pa = chi_component(a, chi, ring, (0,), (1,))
            pb = chi_component(b, chi, ring, (0,), (1,))
            pab = chi_component(a * b, chi, ring, (0,), (1,))
            assert ring.equal(ring.mul(pa, pb), pab)

    def test_components_jointly_injective(self):
        # direct sum over orbit reps is injective at precision k
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((3,))
        big = AbelianGroup((4, 3))
        p, k = 3, 5
        reps = conjugacy_orbit_reps(characters(delta), p)
        rings = [chi_component_ring(c, p, k, pgrp) for c in reps]
        rng = random.Random(8)
        for _ in range(20):
            a = GroupRingElem.from_mapping(big, {kk: rng.randrange(3 ** k) for kk in big.elements()})
            if all(v % 3 ** k == 0 for v in a.coeffs):
                continue
            imgs = [chi_component(a, c, r, (0,), (1,)) for c, r in zip(reps, rings)]
            assert any(not r.equal(img, r.zero) for img, r in zip(imgs, rings))

    def test_components_reflect_units(self):
        # x is a unit iff every chi-component is a unit
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((3,))
        big = AbelianGroup((4, 3))
        p, k = 3, 4
        ring_big = ZpkGroupRing(p, k, big)
        reps = conjugacy_orbit_reps(characters(delta), p)
        rings = [chi_component_ring(c, p, k, pgrp) for c in reps]
        rng = random.Random(31)
        for _ in range(15):
            a = GroupRingElem.from_mapping(big, {kk: rng.randrange(3 ** k) for kk in big.elements()})
            full_unit, _ = is_unit(ring_big.from_group_ring(a), ring_big)
            comp_units = all(
                is_unit(chi_component(a, c, r, (0,), (1,)), r)[0]
                for c, r in zip(reps, rings))
            assert full_unit == comp_units

    def test_idempotent_law(self):
        # e_chi * x has chi-component = component of x, others vanish:
        # spot-check via the Delta-idempotent for the trivial character
        big = AbelianGroup((4,))
        p, k = 3, 6
        e = delta_idempotent(big, (0,), p, k)
        chars_d = characters(big)
        triv = [c for c in chars_d if c.is_trivial()][0]
        nontriv = [c for c in chars_d if c.order == 4][0]
        ring_t = chi_component_ring(triv, p, k, AbelianGroup(()))
        ring_n = chi_component_ring(nontriv, p, k, AbelianGroup(()))
        x = GroupRingElem.from_mapping(big, {(0,): 5, (1,): 7, (2,): 1, (3,): 2})
        ex = (e * x).reduce_mod(p ** k)
        assert ring_t.equal(chi_component(ex, triv, ring_t, (0,), ()),
                            chi_component(x, triv, ring_t, (0,), ()))
        assert ring_n.equal(chi_component(ex, nontriv, ring_n, (0,), ()), ring_n.zero)


class TestUnits:
    def test_geometric_series_inverse(self):
        # 1 - sigma q u in Z/p^6[C4][u]/(u^6), q = 0 mod p: unit via the
        # truncated geometric series
        p, k, M = 3, 6, 6
        base = ZpkGroupRing(p, k, C4)
        ring = TruncPolyRing(base, M)
        sigma = base.from_mapping({(1,): 1})
        x = ring.from_list([base.one, base.scale_int(-3, sigma)])
        ok, inv = invert_one_plus_nilpotent_u(ring, x)
        assert ok
        assert ring.equal(ring.mul(x, inv), ring.one)
        ok2, inv2 = is_unit(x, ring)
        assert ok2 and ring.equal(inv2, inv)

    def test_p_is_not_a_unit(self):
        ring = ZpkRing(3, 6)
        ok, _ = is_unit(3, ring)
        assert not ok

    def test_matrix_lifting_lemma(self):
        # units lift along Z/p^8[G] -> Z/p^4[G] and conversely (2x2 random)
        p = 3
        hi = ZpkGroupRing(p, 8, C4)
        lo = ZpkGroupRing(p, 4, C4)
        rng = random.Random(11)

        def reduce_elem(x):
            return lo.from_vec(hi.to_vec(x))

        for _ in range(200):
            mat_hi = [[hi.from_mapping({kk: rng.randrange(hi.pk) for kk in C4.elements()})
                       for _ in range(2)] for _ in range(2)]
            det_hi = hi.sub(hi.mul(mat_hi[0][0], mat_hi[1][1]),
                            hi.mul(mat_hi[0][1], mat_hi[1][0]))
            det_lo = lo.sub(lo.mul(reduce_elem(mat_hi[0][0]), reduce_elem(mat_hi[1][1])),
                            lo.mul(reduce_elem(mat_hi[0][1]), reduce_elem(mat_hi[1][0])))
            assert is_unit(det_hi, hi)[0] == is_unit(det_lo, lo)[0]


class TestNzd:
    def test_gamma_minus_one(self):
        # gamma - 1 over Z/3^4[C4], M=2: leading coefficient is a unit (the
        # power-series nzd hypothesis holds) but the finite quotient has an
        # annihilator (the norm element): the certificate separates the two
        one = GroupRingElem.one(C4)
        cert = nzd_test_polynomial([-(one), one], 3, 4, 2, C4)
        assert cert.leading_coeff_unit
        assert not cert.truncated_annihilator_trivial
        assert cert.annihilator_witness is not None

    def test_one_minus_gamma_a_unit_coeff(self):
        # f = 1 - gamma a with a a unit: hypothesis holds
        a = GroupRingElem.basis(C4, (1,))
        cert = nzd_test_polynomial([GroupRingElem.one(C4), -a], 3, 4, 2, C4)
        assert cert.leading_coeff_unit

    def test_random_monic_cubic_over_c3(self):
        rng = random.Random(13)
        grp = C3
        for _ in range(5):
            coeffs = [GroupRingElem.from_mapping(grp, {k: rng.randrange(32) for k in grp.elements()})
                      for _ in range(3)]
            coeffs.append(GroupRingElem.one(grp))
            cert = nzd_test_polynomial(coeffs, 2, 5, 2, grp)
            assert cert.leading_coeff_unit
            assert cert.truncation_M == 2 and cert.precision_k == 5


class TestFitting:
    def test_diagonal(self):
        ring = ZpkRing(3, 10)
        pm = PresentationMatrix(ring, [[3, 0], [0, 9]])
        fi = fitting_ideal(pm)
        assert ideal_equal(fi.generators, [27], ring)

    def test_trivial_module_over_zc2(self):
        # 1x1 presentation (sigma - 1) of Z over Z[C2]
        ring = ZpkGroupRing(2, 6, C2)
        sigma_minus_1 = ring.sub(ring.from_mapping({(1,): 1}), ring.one)
        fi = fitting_ideal(PresentationMatrix(ring, [[sigma_minus_1]]))
        assert len(fi.generators) == 1
        assert ring.equal(fi.generators[0], sigma_minus_1)

    def test_deficient(self):
        ring = ZpkRing(3, 4)
        fi = fitting_ideal(PresentationMatrix(ring, [[1, 2]]))
        assert fi.deficient and fi.generators == []

    def test_presentation_invariance_random(self):
        # column operations give the same ideal (3x3 over Z/3^6[C4])
        p, k = 3, 6
        ring = ZpkGroupRing(p, k, C4)
        rng = random.Random(17)
        for _ in range(25):
            rows = [[ring.from_mapping({kk: rng.randrange(ring.pk) for kk in C4.elements()})
                     for _ in range(3)] for _ in range(3)]
            pm = PresentationMatrix(ring, rows)
            # random invertible column operation: add unit-multiple of one
            # column to another, permute columns
            perm = rng.sample(range(3), 3)
            c_from, c_to = rng.sample(range(3), 2)
            mult = ring.from_mapping({(rng.randrange(4),): 1 + p * rng.randrange(9)})
            rows2 = []
            for row in rows:
                row2 = list(row)
                row2[c_to] = ring.add(row2[c_to], ring.mul(mult, row2[c_from]))
                rows2.append([row2[perm[j]] for j in range(3)])
            fi1 = fitting_ideal(pm)
            fi2 = fitting_ideal(PresentationMatrix(ring, rows2))
            assert ideal_equal(fi1.generators, fi2.generators, ring)

    def test_direct_sum_multiplicativity(self):
        # Fitt(M + N) = Fitt(M) * Fitt(N) for block-diagonal presentations
        p, k = 3, 5
        ring = ZpkGroupRing(p, k, C2)
        rng = random.Random(19)
        for _ in range(20):
            a = [[ring.from_mapping({kk: rng.randrange(ring.pk) for kk in C2.elements()})]]
            b = [[ring.from_mapping({kk: rng.randrange(ring.pk) for kk in C2.elements()})]]
            block = [[a[0][0], ring.zero], [ring.zero, b[0][0]]]
            fi_sum = fitting_ideal(PresentationMatrix(ring, block))
            fa = fitting_ideal(PresentationMatrix(ring, a))
            fb = fitting_ideal(PresentationMatrix(ring, b))
            prod = [ring.mul(x, y) for x in fa.generators for y in fb.generators]
            assert ideal_equal(fi_sum.generators, prod, ring)

    def test_base_change_to_quotient_group(self):
        # image of Fitt under Z/p^k[G] ->> Z/p^k[G/H] equals Fitt of the image
        p, k = 3, 5
        big = AbelianGroup((4,))
        small = AbelianGroup((2,))
        ring_b = ZpkGroupRing(p, k, big)
        ring_s = ZpkGroupRing(p, k, small)

        def push(x):
            out = {}
            for kk, v in zip(ring_b.elems, x):
                key = (kk[0] % 2,)
                out[key] = out.get(key, 0) + v
            return ring_s.from_mapping(out)

        rng = random.Random(23)
        for _ in range(20):
            rows = [[ring_b.from_mapping({kk: rng.randrange(ring_b.pk) for kk in big.elements()})
                     for _ in range(2)] for _ in range(2)]
            fi_b = fitting_ideal(PresentationMatrix(ring_b, rows))
            rows_s = [[push(e) for e in row] for row in rows]
            fi_s = fitting_ideal(PresentationMatrix(ring_s, rows_s))
            assert ideal_equal([push(g) for g in fi_b.generators], fi_s.generators, ring_s)


class TestIdealEqual:
    def test_unit_factor(self):
        p, k = 3, 4
        ring = ZpkGroupRing(p, k, C2)
        g = ring.from_mapping({(1,): 1})
        p_elem = ring.from_mapping({(0,): 3})
        x = ring.add(p_elem, ring.zero)             # (p)
        y = ring.add(p_elem, ring.scale_int(9, g))  # p + p^2 g = p(1 + p g)
        assert ideal_equal([x], [y], ring)

    def test_p_vs_p_squared(self):
        ring = ZpkRing(3, 4)
        assert not ideal_equal([3], [9], ring)

    def test_scaling_by_unit(self):
        ring = ZpkRing(5, 4)
        assert ideal_equal([10], [30], ring)  # 3 is a unit mod 5^4


class TestModulesAndSharp:
    def test_module_order_cyclic(self):
        # Z/p^k[C2]/(p^2) has order p^(2*2) at k >= 2
        ring = ZpkGroupRing(3, 6, C2)
        pm = PresentationMatrix(ring, [[ring.scale_int(9, ring.one)]])
        assert module_order_exponent(pm) == 4

    def test_sharp_kills_trivial_action_module(self):
        # Z/p^k[G]/(d, g - 1 for all g) is Z/d with trivial action;
        # its sharp part is 0 when p does not divide |Delta|
        p, k = 2, 8
        grp = AbelianGroup((3,))
        ring = ZpkGroupRing(p, k, grp)
        d = 2  # = |Z_p / d_S| for d_S = 2
        rows = [[ring.scale_int(d, ring.one)]]
        for g in grp.elements():
            if g != grp.identity:
                rows.append([ring.sub(ring.from_mapping({g: 1}), ring.one)])
        pm = PresentationMatrix(ring, rows)
        assert module_order_exponent(pm) == 1  # |Z/2| = 2^1
        sharp = sharp_presentation(pm, (0,))
        assert module_order_exponent(sharp) == 0

    def test_sharp_idempotent(self):
        # sharp of sharp = sharp on elements
        grp = AbelianGroup((3, 2))
        p, k = 2, 6  # wait: p must not divide |Delta|; Delta indices = (0,)
        x = GroupRingElem.from_mapping(grp, {kk: 5 for kk in grp.elements()})
        s1 = sharp_element(x, (0,), p, k)
        s2 = sharp_element(s1, (0,), p, k)
        assert s1.reduce_mod(p ** k).coeffs == s2.reduce_mod(p ** k).coeffs

    def test_sharp_exactness_orders(self):
        # 0 -> A' -> B -> C -> 0 with A' cyclic: the sharp orders multiply,
        # with |A'^sharp| computed from its own (independent) presentation
        from ctower.grouprings import cyclic_submodule_presentation, e_delta_presentation

        p, k = 3, 4
        grp = AbelianGroup((2, 3))  # Delta = C2, P = C3
        ring = ZpkGroupRing(p, k, grp)
        rng = random.Random(29)
        delta_idx = (0,)
        for _ in range(20):
            rows_b = [[ring.from_mapping({kk: rng.randrange(ring.pk) for kk in grp.elements()})
                       for _ in range(2)] for _ in range(2)]
            pm_b = PresentationMatrix(ring, rows_b)
            extra = [ring.from_mapping({kk: rng.randrange(ring.pk) for kk in grp.elements()})
                     for _ in range(2)]
            pm_c = PresentationMatrix(ring, rows_b + [extra])
            pm_a = cyclic_submodule_presentation(pm_b, extra)
            ob, oc, oa = (module_order_exponent(x) for x in (pm_b, pm_c, pm_a))
            assert oa == ob - oc  # exactness of orders
            sb = module_order_exponent(sharp_presentation(pm_b, delta_idx))
            sc = module_order_exponent(sharp_presentation(pm_c, delta_idx))
            sa = module_order_exponent(sharp_presentation(pm_a, delta_idx))
            assert sa == sb - sc  # sharp is exact
            eb = module_order_exponent(e_delta_presentation(pm_b, delta_idx))
            ec = module_order_exponent(e_delta_presentation(pm_c, delta_idx))
            ea = module_order_exponent(e_delta_presentation(pm_a, delta_idx))
            assert ea == eb - ec  # complementary idempotent part is exact too
            assert ob == sb + eb  # M = e_Delta M + M^sharp

    def test_expand_presentation_free_module(self):
        ring = ZpkGroupRing(2, 3, C2)
        pm = PresentationMatrix(ring, [])
        # free of rank 1 over Z/8[C2]: order 8^2
        assert module_order_exponent(PresentationMatrix(ring, [[ring.zero]])) == 6


class TestFlatRingReference:
    """The flat Z/p^k[G] agrees with the dict-keyed ReferenceZpkGroupRing."""

    GROUPS = ((), (2,), (4,), (4, 3), (2, 2, 2), (9,))

    @staticmethod
    def _elements(rng, group, pk):
        """Random Z[G] elements: dense, sparse, negative and zero mod p^k."""
        elems = list(group.elements())
        yield GroupRingElem.zero(group)
        yield GroupRingElem.one(group)
        for _ in range(4):
            yield GroupRingElem.from_mapping(group, {g: rng.randrange(-2 * pk, 2 * pk) for g in elems})
            yield GroupRingElem.from_mapping(group, {rng.choice(elems): rng.randrange(1, pk)})
            yield GroupRingElem.from_mapping(group, {g: pk * rng.randrange(-2, 3) for g in elems})

    @pytest.mark.parametrize("orders", GROUPS, ids=str)
    def test_operations(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(sum(orders) * 31 + len(orders))
        for p in (2, 3, 5):
            for k in (1, 4, 6):
                ring = ZpkGroupRing(p, k, group)
                ref = ReferenceZpkGroupRing(p, k, group)
                assert list(ring.elems) == ref.elems and ring.elems[0] == group.identity
                assert ring.to_vec(ring.zero) == ref.to_vec(ref.zero)
                assert ring.to_vec(ring.one) == ref.to_vec(ref.one)
                xs = list(self._elements(rng, group, ring.pk))
                for x in xs:
                    a, ra = ring.from_group_ring(x), ref.from_group_ring(x)
                    assert ring.to_vec(a) == ref.to_vec(ra)
                    assert ring.from_mapping(dict(x.items())) == a
                    assert ring.from_vec(ref.to_vec(ra)) == a
                    assert ring.to_vec(ring.neg(a)) == ref.to_vec(ref.neg(ra))
                    c = rng.choice((0, 1, -1, p, -p ** k, rng.randrange(-100, 100)))
                    assert ring.to_vec(ring.scale_int(c, a)) == ref.to_vec(ref.scale_int(c, ra))
                    y = rng.choice(xs)
                    b, rb = ring.from_group_ring(y), ref.from_group_ring(y)
                    before = (list(a), list(b))
                    for op in ("add", "sub", "mul"):
                        assert ring.to_vec(getattr(ring, op)(a, b)) == \
                            ref.to_vec(getattr(ref, op)(ra, rb))
                    assert (a, b) == before  # arguments are never mutated
                    assert ring.equal(ring.mul(a, b), ring.mul(b, a))
                    assert mult_matrix(ring, [[a, b], [b, ring.zero]]) == \
                        reference_mult_matrix_rows(ref, [[ra, rb], [rb, ref.zero]])
                self._assert_minors_agree(rng, ring, ref, xs)

    @staticmethod
    def _assert_minors_agree(rng, ring, ref, xs):
        """Determinants up to 3 x 3 and Fitting ideals of random presentations
        (square, tall, wide, empty) agree with the reference minors."""
        for n in range(4):
            for _ in range(3):
                mat = [[ring.from_group_ring(rng.choice(xs)) for _ in range(n)] for _ in range(n)]
                rmat = [[ref.from_vec(e) for e in row] for row in mat]
                assert ring.det(mat) == ref.to_vec(reference_det(ref, rmat))
        for nrows, ncols in ((1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (1, 2), (0, 0)):
            rows = [[ring.from_group_ring(rng.choice(xs)) for _ in range(ncols)]
                    for _ in range(nrows)]
            fi = fitting_ideal(PresentationMatrix(ring, rows))
            expected = reference_fitting_generators(ref, [[ref.from_vec(e) for e in row]
                                                          for row in rows])
            assert fi.deficient == (expected is None)
            assert fi.generators == [ref.to_vec(g) for g in expected or []]


def as_reference(x):
    """The dict-keyed copy of a flat Z[G] element."""
    return ReferenceGroupRingElem(x.group, dict(x.items()))


class TestGroupRingElemReference:
    """The flat Z[G] agrees with the dict-keyed ReferenceGroupRingElem."""

    GROUPS = ((), (2,), (4,), (4, 3), (2, 2, 2), (9,))

    @staticmethod
    def _elements(rng, group):
        """Random Z[G] elements: dense, sparse, single terms and zero."""
        elems = list(group.elements())
        yield GroupRingElem.zero(group)
        yield GroupRingElem.one(group)
        for _ in range(5):
            yield GroupRingElem.from_mapping(group, {g: rng.randrange(-50, 50) for g in elems})
            yield GroupRingElem.from_mapping(group, {g: rng.choice((0, 0, 0, 1, -3)) for g in elems})
            yield GroupRingElem.basis(group, rng.choice(elems))

    @staticmethod
    def _quotients(group):
        """(map on exponent tuples, target group): onto the trivial group, and
        onto the quotient by the subgroup of smallest-prime-order multiples."""
        orders = tuple(min(d for d in range(2, o + 1) if o % d == 0) for o in group.orders)
        return [(lambda g: (), AbelianGroup(())),
                (lambda g: tuple(e % o for e, o in zip(g, orders)), AbelianGroup(orders))]

    @pytest.mark.parametrize("orders", GROUPS, ids=str)
    def test_operations(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(sum(orders) * 17 + len(orders))
        xs = list(self._elements(rng, group))
        chars = characters(group)
        for x in xs:
            rx = as_reference(x)
            assert as_reference(GroupRingElem.from_mapping(group, rx.coeffs)) == rx
            y = rng.choice(xs)
            ry = as_reference(y)
            assert as_reference(x + y) == rx + ry
            assert as_reference(x - y) == rx - ry
            assert as_reference(x * y) == rx * ry
            assert as_reference(-x) == -rx
            c = rng.choice((0, 1, -1, 7, rng.randrange(-100, 100)))
            assert as_reference(x.scale(c)) == rx.scale(c)
            assert as_reference(x * c) == rx * c
            assert x.augmentation() == rx.augmentation()
            for chi in chars:
                assert x.apply_character(chi) == rx.apply_character(chi)
            for apply_map, target in self._quotients(group):
                assert as_reference(x.project(apply_map, target)) == rx.project(apply_map, target)
            for m in (2, 9, 3 ** 5):
                assert as_reference(x.reduce_mod(m)) == rx.reduce_mod(m)
            assert json.dumps(x.to_json()) == json.dumps(rx.to_json())
            assert repr(x) == repr(rx)
            assert (x == y) == (rx == ry)

