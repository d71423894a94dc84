import itertools
import json
import random
import types

import pytest

from ctower import grouprings
from ctower.abelian import TRIVIAL_GROUP, AbelianGroup
from ctower.cli import _theta_poly_human
from ctower.ffpoly import FqField, FqPoly, factor as fq_factor
from ctower.grouprings import (
    Character,
    CyclotomicRing,
    PolyGroupRing,
    PresentationMatrix,
    ZpkGroupRing,
    _index_map,
    _lifted_cyclotomic_factors,
    apply_character,
    character_norm,
    character_orbits,
    characters,
    chi_component,
    chi_component_ring,
    cyclotomic_polynomial,
    delta_idempotent,
    fitting_ideal,
    from_mapping,
    group_index,
    ideal_contains,
    ideal_equal,
    is_unit,
    module_order_exponent,
    mult_matrix,
    sharp_presentation,
    translation,
)
from ctower.lfun import ThetaResult
from ctower.snf import zpk_solve
from zpk_reference import (
    ReferenceGroupRingElem,
    ReferenceTruncPolyRing,
    ReferenceZpkGroupRing,
    ReferenceZpkRing,
    mul_table,
    reference_cofactor_det,
    reference_cyclotomic_reduce,
    reference_det,
    reference_fitting_generators,
    reference_hensel_lift_factors,
    reference_mult_matrix_rows,
    reference_poly_reduce,
    reference_product,
    reference_scale,
    reference_zeta_pow,
)

C4 = AbelianGroup((4,))
C2 = AbelianGroup((2,))
C4xC9 = AbelianGroup((4, 9))


def value(chi, g):
    """chi(g) in Z[x]/Phi_N: zeta_N to the log value of g."""
    return reference_zeta_pow(chi.ring, chi.log_value(g))


def chi_value(chi, x):
    """chi(x) for x in Z[G]: apply_character on the one-coefficient [x]."""
    return (apply_character(chi, [x]) or [chi.ring.zero])[0]


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)

    def test_zeta_relations(self):
        ring = CyclotomicRing(12)
        z = reference_zeta_pow(ring, 1)
        acc = ring.one
        for _ in range(12):
            acc = ring.mul(acc, z)
        assert acc == ring.one
        assert reference_zeta_pow(ring, 6) == reference_scale(-1, ring.one)

    def test_sum_of_all_roots(self):
        # sum over j of zeta_4^j = 0
        ring = CyclotomicRing(4)
        acc = ring.zero
        for j in range(4):
            acc = ring.add(acc, reference_zeta_pow(ring, j))
        assert ring.is_zero(acc)


    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_lifted_factor_is_the_first_of_all_lifted(self, p):
        # the one factor lifted against its cofactor is the first factor of
        # the lift of every factor of Phi_M mod p
        for M in range(1, 36):
            if M % p == 0:
                continue
            facs = [list(g.coeffs) for g, _ in
                    fq_factor(FqPoly(FqField(p), [c % p for c in cyclotomic_polynomial(M)]))]
            for k in (1, 2, 5, 24):
                first = reference_hensel_lift_factors(list(cyclotomic_polynomial(M)), facs, p, k)[0]
                assert _lifted_cyclotomic_factors(M, p, k) == tuple(first), (M, p, k)

    def test_reduce_beyond_the_table(self):
        # x^4 = 1 mod x^2 + 1; the table of x^j stopped at j = 3
        assert CyclotomicRing(4).reduce([0, 0, 0, 0, 1]) == (1, 0)
        with pytest.raises(KeyError):
            reference_cyclotomic_reduce(4, [0, 0, 0, 0, 1])

    @pytest.mark.parametrize("n", [4, 12, 36, 48, 64, 96, 192, 960])
    def test_reduce_and_mul_against_the_table(self, n):
        ring = CyclotomicRing(n)
        deg = ring.degree
        rng = random.Random(n)

        def coeff():
            return rng.choice((0, 0, 1, -1, rng.randrange(-10 ** 6, 10 ** 6)))

        # vectors up to the table's reach, max(2 deg - 1, n) entries
        for _ in range(200 if n < 960 else 40):
            vec = [coeff() for _ in range(rng.randrange(max(2 * deg - 1, n) + 1))]
            assert ring.reduce(vec) == reference_cyclotomic_reduce(n, vec)
            a, b = (tuple(coeff() for _ in range(deg)) for _ in range(2))
            out = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            assert ring.mul(a, b) == reference_cyclotomic_reduce(n, out)


class TestCharacters:
    def test_c4_table(self):
        chars = characters(C4)
        assert len(chars) == 4
        ring = CyclotomicRing(4)
        # values live in Z[x]/(x^2+1); the faithful characters take value zeta_4
        faithful = [c for c in chars if c.order == 4]
        assert len(faithful) == 2
        assert value(faithful[0], (1,)) in (reference_zeta_pow(ring, 1),
                                            reference_zeta_pow(ring, 3))

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
                acc = ring.add(acc, ring.mul(value(chi, g), value(psi, C4xC9.inv(g))))
            if chi.exps == psi.exps:
                assert acc == reference_scale(36, ring.one)
            else:
                assert ring.is_zero(acc)

    def test_multiplicativity(self):
        chars = characters(C4xC9)
        ring = CyclotomicRing(36)
        chi = chars[7]
        for a, b in itertools.islice(itertools.product(C4xC9.elements(), repeat=2), 50):
            assert value(chi, C4xC9.mul(a, b)) == ring.mul(value(chi, a), value(chi, b))

    def test_restriction_to_subproduct(self):
        # chi on C4 x C3 restricted to the first factor is the C4-character
        # with the same first exponent, though the two log in different
        # exponents: zeta_12^(chi log on (e,0)) = zeta_4^(res log on (e,))
        big = AbelianGroup((4, 3))
        chi = characters(big)[7]
        res = Character(AbelianGroup((4,)), chi.exps[:1])
        for e in range(4):
            assert chi.log_value((e, 0)) == 3 * res.log_value((e,)) % 12

    def test_orbit_reps_c4_p3(self):
        # Galois orbits of C4-characters over Q_3: chi ~ chi^3 pairs the two
        # faithful characters; four characters -> three orbits
        reps, orbit = character_orbits(characters(C4), 3)
        assert [r.exps for r in reps] == [(0,), (1,), (2,)]
        assert orbit == {(0,): 0, (1,): 1, (3,): 1, (2,): 2}

    @pytest.mark.parametrize("orders, p", [((4, 5), 3), ((3, 7), 2), ((8,), 3), ((4,), 5)])
    def test_orbit_index_is_constant_on_orbits(self, orders, p):
        # chi and chi^p share an orbit index, and each rep is the first
        # character of its orbit
        chars = characters(AbelianGroup(orders))
        reps, orbit = character_orbits(chars, p)
        assert len(orbit) == len(chars)
        for chi in chars:
            assert orbit[chi.power(p).exps] == orbit[chi.exps]
        assert [orbit[r.exps] for r in reps] == list(range(len(reps)))
        assert [chars.index(r) for r in reps] == sorted(
            min(i for i, chi in enumerate(chars) if orbit[chi.exps] == b)
            for b in range(len(reps)))


def one(group):
    """The identity of Z[G] as a flat coefficient list."""
    return from_mapping(group, {group.identity: 1})


class TestGroupRing:
    def test_augmentation_morphism(self):
        rng = random.Random(3)
        for _ in range(10):
            a = from_mapping(C4, {(i,): rng.randrange(-5, 6) for i in range(4)})
            b = from_mapping(C4, {(i,): rng.randrange(-5, 6) for i in range(4)})
            assert sum(reference_product(C4, a, b)) == sum(a) * sum(b)

    def test_apply_character_is_ring_hom(self):
        chars = characters(C4)
        chi = chars[1]
        ring = chi.ring
        rng = random.Random(4)
        for _ in range(10):
            a = from_mapping(C4, {(i,): rng.randrange(-3, 4) for i in range(4)})
            b = from_mapping(C4, {(i,): rng.randrange(-3, 4) for i in range(4)})
            assert chi.ring.mul(chi_value(chi, a), chi_value(chi, b)) == \
                chi_value(chi, reference_product(C4, a, b))
        assert apply_character(chi, [one(C4)]) == [ring.one]
        # on a polynomial of Z[G][u], coefficient by coefficient, trailing
        # zero values dropped
        a, z = from_mapping(C4, {(0,): 1, (2,): 1}), from_mapping(C4, {})
        assert apply_character(chi, [a, one(C4), z, a]) == [ring.zero, ring.one]

    def test_theta_poly_norm(self):
        # norm of (1 - g u) over C2 = (1-u)(1+u) = 1 - u^2
        tp = [one(C2), from_mapping(C2, {(1,): -1})]
        values = [apply_character(chi, tp) for chi in characters(C2)]
        assert character_norm(C2, values) == [1, 0, -1]

    def test_evaluate_at_one(self):
        # Theta(1) of 1 + g u is 1 + g; of Theta = 0, the zero list of G
        layer = types.SimpleNamespace(group=C2)
        for theta, value in (([one(C2), from_mapping(C2, {(1,): 1})], [1, 1]), ([], [0, 0])):
            tr = ThetaResult(layer=layer, D=1, bound=1, theta=theta, tail=None,
                             per_char_degrees={}, orbit_rep={}, chi_theta={},
                             checks={})
            assert tr.special_value() == value


class TestChiComponent:
    def test_identity_maps_to_one(self):
        delta_idx, p_idx = (0,), (1,)
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((9,))
        big = AbelianGroup((4, 9))
        for chi in characters(delta):
            ring = chi_component_ring(chi, 3, 6, pgrp)
            img = chi_component(big, one(big), chi, ring, delta_idx, p_idx)
            assert img == ring.one

    def test_flagship_component_shapes(self):
        # q=3 flagship: Delta = C4, p = 3: Phi_4 = x^2+1 irreducible mod 3:
        # components are Z/3^k (chi trivial / quadratic) and Z/3^k[x]/(x^2+1)
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup(())
        reps, _ = character_orbits(characters(delta), 3)
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
            a = from_mapping(big, {k: rng.randrange(9) for k in big.elements()})
            b = from_mapping(big, {k: rng.randrange(9) for k in big.elements()})
            pa = chi_component(big, a, chi, ring, (0,), (1,))
            pb = chi_component(big, b, chi, ring, (0,), (1,))
            pab = chi_component(big, reference_product(big, a, b), chi, ring, (0,), (1,))
            assert ring.mul(pa, pb) == pab

    def test_components_jointly_injective(self):
        # direct sum over orbit reps is injective at precision k
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((3,))
        big = AbelianGroup((4, 3))
        p, k = 3, 5
        reps, _ = character_orbits(characters(delta), p)
        rings = [chi_component_ring(c, p, k, pgrp) for c in reps]
        rng = random.Random(8)
        for _ in range(20):
            a = from_mapping(big, {kk: rng.randrange(3 ** k) for kk in big.elements()})
            if all(v % 3 ** k == 0 for v in a):
                continue
            imgs = [chi_component(big, a, c, r, (0,), (1,)) for c, r in zip(reps, rings)]
            assert any(any(img) for img in imgs)

    def test_components_reflect_units(self):
        # x is a unit iff every chi-component is a unit
        delta = AbelianGroup((4,))
        pgrp = AbelianGroup((3,))
        big = AbelianGroup((4, 3))
        p, k = 3, 4
        ring_big = ZpkGroupRing(p, k, big)
        reps, _ = character_orbits(characters(delta), p)
        rings = [chi_component_ring(c, p, k, pgrp) for c in reps]
        rng = random.Random(31)
        for _ in range(15):
            a = from_mapping(big, {kk: rng.randrange(3 ** k) for kk in big.elements()})
            full_unit, _ = is_unit(ring_big.from_vec(a), ring_big)
            comp_units = all(
                is_unit(chi_component(big, a, c, r, (0,), (1,)), r)[0]
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
        x = from_mapping(big, {(0,): 5, (1,): 7, (2,): 1, (3,): 2})
        ex = reference_product(big, e, x)
        assert chi_component(big, ex, triv, ring_t, (0,), ()) == \
            chi_component(big, x, triv, ring_t, (0,), ())
        assert chi_component(big, ex, nontriv, ring_n, (0,), ()) == ring_n.zero


class TestUnits:
    def test_geometric_series_inverse(self):
        # 1 - 3 sigma u in Z/3^6[u]/(u^6)[C4] is a unit, and its inverse is
        # the truncated geometric series sum_(j < 6) 3^j sigma^j u^j: block
        # sigma^j holds 3^j at u^j
        p, k, M = 3, 6, 6
        ring = PolyGroupRing(p, k, (0,) * M + (1,), C4)
        three_sigma_u = ring.zero
        three_sigma_u[M + 1] = 3
        x = ring.sub(ring.one, three_sigma_u)
        series = ring.zero
        for j in range(M):
            series[(j % 4) * M + j] += 3 ** j
        ok, inv = is_unit(x, ring)
        assert ok and inv == series
        assert ring.mul(x, series) == ring.mul(series, x) == ring.one

    def test_p_is_not_a_unit(self):
        ring = ZpkGroupRing(3, 6, TRIVIAL_GROUP)
        ok, _ = is_unit([3], ring)
        assert not ok

    def test_matrix_lifting_lemma(self):
        # units lift along Z/p^8[G] -> Z/p^4[G] and conversely (2x2 random)
        p = 3
        hi = ZpkGroupRing(p, 8, C4)
        lo = ZpkGroupRing(p, 4, C4)
        rng = random.Random(11)

        def reduce_elem(x):
            return lo.from_vec(x)

        for _ in range(200):
            mat_hi = [[hi.from_mapping({kk: rng.randrange(hi.pk) for kk in C4.elements()})
                       for _ in range(2)] for _ in range(2)]
            det_hi = hi.sub(hi.mul(mat_hi[0][0], mat_hi[1][1]),
                            hi.mul(mat_hi[0][1], mat_hi[1][0]))
            det_lo = lo.sub(lo.mul(reduce_elem(mat_hi[0][0]), reduce_elem(mat_hi[1][1])),
                            lo.mul(reduce_elem(mat_hi[0][1]), reduce_elem(mat_hi[1][0])))
            assert is_unit(det_hi, hi)[0] == is_unit(det_lo, lo)[0]


class TestTruncPolyReference:
    """Z/p^k[G][u]/(u^M), the PolyGroupRing of h = u^M, against the tuple
    base[u]/(u^M) of zpk_reference with its layout transposed, over two
    bases: Z/p^k (the trivial group against the int ring) and Z/p^k[C2].
    Products, units and inverses agree."""

    @staticmethod
    def _pairs():
        for p, k, M in ((3, 4, 4), (2, 5, 3), (5, 2, 5)):
            yield (PolyGroupRing(p, k, (0,) * M + (1,), TRIVIAL_GROUP),
                   ReferenceTruncPolyRing(ReferenceZpkRing(p, k), M))
        for p, k, M in ((3, 3, 3), (2, 4, 4), (3, 2, 6)):
            yield (PolyGroupRing(p, k, (0,) * M + (1,), C2),
                   ReferenceTruncPolyRing(ZpkGroupRing(p, k, C2), M))

    def test_matches_reference(self):
        rng = random.Random(29)
        units = 0
        for ring, ref in self._pairs():
            assert ring.basis_size == ref.basis_size
            one = ring.one
            assert one == ref.to_group_major(ref.one)
            for _ in range(10):
                rand = [rng.randrange(ring.pk) for _ in range(ring.basis_size)]
                other = [rng.randrange(ring.pk) for _ in range(ring.basis_size)]
                for vec in (rand, [a + ring.p * b for a, b in zip(one, rand)],
                            [ring.p * b for b in rand]):
                    x, x_ref = ring.from_vec(vec), ref.from_group_major(vec)
                    assert ring.mul(x, ring.from_vec(other)) == \
                        ref.to_group_major(ref.mul(x_ref, ref.from_group_major(other))), \
                        (ref.describe(), vec)
                    ok, inv = is_unit(x, ring)
                    # the tuple ring's inverse, solved on its own vectors
                    sol = zpk_solve(mult_matrix(ref, [[x_ref]]), ref.to_vec(ref.one),
                                    ring.p, ring.k)
                    assert ok == (sol is not None), (ref.describe(), vec)
                    if ok:
                        units += 1
                        ref_inv = ref.from_vec(sol)
                        assert ref.mul(x_ref, ref_inv) == ref.one
                        assert inv == ref.to_group_major(ref_inv)
        assert units > 60


class TestFitting:
    def test_diagonal(self):
        ring = ZpkGroupRing(3, 10, TRIVIAL_GROUP)
        pm = PresentationMatrix(ring, [[[3], [0]], [[0], [9]]])
        fi = fitting_ideal(pm)
        assert ideal_equal(fi, [[27]], ring)

    def test_trivial_module_over_zc2(self):
        # 1x1 presentation (sigma - 1) of Z over Z[C2]
        ring = ZpkGroupRing(2, 6, C2)
        sigma_minus_1 = ring.sub(ring.from_mapping({(1,): 1}), ring.one)
        fi = fitting_ideal(PresentationMatrix(ring, [[sigma_minus_1]]))
        assert len(fi) == 1
        assert fi[0] == sigma_minus_1

    def test_deficient(self):
        # more generators than relations: no minor, the zero ideal
        ring = ZpkGroupRing(3, 4, TRIVIAL_GROUP)
        assert fitting_ideal(PresentationMatrix(ring, [[[1], [2]]])) == []

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
            assert ideal_equal(fi1, fi2, ring)

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
            prod = [ring.mul(x, y) for x in fa for y in fb]
            assert ideal_equal(fi_sum, prod, ring)

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
            assert ideal_equal([push(g) for g in fi_b], fi_s, ring_s)


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
        ring = ZpkGroupRing(3, 4, TRIVIAL_GROUP)
        assert not ideal_equal([[3]], [[9]], ring)

    def test_scaling_by_unit(self):
        ring = ZpkGroupRing(5, 4, TRIVIAL_GROUP)
        assert ideal_equal([[10]], [[30]], ring)  # 3 is a unit mod 5^4


class TestIdealContains:
    """ideal_contains against elimination, the oracle, on every ring of the
    algebra battery: a target that is 0 or +-g for a generator g is accepted
    without a solve, and every other target still reaches zpk_solve."""

    RINGS = [(3, 6, (4,)), (3, 6, (2,)), (3, 6, (4, 3)), (3, 8, (4,)),
             (3, 4, (4,)), (3, 4, (2, 3)), (3, 6, ())]

    @pytest.mark.parametrize("p, k, orders", RINGS)
    def test_matches_elimination(self, p, k, orders, monkeypatch):
        ring = ZpkGroupRing(p, k, AbelianGroup(orders))
        calls = []

        def spy(*args):
            calls.append(args)
            return zpk_solve(*args)

        monkeypatch.setattr(grouprings, "zpk_solve", spy)
        rng = random.Random(29)

        def rand():
            return ring.from_vec([rng.randrange(ring.pk) for _ in range(ring.basis_size)])

        # non-units among the generators, so that some targets are not in the ideal
        factors = [ring.one, ring.scale_int(3, ring.one), ring.scale_int(9, ring.one)]
        if ring.basis_size > 1:
            factors.append(ring.sub(ring.from_vec([0, 1] + [0] * (ring.basis_size - 2)),
                                    ring.one))
        verdicts = set()
        for _ in range(12):
            gens = [ring.mul(rand(), rng.choice(factors)) for _ in range(rng.randrange(1, 3))]
            signed = [ring.zero] + gens + [ring.sub(ring.zero, g) for g in gens]
            for g in gens:
                targets = {"0": ring.zero, "g": g, "-g": ring.sub(ring.zero, g),
                           "2g": ring.scale_int(2, g), "3g": ring.scale_int(3, g),
                           "gh": ring.mul(g, rand()), "random": rand()}
                for name, t in targets.items():
                    del calls[:]
                    got = ideal_contains(ring, gens, t)
                    mat = mult_matrix(ring, [[g] for g in gens])
                    assert got == (zpk_solve(mat, t, p, k) is not None), (name, gens, t)
                    verdicts.add(got)
                    # a solve is skipped exactly for 0 and +-(a generator)
                    assert len(calls) == (0 if t in signed else 1), name
                    if name in ("3g", "random") and t not in signed:
                        assert calls == [(mat, t, p, k)]
        assert verdicts == {True, False}

    def test_no_generators(self):
        ring = ZpkGroupRing(3, 6, C4)
        assert ideal_contains(ring, [], ring.zero)
        assert not ideal_contains(ring, [], ring.one)
        assert not ideal_contains(ring, [], ring.scale_int(3 ** 5, ring.one))


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
        # e_Delta is an idempotent of Z/p^k[G] (p does not divide |Delta|,
        # Delta indices = (0,)), so the sharp projection 1 - e_Delta is too
        grp = AbelianGroup((3, 2))
        p, k = 2, 6
        ring = ZpkGroupRing(p, k, grp)
        e = ring.from_vec(delta_idempotent(grp, (0,), p, k))
        assert ring.mul(e, e) == e
        sharp = ring.sub(ring.one, e)
        assert ring.mul(sharp, sharp) == sharp

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
        yield from_mapping(group, {})
        yield one(group)
        for _ in range(4):
            yield from_mapping(group, {g: rng.randrange(-2 * pk, 2 * pk) for g in elems})
            yield from_mapping(group, {rng.choice(elems): rng.randrange(1, pk)})
            yield from_mapping(group, {g: pk * rng.randrange(-2, 3) for g in elems})

    @pytest.mark.parametrize("orders", GROUPS, ids=str)
    def test_operations(self, orders):
        group = AbelianGroup(orders)
        rng = random.Random(sum(orders) * 31 + len(orders))
        for p in (2, 3, 5):
            for k in (1, 4, 6):
                ring = ZpkGroupRing(p, k, group)
                ref = ReferenceZpkGroupRing(p, k, group)
                assert list(ring.elems) == ref.elems and ring.elems[0] == group.identity
                assert ring.zero == ref.to_vec(ref.zero)
                assert ring.one == ref.to_vec(ref.one)
                xs = list(self._elements(rng, group, ring.pk))
                for x in xs:
                    a, ra = ring.from_vec(x), ref.from_group_ring(x)
                    assert a == ref.to_vec(ra)
                    assert ring.from_mapping(dict(zip(ring.elems, x))) == a
                    assert ring.from_vec(ref.to_vec(ra)) == a
                    c = rng.choice((0, 1, -1, p, -p ** k, rng.randrange(-100, 100)))
                    assert ring.scale_int(c, a) == ref.to_vec(ref.scale_int(c, ra))
                    y = rng.choice(xs)
                    b, rb = ring.from_vec(y), ref.from_group_ring(y)
                    before = (list(a), list(b))
                    for op in ("add", "sub", "mul"):
                        assert getattr(ring, op)(a, b) == ref.to_vec(getattr(ref, op)(ra, rb))
                    assert (a, b) == before  # arguments are never mutated
                    assert ring.mul(a, b) == ring.mul(b, a)
                    assert mult_matrix(ring, [[a, b], [b, ring.zero]]) == \
                        reference_mult_matrix_rows(ref, [[ra, rb], [rb, ref.zero]])
                self._assert_minors_agree(rng, ring, ref, xs)

    @staticmethod
    def _assert_minors_agree(rng, ring, ref, xs):
        """Determinants up to 3 x 3 and Fitting ideals of random presentations
        (square, tall, wide, empty) agree with the reference minors."""
        for n in range(4):
            for _ in range(3):
                mat = [[ring.from_vec(rng.choice(xs)) for _ in range(n)] for _ in range(n)]
                rmat = [[ref.from_vec(e) for e in row] for row in mat]
                assert ring.det(mat) == ref.to_vec(reference_det(ref, rmat))
        for nrows, ncols in ((1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (1, 2), (0, 0)):
            rows = [[ring.from_vec(rng.choice(xs)) for _ in range(ncols)]
                    for _ in range(nrows)]
            fi = fitting_ideal(PresentationMatrix(ring, rows))
            expected = reference_fitting_generators(ref, [[ref.from_vec(e) for e in row]
                                                          for row in rows])
            assert (fi == []) == (expected is None)
            assert fi == [ref.to_vec(g) for g in expected or []]


class TestTranslation:
    """translation, the one group law of the flat layout, against group.mul
    read through group_index for both signs, and against the mul_table
    oracle: every row of small groups, sampled rows of the frontier layer
    groups (q = 2 n = 5 and q = 3 n = 3)."""

    @staticmethod
    def _expected(group, g, sign):
        elems, index = group_index(group)
        return [index[group.mul(g, h if sign == 1 else group.inv(h))] for h in elems]

    @pytest.mark.parametrize("orders", [(), (4,), (2, 2), (4, 3), (9, 3, 3)], ids=str)
    def test_every_row(self, orders):
        group = AbelianGroup(orders)
        table = mul_table(group)
        for i, g in enumerate(group_index(group)[0]):
            for sign in (1, -1):
                assert translation(group, g, sign) == self._expected(group, g, sign), (g, sign)
            assert translation(group, g) == list(table[i])

    @pytest.mark.parametrize("orders", [(8, 8, 2, 2, 2, 2, 3), (4, 9, 9, 3, 3)], ids=str)
    def test_sampled_rows_of_the_frontier_groups(self, orders):
        group = AbelianGroup(orders)
        elems = group_index(group)[0]
        rng = random.Random(47)
        for g in [elems[0], elems[1], elems[-1]] + rng.sample(elems, 5):
            for sign in (1, -1):
                assert translation(group, g, sign) == self._expected(group, g, sign), (g, sign)


class TestTranslateRows:
    """The multiplication matrices read off translation rows (mult_rows; for
    PolyGroupRing, u y by the closed form for monic h) against the ones
    built from ring products: Z/p^k[G], chi-components
    (h a lifted factor of Phi_M, G a p-group) and truncated series (h = u^M,
    any G)."""

    @staticmethod
    def _rings():
        for orders in ((), (4,), (2, 2), (2, 4), (3, 3), (9,)):
            group = AbelianGroup(orders)
            for p, k in ((2, 5), (3, 4), (5, 2)):
                yield ZpkGroupRing(p, k, group)
        # deg h = 1, 2 and 4, over cyclic and non-cyclic P
        for p, k, M, orders in ((2, 6, 1, (2, 2)), (2, 6, 3, (4,)), (2, 6, 3, (2, 2)),
                                (2, 4, 5, (2, 2, 2)), (3, 4, 4, (3, 3)), (3, 4, 4, (9,)),
                                (3, 3, 2, (3,)), (5, 3, 3, (5,))):
            h = (0, 1) if M == 1 else _lifted_cyclotomic_factors(M, p, k)
            yield PolyGroupRing(p, k, h, AbelianGroup(orders))
        for p, k, M, orders in ((2, 6, 1, (3,)), (3, 4, 3, (4,)), (2, 5, 6, (2, 3)),
                                (5, 2, 4, ())):
            yield PolyGroupRing(p, k, (0,) * M + (1,), AbelianGroup(orders))

    def test_matches_products(self):
        rng = random.Random(41)
        degrees = set()
        for ring in self._rings():
            degrees.add(getattr(ring, "deg", 1))
            n = ring.basis_size
            for _ in range(3):
                x, y = ([rng.randrange(ring.pk) for _ in range(n)] for _ in range(2))
                before = list(x)
                assert ring.mult_rows(x) == reference_mult_matrix_rows(ring, [[x]]), ring
                assert x == before
                rows = [[x, y], [y, ring.zero], [ring.one, x]]
                assert mult_matrix(ring, rows) == reference_mult_matrix_rows(ring, rows)
                assert mult_matrix(ring, [[x]]) == reference_mult_matrix_rows(ring, [[x]])
        assert degrees == {1, 2, 3, 4, 6}


class TestPolyGroupRingReduce:
    """PolyGroupRing._reduce, a call of zpoly.div_rem mod p^k, against the
    loop it replaced, on vectors up to three times deg h."""

    def test_against_the_loop(self):
        rng = random.Random(43)
        for ring in TestTranslateRows._rings():
            if isinstance(ring, PolyGroupRing):
                bound = ring.pk ** 2
                for _ in range(20):
                    size = rng.randrange(3 * ring.deg + 2)
                    vec = [rng.randrange(-bound, bound) for _ in range(size)]
                    assert ring._reduce(vec) == reference_poly_reduce(vec, ring.h, ring.pk)


class TestDeterminant:
    """ZpkGroupRing.det, by Kronecker substitution, against the two past
    determinants: reference_det on the dict-keyed ring, which shares no code
    with it, and reference_cofactor_det on the index table."""

    # every ring the algebra battery builds, (p, k, orders)
    BATTERY_RINGS = ((3, 6, (4,)), (3, 6, (2,)), (3, 6, (4, 3)), (3, 8, (4,)), (3, 4, (4,)),
                     (3, 4, (2, 3)), (2, 6, (3,)))

    @staticmethod
    def _assert_references_agree(ring, mat):
        got = ring.det(mat)
        ref = ReferenceZpkGroupRing(ring.p, ring.k, ring.group)
        expected = reference_det(ref, [[ref.from_vec(e) for e in row] for row in mat])
        assert got == ref.to_vec(expected), (ring.describe(), mat)
        assert got == reference_cofactor_det(ring, mat), (ring.describe(), mat)

    @staticmethod
    def _matrices(rng, ring, n):
        """n x n matrices with reduced entries, with entries from {-(p^k - 1),
        0, p^k - 1}, with unreduced entries of either sign, and the extremes of
        the field-width bound: the diagonal and the anti-diagonal of
        (p^k - 1) sum_g g, and every coefficient p^k - 1."""
        m, size = ring.pk - 1, ring.basis_size
        draws = (lambda: rng.randrange(ring.pk), lambda: rng.choice((-m, 0, m)),
                 lambda: rng.randrange(-5 * ring.pk, 5 * ring.pk))
        for draw in draws:
            for _ in range(2):
                yield [[[draw() for _ in range(size)] for _ in range(n)] for _ in range(n)]
        full, zero = [m] * size, [0] * size
        yield [[full if i == j else zero for j in range(n)] for i in range(n)]
        yield [[full if i + j == n - 1 else zero for j in range(n)] for i in range(n)]
        yield [[full] * n for _ in range(n)]

    @pytest.mark.parametrize("p,k,orders", BATTERY_RINGS, ids=str)
    def test_matches_the_references_on_the_battery_rings(self, p, k, orders):
        ring = ZpkGroupRing(p, k, AbelianGroup(orders))
        rng = random.Random(sum(orders) + 10 * k + 100 * p)
        for n in range(5):
            for mat in self._matrices(rng, ring, n):
                self._assert_references_agree(ring, mat)

    def test_fields_wider_than_64_bits(self):
        # the bound 4! 4^3 (2^24 - 1)^4 needs 108-bit fields: snf._pack's
        # byte-by-byte path
        ring = ZpkGroupRing(2, 24, AbelianGroup((2, 2)))
        assert grouprings._det_plan(ring.group.orders, 4, ring.pk)[0] > 8
        rng = random.Random(44)
        for mat in self._matrices(rng, ring, 4):
            self._assert_references_agree(ring, mat)

    def test_extreme_diagonals(self):
        # diag((p^k - 1) sum_g g) has the largest coefficients of its n; the
        # sweep over p^k puts some of their bounds on a byte boundary
        for orders in ((), (2,), (3,), (4,), (2, 2), (2, 3)):
            group = AbelianGroup(orders)
            for p, k in itertools.product((2, 3, 5), range(1, 13)):
                ring = ZpkGroupRing(p, k, group)
                full, zero = [ring.pk - 1] * ring.basis_size, ring.zero
                for n in (2, 3):
                    mat = [[full if i == j else zero for j in range(n)] for i in range(n)]
                    assert ring.det(mat) == reference_cofactor_det(ring, mat), (orders, p, k, n)

    def test_matches_the_cofactor_reference(self):
        # entries in (-p^k, p^k) over the trivial, a cyclic and two
        # non-cyclic groups
        rng = random.Random(43)
        for orders in ((), (4,), (2, 2), (4, 3)):
            for p, k in ((2, 6), (3, 4)):
                ring = ZpkGroupRing(p, k, AbelianGroup(orders))
                for n in range(5):
                    mat = [[[rng.randrange(-ring.pk, ring.pk) for _ in range(ring.basis_size)]
                            for _ in range(n)] for _ in range(n)]
                    assert ring.det(mat) == reference_cofactor_det(ring, mat), (orders, p, n)


def as_reference(group, x):
    """The dict-keyed copy of a flat Z[G] element of G = group."""
    return ReferenceGroupRingElem(group, dict(zip(group_index(group)[0], x)))


class TestGroupRingElemReference:
    """The flat Z[G] coefficient lists agree with the dict-keyed
    ReferenceGroupRingElem: products in Z/p^k[G], characters, projections
    along _index_map, and the JSON and text of Theta (lfun.ThetaResult.to_json,
    cli._theta_poly_human) for one coefficient."""

    GROUPS = ((), (2,), (4,), (4, 3), (2, 2, 2), (9,))

    @staticmethod
    def _elements(rng, group):
        """Random Z[G] elements: dense, sparse, single terms and zero."""
        elems = list(group.elements())
        yield from_mapping(group, {})
        yield one(group)
        for _ in range(5):
            yield from_mapping(group, {g: rng.randrange(-50, 50) for g in elems})
            yield from_mapping(group, {g: rng.choice((0, 0, 0, 1, -3)) for g in elems})
            yield from_mapping(group, {rng.choice(elems): 1})

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
        ring = ZpkGroupRing(7, 3, group)
        layer = types.SimpleNamespace(group=group)
        for x in xs:
            rx = as_reference(group, x)
            assert from_mapping(group, rx.coeffs) == x
            y = rng.choice(xs)
            ry = as_reference(group, y)
            assert ring.mul(ring.from_vec(x), ring.from_vec(y)) == \
                ring.from_vec(from_mapping(group, (rx * ry).coeffs))
            assert sum(x) == rx.augmentation()
            for chi in chars:
                assert chi_value(chi, x) == rx.apply_character(chi)
            for apply_map, target in self._quotients(group):
                projected = [0] * target.order
                for j, v in zip(_index_map(group, apply_map, target), x):
                    projected[j] += v
                assert as_reference(target, projected) == rx.project(apply_map, target)
            tr = ThetaResult(layer=layer, D=0, bound=0, theta=[x], tail=None,
                             per_char_degrees={}, orbit_rep={}, chi_theta={},
                             checks={})
            assert json.dumps(tr.to_json()["theta"]) == json.dumps(
                {"group_orders": list(orders), "coeffs_by_degree": [rx.to_json()["coeffs"]]})
            assert _theta_poly_human(group, [x]) == ([f"  u^0: {rx!r}"] if any(x) else [])
            assert (x == y) == (rx == ry)

