"""Property-based tests for the exact-arithmetic kernels."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ctower.abelian import AbelianGroup
from ctower.carlitz import rho
from ctower.ffpoly import FinitePlace, FqField, FqPoly, factor, is_irreducible
from ctower.grouprings import (
    ZpkGroupRing,
    _index_map,
    apply_character,
    characters,
    from_mapping,
)
from ctower.lfun import euler_series, theta
from ctower.rayclass import TowerConfig, build_layer, default_s, layer_projection

from carlitz_reference import constant_term, deg_tau
from zpk_reference import reference_product

F2 = FqField(2)
F3 = FqField(3)
F4 = FqField(2, 2)


def polys(field, max_degree=6):
    return st.lists(st.integers(min_value=0, max_value=field.q - 1),
                    min_size=0, max_size=max_degree + 1).map(lambda c: FqPoly(field, c))


def monic_polys(field, max_degree=8):
    return st.lists(st.integers(min_value=0, max_value=field.q - 1),
                    min_size=1, max_size=max_degree).map(
        lambda c: FqPoly(field, c + [1]))


class TestPolynomialRing:
    @given(polys(F3), polys(F3), polys(F3))
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys(F4), polys(F4))
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys(F2, 8), monic_polys(F2, 5))
    def test_divmod_roundtrip(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(monic_polys(F3, 7))
    @settings(max_examples=40, deadline=None)
    def test_factor_roundtrip(self, f):
        acc = FqPoly.one(F3)
        for g, m in factor(f):
            assert is_irreducible(g)
            acc = acc * g ** m
        assert acc == f

    @given(polys(F3, 5), polys(F3, 5))
    def test_degree_additivity(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree


class TestCarlitzModule:
    @given(polys(F3, 4), polys(F3, 4))
    @settings(max_examples=30, deadline=None)
    def test_rho_is_ring_homomorphism(self, x, y):
        assert rho(x * y) == rho(x) * rho(y)
        assert rho(x + y) == rho(x) + rho(y)

    @given(polys(F2, 5))
    @settings(max_examples=30, deadline=None)
    def test_degree_and_constant_term(self, x):
        r = rho(x)
        if x.is_zero():
            assert deg_tau(r) == float("-inf")
        else:
            assert deg_tau(r) == x.degree
            assert constant_term(r) == x


class TestGroupRing:
    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
           st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4))
    def test_augmentation_is_ring_morphism(self, a_coeffs, b_coeffs):
        grp = AbelianGroup((4,))
        a = from_mapping(grp, {(i,): c for i, c in enumerate(a_coeffs)})
        b = from_mapping(grp, {(i,): c for i, c in enumerate(b_coeffs)})
        assert sum(reference_product(grp, a, b)) == sum(a) * sum(b)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4))
    def test_characters_are_ring_morphisms(self, coeffs):
        grp = AbelianGroup((4,))
        a = from_mapping(grp, {(i,): c for i, c in enumerate(coeffs)})
        for chi in characters(grp):
            ring = chi.ring
            va, = apply_character(chi, [a]) or [ring.zero]
            sq = ring.mul(va, va)
            assert [sq] == (apply_character(chi, [reference_product(grp, a, a)]) or [ring.zero])


DET_RINGS = [ZpkGroupRing(p, k, AbelianGroup(orders))
             for p, k, orders in ((3, 6, (4,)), (3, 4, (2, 3)), (2, 6, (3,)), (2, 5, (2, 2)))]


@st.composite
def ring_matrices(draw, count):
    """A ring of DET_RINGS, and count n x n matrices over it, n in {2, 3},
    whose entries are lists of unreduced coefficients."""
    ring = draw(st.sampled_from(DET_RINGS))
    n = draw(st.sampled_from((2, 3)))
    elem = st.lists(st.integers(min_value=-ring.pk, max_value=2 * ring.pk),
                    min_size=ring.basis_size, max_size=ring.basis_size)
    row = st.lists(elem, min_size=n, max_size=n)
    return ring, [draw(st.lists(row, min_size=n, max_size=n)) for _ in range(count)]


class TestDeterminant:
    """The laws of det over Z/p^k[G]; products and sums of entries are formed
    with ring.mul and ring.add only, so no law shares code with det."""

    @given(ring_matrices(2))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, args):
        ring, (a, b) = args
        n = len(a)
        ab = [[ring.zero] * n for _ in range(n)]
        for i, j, t in itertools.product(range(n), repeat=3):
            ab[i][j] = ring.add(ab[i][j], ring.mul(a[i][t], b[t][j]))
        assert ring.det(ab) == ring.mul(ring.det(a), ring.det(b))

    @given(ring_matrices(1))
    @settings(max_examples=60, deadline=None)
    def test_transpose(self, args):
        ring, (a,) = args
        assert ring.det([list(col) for col in zip(*a)]) == ring.det(a)

    @given(ring_matrices(1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_operation(self, args, data):
        ring, (a,) = args
        n = len(a)
        src, dst = data.draw(st.permutations(range(n)))[:2]
        r = data.draw(st.lists(st.integers(min_value=-ring.pk, max_value=ring.pk),
                               min_size=ring.basis_size, max_size=ring.basis_size))
        a2 = [list(row) for row in a]
        for row in a2:
            row[dst] = ring.add(row[dst], ring.mul(r, row[src]))
        assert ring.det(a2) == ring.det(a)


class TestZetaRoundtrip:
    @given(st.integers(min_value=-2, max_value=2),
           st.integers(min_value=-2, max_value=2),
           st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_product_of_elliptic_numerators(self, a1, a2, q):
        # P = (1 - a1 u + q u^2)(1 - a2 u + q u^2) with |a_i| <= 2 sqrt(q) is
        # a genus-2 Weil numerator; its Newton counts must reconstruct it
        from ctower.geometry import zeta_numerator

        if a1 * a1 > 4 * q or a2 * a2 > 4 * q:
            return
        p1 = [1, -a1, q]
        p2 = [1, -a2, q]
        prod = [0] * 5
        for i, x in enumerate(p1):
            for j, y in enumerate(p2):
                prod[i + j] += x * y
        # counts N_i = q^i + 1 - s_i from the Newton recurrence
        s = []
        c = prod + [0] * 10
        for n in range(1, 7):
            acc = -n * c[n]
            for i in range(1, n):
                acc -= s[i - 1] * c[n - i]
            s.append(acc)
        counts = [q ** i + 1 - s[i - 1] for i in range(1, 7)]
        z = zeta_numerator(counts, q)
        assert z.genus == 2
        assert z.numerator == prod
        assert z.h == sum(prod)

    def test_truncated_counts_rejected(self):
        from ctower.geometry import zeta_numerator

        # genus-1 counts truncated to a single term cannot determine P
        with pytest.raises(ArithmeticError):
            zeta_numerator([7], 3)


class TestThetaInvariants:
    def _cfg(self):
        p = FinitePlace(FqPoly(F3, (1, 0, 1)))
        return TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p),
                           frozenset({FinitePlace(FqPoly(F3, (0, 1)))}))

    def test_constant_term_is_one_per_character(self):
        # Weil integrality: every character component of Theta has constant
        # term 1 (all Euler factors have constant term 1), and the
        # unsmoothed series does too
        cfg = self._cfg()
        for n in (0, 1):
            layer = build_layer(cfg, n)
            tr = theta(layer)
            for chi in characters(layer.group):
                coeffs = apply_character(chi, tr.theta)
                assert coeffs[0] == chi.ring.one
            assert euler_series(layer, tr.D)[0] == from_mapping(layer.group,
                                                                {layer.group.identity: 1})

    def test_special_value_commutes_with_projection(self):
        cfg = self._cfg()
        l0, l1 = build_layer(cfg, 0), build_layer(cfg, 1)
        tr0, tr1 = theta(l0), theta(l1)
        lm = layer_projection(l1, l0)
        projected = [0] * l0.group.order
        for j, v in zip(_index_map(l1.group, lm.apply, l0.group), tr1.special_value()):
            projected[j] += v
        assert projected == tr0.special_value()

    def test_extra_unramified_place_in_s(self):
        # S may strictly contain the ramification support; stabilization and
        # the symbolic trivial-character path still certify
        p = FinitePlace(FqPoly(F3, (1, 0, 1)))
        extra = FinitePlace(FqPoly(F3, (1, 1)))
        cfg = TowerConfig(F3, FqPoly.one(F3), p,
                          frozenset({p, extra}),
                          frozenset({FinitePlace(FqPoly(F3, (0, 1)))}))
        layer = build_layer(cfg, 0)
        tr = theta(layer)
        assert not any(map(any, euler_series(layer, tr.D)[tr.bound + 1:] + tr.tail))
        assert tr.checks["divisor_sum_equal"]
        assert tr.checks["trivial_character_symbolic_equal"]

    def test_relative_decomposition_compatible_layers(self):
        # the projection L_2 -> L_1 maps D_v(L_2) onto D_v(L_1), v | f
        p = FinitePlace(FqPoly(F3, (1, 0, 1)))
        f = FqPoly(F3, (0, 1))
        cfg = TowerConfig(F3, f, p, default_s(f, p),
                          frozenset({FinitePlace(FqPoly(F3, (1, 1)))}))
        v = FinitePlace(f)
        l1, l2 = build_layer(cfg, 1), build_layer(cfg, 2)
        lm = layer_projection(l2, l1)
        assert {lm.apply(g) for g in l2.decomposition_group(v)} == l1.decomposition_group(v)
