import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from ctower import grouprings, lfun, snf, tower
from ctower.abelian import TRIVIAL_GROUP, AbelianGroup
from ctower.ffpoly import INFINITY, FinitePlace, FqField, FqPoly
from ctower.grouprings import (
    PolyGroupRing,
    PresentationMatrix,
    ZpkGroupRing,
    characters,
    delta_blocks,
    delta_idempotent,
    e_delta_presentation,
    from_mapping,
    ideal_contains,
    is_unit,
    module_order_exponent,
    mult_matrix,
    quotient_exponents,
    quotient_order_exponent,
    sharp_presentation,
)
from ctower.rayclass import TowerConfig, build_layer, default_s
from ctower.tower import (
    DEFAULT_PRECISION,
    CoherentNzdReport,
    RunOptions,
    ToyProjectiveSystem,
    coherent_nzd_check,
    nzd_slack,
    run_tower,
    zpk_chain_system,
)
from ctower.lfun import theta
from ctower.snf import zpk_cokernel_exponents, zpk_kernel
from zpk_reference import (
    ReferenceZpkGroupRing,
    reference_coherent_extra,
    reference_product,
    reference_quotient_exponents,
    triangular_exponents,
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


class TestRunTower:
    def test_flagship_q3_full(self):
        cfg = flagship_q3()
        opts = RunOptions(sigma_alt={FinitePlace(poly(F3, 1, 1))})
        run = run_tower(cfg, 1, opts)
        assert run.all_passed
        names = {v["name"] for v in run.verdicts}
        assert {"theta_stabilization", "functoriality", "order_of_vanishing",
                "sigma_factor_unit", "special_value_nzd_shadow",
                "point_count_cross_check", "class_number_fitting_identity",
                "sigma_independence", "charpoly_theta_identity"} <= names

    def test_flagship_q2_full(self):
        run = run_tower(flagship_q2(), 1,
                        RunOptions(sigma_alt={FinitePlace(poly(F2, 1, 1))}))
        assert run.all_passed

    def test_n0_degenerate(self):
        run = run_tower(flagship_q2(), 0, RunOptions())
        assert run.all_passed
        assert not [v for v in run.verdicts if v["name"] == "functoriality"]

    def test_verdicts_deterministic(self):
        cfg = flagship_q3()
        r1 = run_tower(cfg, 0, RunOptions())
        r2 = run_tower(cfg, 0, RunOptions())
        assert r1.to_json() == r2.to_json()

    def test_summary_lines(self):
        run = run_tower(flagship_q2(), 0, RunOptions())
        lines = run.summary_lines()
        assert lines and all(line.startswith("[PASS]") for line in lines)

    def test_no_zpk_ring_above_layer_zero(self, monkeypatch):
        # ZpkGroupRing keeps |G| x |G| translation rows; a tower run builds
        # none: Sigma-independence checks Theta'(1) W(1) = Theta(1) W'(1) in
        # Z[G] and W, W' = 1 mod p, and the layer groups' products read one
        # row at a time
        groups = []
        init = ZpkGroupRing.__init__

        def spy(self, p, k, group):
            groups.append(group.orders)
            init(self, p, k, group)

        monkeypatch.setattr(ZpkGroupRing, "__init__", spy)
        run = run_tower(flagship_q2(), 3, RunOptions(sigma_alt={FinitePlace(poly(F2, 1, 1))}))
        assert run.all_passed
        assert [v["layer"] for v in run.verdicts if v["name"] == "sigma_independence"] == [0]
        assert groups == []


class TestComputedOnce:
    """A tower run computes shared work once: theta evaluates each rational
    orbit rep once (the layer-0 charpoly norm evaluates only the characters
    outside that store), and each non-unit Delta-block of a layer's Theta(1)
    is eliminated once."""

    def test_verdicts_read_the_table(self, monkeypatch):
        calls = {"theta": 0, "ordvan": 0, "charpoly": 0, "elsewhere": 0}
        where = []
        evaluate = lfun.apply_character

        def counted_evaluate(chi, x):
            calls[where[-1] if where else "elsewhere"] += 1
            return evaluate(chi, x)

        def inside(name, fn):
            def wrapped(*args, **kwargs):
                where.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    where.pop()
            return wrapped

        monkeypatch.setattr(lfun, "apply_character", counted_evaluate)
        monkeypatch.setattr(tower, "theta", inside("theta", tower.theta))
        monkeypatch.setattr(tower, "charpoly_theta_report",
                            inside("charpoly", tower.charpoly_theta_report))
        ordvan_calls = []
        check = inside("ordvan", lfun.order_of_vanishing_check)

        def counted_ordvan(layer, tr, chi):
            ordvan_calls.append((layer.n, chi.exps))
            return check(layer, tr, chi)

        monkeypatch.setattr(lfun, "order_of_vanishing_check", counted_ordvan)
        run = run_tower(flagship_q2(), 2, RunOptions())
        assert run.all_passed
        # one check per non-trivial rational orbit of |G| = 3, 12, 48 (2, 8
        # and 20 orbits); neither the checks nor the chi(Theta(1)) loop of
        # the nzd shadow evaluate again
        assert len(ordvan_calls) == 1 + 7 + 19
        assert len(set(ordvan_calls)) == len(ordvan_calls)
        assert calls["ordvan"] == calls["elsewhere"] == 0
        # theta evaluates each orbit rep once on the whole of Theta, and the
        # one character of |G| = 3 outside the store once more for the
        # per-character product; the layer-0 charpoly norm reads the store
        # and evaluates that character again, keeping nothing
        assert calls["theta"] == 2 + 8 + 20 + 1
        assert calls["charpoly"] == 1

    def test_smith_only_for_kernels(self, monkeypatch):
        # U and V are built for kernels alone: every exponent, order, unit and
        # membership read takes a transform-free pass
        calls = []
        smith = snf.zpk_smith

        def counted_smith(mat, p, k):
            calls.append(len(mat))
            return smith(mat, p, k)

        monkeypatch.setattr(snf, "zpk_smith", counted_smith)
        layer = build_layer(flagship_q2(), 1)
        x = theta(layer).special_value()
        ring = ZpkGroupRing(2, 24, layer.group)
        xr = ring.from_vec(x)
        assert nzd_slack(layer.group, x, 2, 24) == 3
        assert quotient_order_exponent(layer.group, x, 2, 24) == 6
        assert module_order_exponent(PresentationMatrix(ring, [[xr], [ring.one]])) == 0
        assert is_unit(xr, ring) == (False, None)
        assert is_unit(ring.one, ring)[0]
        assert ideal_contains(ring, [xr], ring.mul(xr, xr))
        assert not ideal_contains(ring, [xr], ring.one)
        assert calls == []
        zpk_kernel(mult_matrix(ring, [[xr]]), 2, 24)
        assert calls == [12]

    @staticmethod
    def _theta_one_eliminations(monkeypatch, cfg, N):
        """Run the tower recording every matrix whose Smith exponents are
        read.  Per layer: how often the |G| x |G| matrix of Theta(1) was
        eliminated, and for each Delta-block of Theta(1), (how often its
        matrix was eliminated, whether the block is a unit)."""
        eliminated = []
        exponents = snf.zpk_exponents

        def counted_exponents(mat, p, k):
            eliminated.append(mat)
            return exponents(mat, p, k)

        monkeypatch.setattr(snf, "zpk_exponents", counted_exponents)
        run = run_tower(cfg, N, RunOptions())
        assert run.all_passed
        assert [v["layer"] for v in run.verdicts
                if v["name"] == "class_number_fitting_identity"] == [0]
        p, k = cfg.char, DEFAULT_PRECISION
        out = []
        for layer, tr in zip(run.layers, run.theta_results):
            x = tr.special_value()
            ring = ZpkGroupRing(p, k, layer.group)
            full = mult_matrix(ring, [[ring.from_vec(x)]])
            blocks = [(sum(m == mult_matrix(r, [[img]]) for m in eliminated), r.is_local_unit(img))
                      for r, img in delta_blocks(layer.group, x, p, k)]
            out.append((sum(m == full for m in eliminated), blocks))
        return out

    def test_theta_one_eliminated_once_per_layer(self, monkeypatch):
        # the nzd slack and the geometry suite's quotient order read one
        # exponent list of Theta(1) per layer: the full matrix is never
        # eliminated, each non-unit block once and no unit block at all;
        # on the flagship q = 2 that is one block per layer
        per_layer = self._theta_one_eliminations(monkeypatch, flagship_q2(), 2)
        for n, (full, blocks) in enumerate(per_layer):
            assert full == 0, n
            assert all(count == (0 if unit else 1) for count, unit in blocks), n
            assert sum(count for count, _ in blocks) == 1, n

    def test_flagship_q3_eliminates_no_theta_one_block(self, monkeypatch):
        # Theta(1) is a unit on every block at q = 3, layers 0-1: its
        # P-augmentations certify slack 0 and quotient order 0
        per_layer = self._theta_one_eliminations(monkeypatch, flagship_q3(), 1)
        for n, (full, blocks) in enumerate(per_layer):
            assert full == 0, n
            assert blocks and all(unit and count == 0 for count, unit in blocks), n

    def test_smith_called_in_zpk_kernel_only(self):
        src = Path(__file__).resolve().parent.parent / "src" / "ctower"
        hits = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines() if "zpk_smith(" in line]
        assert hits == [("snf.py", "def zpk_smith(mat, p, k):"),
                        ("snf.py", "vals, V = zpk_smith(mat, p, k)")]

    def test_split_count_matches_inline_expressions(self):
        p = FinitePlace(poly(F3, 1, 0, 1))
        f = poly(F3, 0, 1)
        f_theta = TowerConfig(F3, f, p, default_s(f, p), frozenset({FinitePlace(poly(F3, 1, 1))}))
        q2 = flagship_q2()
        with_inf = TowerConfig(F2, FqPoly.one(F2), q2.p_place, q2.S | {INFINITY}, q2.sigma)
        layers = [build_layer(q2, n) for n in range(3)] + \
            [build_layer(f_theta, 0), build_layer(with_inf, 1)]
        counts = set()
        for layer in layers:
            for chi in characters(layer.group):
                count = layer.split_count(chi)
                predicted = 0
                for v in layer.S:
                    if chi.trivial_on(layer.decomposition_group(v)):
                        predicted += 1
                assert count == predicted
                shadow = all(not chi.trivial_on(layer.decomposition_group(v)) for v in layer.S)
                assert (count == 0) == shadow
                counts.add(count)
        assert counts == {0, 1, 2}

    def test_characters_keep_no_state(self):
        # a Character is its (group, exps): apply_character builds its log
        # table per call, so no orbit rep that a run keeps holds |G| ints
        run = run_tower(flagship_q2(), 2, RunOptions())
        assert run.all_passed
        found = {}

        def walk(value):
            if isinstance(value, grouprings.Character):
                found[id(value)] = value
            elif isinstance(value, dict):
                for item in value.items():
                    walk(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)

        for tr in run.theta_results:
            walk([getattr(tr, k) for k in tr.__slots__ if k != "layer"])
        assert len(found) == 2 + 8 + 20
        # a slotted class: no instance dict can hold a table
        assert grouprings.Character.__slots__ == ("group", "exps")
        assert not any(hasattr(chi, "__dict__") for chi in found.values())

    def test_recompute_skips_character_bounds(self, monkeypatch):
        # the D + 2 verdict reads the divisor-sum tail that theta kept: one
        # degree bound per rational character orbit of each layer, all of
        # them inside theta
        counts = {}
        bound = lfun.per_character_degree_bound

        def counted_bound(layer, chi):
            counts[layer.n] = counts.get(layer.n, 0) + 1
            return bound(layer, chi)

        monkeypatch.setattr(lfun, "per_character_degree_bound", counted_bound)
        run = run_tower(flagship_q2(), 2, RunOptions())
        assert run.all_passed
        assert counts == {0: 2, 1: 8, 2: 20}
        assert counts == {tr.layer.n: len(tr.chi_theta) for tr in run.theta_results}
        recomputes = [v for v in run.verdicts if v["name"] == "theta_recompute_D_plus_2"]
        assert [v["D"] for v in recomputes] == [tr.D + 2 for tr in run.theta_results]

    def test_one_euler_series_per_layer(self, monkeypatch):
        # the window (D, D + 2] comes from the divisor-sum series, so the
        # Euler product runs once per layer, and once for the sigma_alt layer
        calls = []
        series = lfun.euler_series

        def counted_series(layer, D):
            calls.append((layer.n, D))
            return series(layer, D)

        monkeypatch.setattr(lfun, "euler_series", counted_series)
        alt = frozenset({FinitePlace(poly(F2, 1, 1))})
        run = run_tower(flagship_q2(), 2, RunOptions(sigma_alt=alt))
        assert run.all_passed
        assert "sigma_independence" in {v["name"] for v in run.verdicts}
        assert calls[:3] == [(tr.layer.n, tr.D) for tr in run.theta_results]
        assert [n for n, _ in calls] == [0, 1, 2, 0]

    def test_exponent_once_per_group(self):
        # log_value reads the cached exponent; the values are those of the
        # exponent recomputed by the gcd loop on every call
        for n in range(3):
            group = build_layer(flagship_q2(), n).group
            exponent = 1
            for o in group.orders:
                exponent = exponent * o // math.gcd(exponent, o)
            assert group.exponent == math.lcm(*group.orders) == exponent
            assert "exponent" in type(group).__slots__  # stored on the group
            for chi in characters(group):
                for g in group.elements():
                    old = sum(j * e * (exponent // o)
                              for j, e, o in zip(chi.exps, g, group.orders)) % exponent
                    assert chi.log_value(g) == old


class TestAlternativeTowers:
    def test_degree_one_p_degenerate_layer0(self):
        # p = (theta): G_0 is trivial (L_0 = k), G_1 is cyclic of order 3
        p = FinitePlace(poly(F3, 0, 1))
        cfg = TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p),
                          frozenset({FinitePlace(poly(F3, 1, 1))}))
        l0 = build_layer(cfg, 0)
        l1 = build_layer(cfg, 1)
        assert l0.order == 1 and l1.order == 3
        run = run_tower(cfg, 1, RunOptions())
        assert run.all_passed
        # S = {p}: the trivial character does not vanish at u = 1, so
        # Theta(1) = 1 on L_0 = k and the nzd shadow is checked, not refused
        nzd = [v for v in run.verdicts if v["name"] == "special_value_nzd_shadow"]
        assert "refused" not in nzd[0] and nzd[0]["slack_c"] == 0

    def test_degree_three_p_positive_genus(self):
        # q=2, p = theta^3+theta+1: a degree-7 cover with positive genus;
        # the zeta numerator, class number and the charpoly identity all go
        # through the same pipelines
        p = FinitePlace(poly(F2, 1, 1, 0, 1))
        cfg = TowerConfig(F2, FqPoly.one(F2), p, default_s(FqPoly.one(F2), p),
                          frozenset({FinitePlace(poly(F2, 0, 1))}))
        run = run_tower(cfg, 0, RunOptions())
        assert run.all_passed
        zeta_verdict = [v for v in run.verdicts if v["name"] == "zeta_functional_equation"][0]
        assert zeta_verdict["genus"] > 0
        cnf = [v for v in run.verdicts if v["name"] == "class_number_fitting_identity"][0]
        assert "nabla_p_exponent" in cnf


class TestNzdSlack:
    def test_unit_has_zero_slack(self):
        grp = AbelianGroup((4,))
        x = from_mapping(grp, {(0,): 1, (1,): 3})
        assert nzd_slack(grp, x, 3, 8) == 0

    def test_p_has_full_slack(self):
        grp = AbelianGroup((2,))
        x = from_mapping(grp, {(0,): 3})
        # Ann(3) = p^(k-1) R: slack k - (k-1) = 1
        assert nzd_slack(grp, x, 3, 6) == 1

    def test_flagship_special_value(self):
        layer = build_layer(flagship_q3(), 0)
        tr = theta(layer)
        # Theta(1) has unit norm component-wise: trivial annihilator
        assert nzd_slack(layer.group, tr.special_value(), 3, 10) == 0


# The Z/p^k-module front end as it stood before one builder made every
# multiplication matrix: the matrix of x, the relation expansion of a
# presentation and the kernel-based slack, kept verbatim (only the valuation
# helper is renamed) as the oracle for TestModuleReference.  They run on the
# dict-keyed ReferenceZpkGroupRing, so the flat ring is checked against both.
def reference_mult_matrix(ring, x):
    """Columns: vec(x * b_i) for the Z/p^k basis b_i of the ring (a flat
    ring of ctower.grouprings has no to_vec: its elements are their own
    vectors)."""
    to_vec = getattr(ring, "to_vec", list)
    cols = []
    n = ring.basis_size
    for i in range(n):
        e = [0] * n
        e[i] = 1
        b = ring.from_vec(e)
        cols.append(to_vec(ring.mul(x, b)))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def reference_expand_presentation(pm):
    """Relation columns of the underlying Z/p^k-module presentation.

    The module R^g / <rows> over R = Z/p^k[G] is, over Z/p^k, free of rank
    g*|G| modulo the span of all group-translates of the rows.
    """
    ring = pm.ring
    g = pm.ncols
    n = ring.basis_size
    cols = []
    for row in pm.rows:
        for elem in ring.elems:
            translated = []
            for entry in row:
                shifted = ring.mul(entry, {elem: 1})
                translated.extend(ring.to_vec(shifted))
            cols.append(translated)
    return [[cols[j][i] for j in range(len(cols))] for i in range(g * n)] if cols else \
        [[0] for _ in range(g * n)]


def reference_quotient_order_exponent(group, x, p, k):
    """log_p |Z/p^k[G] / (x)|: the cokernel of multiplication by x."""
    ring = ReferenceZpkGroupRing(p, k, group)
    mat = reference_mult_matrix(ring, ring.from_group_ring(x))
    return sum(zpk_cokernel_exponents(mat, p, k))


def _valuation(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def reference_nzd_slack(group, special, p, k):
    """Smallest c with Ann(Theta(1)) contained in p^(k-c) Z/p^k[G]: the
    finite-precision non-zero-divisor slack."""
    ring = ReferenceZpkGroupRing(p, k, group)
    mat = reference_mult_matrix(ring, ring.from_group_ring(special))
    kern = zpk_kernel(mat, p, k)
    slack = 0
    for vec in kern:
        for entry in vec:
            if entry:
                slack = max(slack, k - _valuation(entry, p))
    return slack


class TestModuleReference:
    """One builder and the Smith read-outs agree with the old loops."""

    GROUPS = ((4,), (2,), (3, 2), (4, 3), (9,), (3, 3), (2, 2, 2), (8,))

    @staticmethod
    def _elements(rng, group, p, k):
        """Random elements of Z[G], zero divisors mod p among them."""
        pk = p ** k
        elems = list(group.elements())

        def dense():
            return from_mapping(group, {g: rng.randrange(pk) for g in elems})

        yield from_mapping(group, {})
        for _ in range(6):
            yield dense()
            c = p ** rng.randrange(1, k + 1)
            yield [c * v for v in dense()]
            g = rng.choice(elems)
            one_minus_g = from_mapping(group, {group.identity: 1, g: -1})
            yield reference_product(group, one_minus_g, dense())
            yield from_mapping(group, {h: rng.choice((0, 0, 1, p, p * p)) for h in elems})
        yield from_mapping(group, {h: 1 for h in elems})  # the norm element

    def _assert_agree(self, group, x, p, k):
        ring = ZpkGroupRing(p, k, group)
        ref = ReferenceZpkGroupRing(p, k, group)
        assert mult_matrix(ring, [[ring.from_vec(x)]]) == \
            reference_mult_matrix(ref, ref.from_group_ring(x))
        assert nzd_slack(group, x, p, k) == reference_nzd_slack(group, x, p, k)
        assert quotient_order_exponent(group, x, p, k) == \
            reference_quotient_order_exponent(group, x, p, k)

    def test_random_elements(self):
        rng = random.Random(6)
        for orders in self.GROUPS:
            group = AbelianGroup(orders)
            for p in (2, 3, 5):
                for k in (1, 2, 4, 6):
                    for x in self._elements(rng, group, p, k):
                        self._assert_agree(group, x, p, k)

    def test_random_presentations(self):
        rng = random.Random(7)
        for orders in self.GROUPS:
            group = AbelianGroup(orders)
            for p in (2, 3, 5):
                ring = ZpkGroupRing(p, 2, group)
                ref = ReferenceZpkGroupRing(p, 2, group)
                for nrows, ncols in ((0, 0), (1, 1), (1, 2), (3, 2), (2, 3)):
                    ref_rows = [[{g: rng.randrange(ring.pk) for g in group.elements()}
                                 for _ in range(ncols)] for _ in range(nrows)]
                    ref_pm = PresentationMatrix(ref, ref_rows)
                    rows = [[ring.from_mapping(e) for e in row] for row in ref_rows]
                    pm = PresentationMatrix(ring, rows)
                    mat = mult_matrix(ring, rows)
                    if rows:
                        assert mat == reference_expand_presentation(ref_pm)
                    else:
                        assert mat == []
                    assert module_order_exponent(pm) == \
                        sum(zpk_cokernel_exponents(reference_expand_presentation(ref_pm), p, 2))

    def test_other_rings(self):
        # is_unit and ideal_contains run the builder on every finite ring
        rng = random.Random(8)
        rings = [ZpkGroupRing(3, 4, TRIVIAL_GROUP),
                 PolyGroupRing(5, 3, (1, 0, 1), AbelianGroup((5,))),
                 PolyGroupRing(2, 3, (0, 0, 0, 1), AbelianGroup((2,)))]
        for ring in rings:
            for _ in range(10):
                x = ring.from_vec([rng.randrange(ring.pk) for _ in range(ring.basis_size)])
                assert mult_matrix(ring, [[x]]) == reference_mult_matrix(ring, x)

    @pytest.mark.parametrize("make_cfg, N, slacks, quotients", [
        (flagship_q3, 1, [0, 0], [0, 0]),
        (flagship_q2, 3, [1, 3, 6, 8], [1, 6, 18, 68]),
    ])
    def test_flagship_special_values(self, make_cfg, N, slacks, quotients):
        cfg = make_cfg()
        p, k = cfg.char, 24
        for n in range(N + 1):
            layer = build_layer(cfg, n)
            group, x = layer.group, theta(layer).special_value()
            assert nzd_slack(group, x, p, k) == reference_nzd_slack(group, x, p, k) == slacks[n]
            assert quotient_order_exponent(group, x, p, k) == \
                reference_quotient_order_exponent(group, x, p, k) == quotients[n]
            ring = ZpkGroupRing(p, k, group)
            ref = ReferenceZpkGroupRing(p, k, group)
            assert mult_matrix(ring, [[ring.from_vec(x)]]) == \
                reference_mult_matrix(ref, ref.from_group_ring(x))


def _assert_blocks_agree(group, x, p, k):
    """The block exponents equal the full-matrix oracle, the blocks' ranks
    add up to |G|, and a block is eliminated to no exponent exactly when its
    P-augmentation is nonzero mod p."""
    blocks = delta_blocks(group, x, p, k)
    assert sum(ring.basis_size for ring, _ in blocks) == group.order
    for ring, img in blocks:
        d = ring.deg
        augmentation_unit = any(sum(img[s::d]) % p for s in range(d))
        assert ring.is_local_unit(img) == augmentation_unit
        assert augmentation_unit == (not zpk_cokernel_exponents(mult_matrix(ring, [[img]]), p, k))
    assert quotient_exponents(group, x, p, k) == \
        sorted(reference_quotient_exponents(group, x, p, k))


class TestDeltaBlockReference:
    """quotient_exponents by Delta-blocks against one elimination of the
    |G| x |G| matrix of multiplication by x."""

    def test_random_elements(self):
        rng = random.Random(11)
        for orders in TestModuleReference.GROUPS:
            group = AbelianGroup(orders)
            for p in (2, 3, 5):
                for k in (1, 2, 4, 6):
                    for x in TestModuleReference._elements(rng, group, p, k):
                        _assert_blocks_agree(group, x, p, k)

    @pytest.mark.parametrize("q, p_coeffs, sigma_coeffs, N", [
        ((3, 1), (1, 0, 1), (0, 1), 1),
        ((2, 1), (1, 1, 1), (0, 1), 3),
        ((2, 1), (1, 1, 1), (1, 1), 3),
        ((5, 1), (2, 0, 1), (0, 1), 1),
        ((2, 2), (1, 1), (0, 1), 1),
    ], ids=["q3", "q2-Sigma-x", "q2-Sigma-x+1", "q5", "q4"])
    def test_theta_special_values(self, q, p_coeffs, sigma_coeffs, N):
        F = FqField(*q)
        p_place = FinitePlace(FqPoly(F, p_coeffs))
        cfg = TowerConfig(F, FqPoly.one(F), p_place, default_s(FqPoly.one(F), p_place),
                          frozenset({FinitePlace(FqPoly(F, sigma_coeffs))}))
        for n in range(N + 1):
            layer = build_layer(cfg, n)
            _assert_blocks_agree(layer.group, theta(layer).special_value(), cfg.char, 24)

    def test_packed_exponents_on_theta_one_blocks(self):
        # the packed pass against the triangular pass on the Theta(1) blocks
        # of the flagship q = 2 through n = 4: every block through n = 3,
        # and the non-unit 256 x 256 block at n = 4
        sizes = []
        for n in range(5):
            layer = build_layer(flagship_q2(), n)
            x = theta(layer).special_value()
            for ring, img in delta_blocks(layer.group, x, 2, DEFAULT_PRECISION):
                if n < 4 or not ring.is_local_unit(img):
                    mat = mult_matrix(ring, [[img]])
                    assert snf.zpk_exponents(mat, 2, DEFAULT_PRECISION) == \
                        triangular_exponents(mat, 2, DEFAULT_PRECISION), (n, ring.deg)
                    sizes.append(len(mat))
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256]

    def test_needs_the_p_split(self):
        # C6 has a generator of order 6, neither prime to 2 nor a power of 2
        c6 = AbelianGroup((6,))
        with pytest.raises(ValueError):
            quotient_exponents(c6, from_mapping(c6, {(0,): 1}), 2, 4)


class TestCoherentNzd:
    def test_zp_chain_holds(self):
        # R_m = Z/p^(m+3), alpha = p
        sys = zpk_chain_system(3, [3, 4, 5, 6], {(): 3})
        rep = coherent_nzd_check(sys)
        assert rep.precondition_ok
        assert rep.conclusion_ok

    def test_constant_chain_trivial(self):
        sys = zpk_chain_system(2, [4, 4, 4], {(): 1})  # alpha = 1: unit, ideal = R
        rep = coherent_nzd_check(sys)
        assert rep.passed

    def test_zero_divisor_flagged(self):
        # constant-precision chain with alpha = p: the annihilator p^(k-1)
        # survives the (identity) transition: precondition fails
        sys = zpk_chain_system(2, [3, 3, 3], {(): 2})
        rep = coherent_nzd_check(sys)
        assert not rep.precondition_ok and not rep.passed

    def test_group_ring_chain(self):
        grp = AbelianGroup((2,))
        alpha = {(0,): 2}  # p in Z/2^k[C2]
        sys = zpk_chain_system(2, [2, 3, 4], alpha, grp)
        rep = coherent_nzd_check(sys)
        assert rep.passed

    def test_unit_times_p_chain(self):
        # alpha = u*p with u = 1 + p: still passes
        sys = zpk_chain_system(3, [3, 4, 5], {(): 3 * 4})
        rep = coherent_nzd_check(sys)
        assert rep.passed

    def test_extra_matches_the_enumeration(self):
        # the 20 battery systems, three whose limit ideal is larger than
        # alpha_T R_T, and a system of one ring
        _, n, draw, _, _ = tower.battery_sections(0)[4]
        c2 = AbelianGroup((2,))
        params = [draw(None, i)[:4] for i in range(n)] + [
            (3, [2, 3], c2, {(0,): 1, (1,): 1}),
            (3, [2, 3, 4], c2, {(0,): 1, (1,): 1}),
            (3, [1, 2], c2, {(0,): 3, (1,): 3}),
            (3, [3], c2, {(0,): 3, (1,): 6}),
        ]
        extras = []
        for p, ks, group, alpha in params:
            sys = zpk_chain_system(p, ks, alpha, group)
            extra = reference_coherent_extra(sys)
            # the conclusion holds exactly when the enumeration finds no extra
            assert coherent_nzd_check(sys).conclusion_ok == (extra == 0), (p, ks, alpha)
            extras.append(extra)
        assert extras[:n] == [0] * n
        assert extras[n:] == [54, 162, 6, 702]

    def test_incoherent_alpha_rejected(self):
        rings = [ZpkGroupRing(2, 3, TRIVIAL_GROUP), ZpkGroupRing(2, 4, TRIVIAL_GROUP)]
        with pytest.raises(ValueError):
            ToyProjectiveSystem(rings=rings, transitions=[rings[0].from_vec],
                                alpha=[[1], [3]])


def sharp_projector(ring, delta_idx):
    """1 - e_Delta in Z/p^k[G]: x -> (1 - e_Delta) x projects onto the sharp part."""
    e = delta_idempotent(ring.group, delta_idx, ring.p, ring.k)
    return ring.sub(ring.one, ring.from_vec(e))


class TestSharpProjection:
    def test_element_idempotent(self):
        grp = AbelianGroup((3, 2))
        ring = ZpkGroupRing(2, 6, grp)
        proj = sharp_projector(ring, (0,))
        x = ring.from_mapping({k: 7 for k in grp.elements()})
        s = ring.mul(proj, x)
        assert ring.mul(proj, s) == s

    def test_delta_fixed_element_dies(self):
        # (1 - e_Delta) of a Delta-fixed element is 0
        grp = AbelianGroup((3,))
        ring = ZpkGroupRing(2, 8, grp)
        x = ring.from_mapping({(0,): 1, (1,): 1, (2,): 1})  # norm element
        assert ring.mul(sharp_projector(ring, (0,)), x) == ring.zero

    def test_presentation(self):
        grp = AbelianGroup((3,))
        ring = ZpkGroupRing(2, 6, grp)
        pm = PresentationMatrix(ring, [[ring.scale_int(2, ring.one)]])
        sharp = sharp_presentation(pm, (0,))
        # Z/2 with trivial action lives in the e_Delta part: sharp kills it...
        # here the module is Z/2[C3]-free rank 1 mod 2: both parts survive;
        # the order splits as |M| = |e M| * |M sharp|
        total = module_order_exponent(pm)
        s = module_order_exponent(sharp)
        e = module_order_exponent(e_delta_presentation(pm, (0,)))
        assert total == s + e

    def test_p_dividing_delta_rejected(self):
        with pytest.raises(ValueError, match="p divides"):
            sharp_projector(ZpkGroupRing(2, 4, AbelianGroup((2,))), (0,))


class TestAlgebraSuiteReference:
    """The battery's checks on the flat ring, fed the draws of one seeded
    stream in section and case order, make the calls of the dict-keyed
    ring: every ideal_equal, is_unit and module_order_exponent call with its
    arguments as coefficient vectors and its result matches what the
    dict-keyed code produced (pinned below).  algebra_suite, which draws
    each chunk from its own stream, passes every section."""

    VERDICTS = [
        {"name": "fitting_presentation_invariance", "cases": 200, "ring": "Z/3^6[G[4]]"},
        {"name": "fitting_direct_sum", "cases": 200},
        {"name": "fitting_base_change", "cases": 200},
        {"name": "matrix_lifting_lemma", "cases": 200, "precisions": (8, 4)},
        {"name": "coherent_nzd_systems", "systems": 20},
        {"name": "sharp_kills_trivial_action", "d_s_values": (2, 4, 6)},
        {"name": "sharp_exactness_ses", "systems": 20},
    ]
    TRANSCRIPTS = {
        0: "42600f4c33bf8f595fcefe67ec8ab2ff2163063070296ac920e52cc7ec9b1206",
        1: "c7fd04521175422b9456042007115e0c429881c4430a7138a1e3562924f4dc6f",
    }

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_draws_are_randrange_draws(self, k):
        # _rand_vecs runs randrange's getrandbits rejection loop inline: the
        # same coefficients, and the stream left in the same state
        for orders in ((), (4,), (2, 3)):
            ring = ZpkGroupRing(3, k, AbelianGroup(orders))
            for seed in range(4):
                a, b = random.Random(seed), random.Random(seed)
                vecs = [[b.randrange(3 ** k) for _ in range(ring.basis_size)] for _ in range(7)]
                assert tower._rand_vecs(a, ring, 7) == vecs
                assert a.getrandbits(64) == b.getrandbits(64)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_draws_and_verdicts(self, seed, monkeypatch):
        expected = [{"layer": None, "passed": True, "shadows": "exact algebra property", **v}
                    for v in self.VERDICTS]
        assert tower.algebra_suite(seed, cases=200) == expected
        # the dict-keyed battery drew every case from one random.Random(seed)
        log = record_battery_calls(monkeypatch)
        rng = random.Random(seed)
        results = [check(draw(rng, i))
                   for _, n, draw, check, _ in tower.battery_sections(200) for i in range(n)]
        assert all(results)
        assert len(log) == 1143
        assert hashlib.sha256(json.dumps(log).encode()).hexdigest() == self.TRANSCRIPTS[seed]

    def test_eliminations_come_from_the_lifting_lemma(self, monkeypatch):
        # the three Fitting sections compare generators that agree up to
        # sign, which ideal_contains accepts without a solve; the lifting
        # lemma's two is_unit calls per case are the battery's only solves
        current, solves = [None], []
        sections, solve = tower.battery_sections, grouprings.zpk_solve

        def labelled(*args):
            out = []
            for name, n, draw, check, details in sections(*args):
                def check_in(inputs, name=name, check=check):
                    current[0] = name
                    return check(inputs)
                out.append((name, n, draw, check_in, details))
            return out

        def spy(*args):
            solves.append(current[0])
            return solve(*args)

        monkeypatch.setattr(tower, "battery_sections", labelled)
        monkeypatch.setattr(grouprings, "zpk_solve", spy)
        tower.algebra_suite(0, cases=200)
        assert len(solves) == 400
        assert set(solves) == {"matrix_lifting_lemma"}


def record_battery_calls(monkeypatch):
    """Log every ideal_equal, is_unit and module_order_exponent call of the
    battery with its arguments as coefficient vectors and its result."""
    log = []

    def recorded(name, fn, vectors):
        def wrapped(*args):
            result = fn(*args)
            log.append((name, *vectors(*args), result[0] if name == "is_unit" else result))
            return result
        return wrapped

    monkeypatch.setattr(tower, "ideal_equal", recorded(
        "ideal_equal", tower.ideal_equal,
        lambda I, J, ring: ([list(g) for g in I], [list(g) for g in J])))
    monkeypatch.setattr(tower, "is_unit", recorded(
        "is_unit", tower.is_unit, lambda x, ring: (list(x),)))
    monkeypatch.setattr(tower, "module_order_exponent", recorded(
        "module_order_exponent", tower.module_order_exponent,
        lambda pm: ([[list(e) for e in row] for row in pm.rows],)))
    return log


class TestDrainBattery:
    """Any split of the chunk plan between two drains, in any claim order,
    draws the same inputs and reaches the same verdicts as the battery in
    one process: each chunk draws from its own seeded stream."""

    SPLITS = {
        "alternate": lambda n: [range(0, n, 2), range(1, n, 2)],
        "all_to_one": lambda n: [range(n), []],
        "one_then_rest": lambda n: [[0], range(1, n)],
        "last_to_second": lambda n: [range(n - 1), [n - 1]],
        "descending": lambda n: [range(n - 1, -1, -2), range(n - 2, -1, -2)],
    }
    # sha256 of the ideal_equal, is_unit and module_order_exponent calls of
    # the 200-case battery (record_battery_calls), in chunk order
    TRANSCRIPTS = {
        0: "2d3ff1dd11f0079ac166933f1a13542a1df14d3ff314b0ff0e0f3a2153379e94",
        1: "77bdb10701d06969f6bfdf029a78110ebf0dd2fbef7719d94e05e1930ee4e82f",
    }

    @pytest.mark.parametrize("split", sorted(SPLITS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_keeps_transcript_and_verdicts(self, seed, split, monkeypatch):
        log = record_battery_calls(monkeypatch)
        verdicts = tower.algebra_suite(seed, cases=200)
        reference = log[:]
        del log[:]
        sections = tower.battery_sections(200)
        chunks = tower.battery_chunks(sections)
        per_chunk = {}
        drains = []
        # the drains run one after the other; each claim marks where the
        # log entries of the claimed chunk start
        for share in self.SPLITS[split](len(chunks)):
            order = iter(share)
            starts = []

            def claim():
                c = next(order, None)
                starts.append((c, len(log)))
                return c

            drains.append(tower.drain_battery(seed, sections, chunks, claim))
            for (c, start), (_, stop) in zip(starts, starts[1:]):
                per_chunk[c] = log[start:stop]
        transcript = [entry for c in sorted(per_chunk) for entry in per_chunk[c]]
        assert drains == [[None] * len(sections)] * 2
        assert tower.battery_verdicts(sections, *drains) == verdicts == [
            {"layer": None, "passed": True, "shadows": "exact algebra property", **v}
            for v in TestAlgebraSuiteReference.VERDICTS]
        assert transcript == reference
        assert len(transcript) == 1143
        assert hashlib.sha256(json.dumps(transcript).encode()).hexdigest() == \
            self.TRANSCRIPTS[seed]

    @pytest.mark.parametrize("cases", [0, 1, 5, 200, 4000])
    def test_chunk_plan_covers_every_case_once(self, cases):
        sections = tower.battery_sections(cases)
        chunks = tower.battery_chunks(sections)
        assert len(chunks) <= tower.MAX_CHUNKS
        for s, (_, n, _, _, _) in enumerate(sections):
            ranges = [(start, stop) for t, start, stop in chunks if t == s]
            assert [i for start, stop in ranges for i in range(start, stop)] == list(range(n))
            assert all(start < stop for start, stop in ranges)
        assert [s for s, _, _ in chunks] == sorted(s for s, _, _ in chunks)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_chunk_alone_draws_its_full_drain_inputs(self, seed):
        # every check passes at once, and every draw is logged by chunk
        drawn = []

        def logged(draw):
            def wrapped(rng, i):
                inputs = draw(rng, i)
                drawn.append((i, inputs))
                return inputs
            return wrapped

        sections = [(name, n, logged(draw), lambda inputs: True, details)
                    for name, n, draw, _, details in tower.battery_sections(200)]
        chunks = tower.battery_chunks(sections)
        order, starts = iter(range(len(chunks))), []

        def claim():
            starts.append(len(drawn))
            return next(order, None)

        tower.drain_battery(seed, sections, chunks, claim)
        full = [drawn[a:b] for a, b in zip(starts, starts[1:])]
        assert len(full) == len(chunks)
        for c in range(len(chunks)):
            del drawn[:]
            alone = iter([c])
            tower.drain_battery(seed, sections, chunks, lambda: next(alone, None))
            assert drawn == full[c]

    def _drains(self, section, check, splits, draw=None):
        """The sections of the 5-case battery with the check (and the draw)
        of one section replaced, and their drains, one per list of claimed
        chunks that splits(chunk plan) returns, run in turn."""
        sections = tower.battery_sections(5)
        name, n, old_draw, _, details = sections[section]
        sections[section] = (name, n, draw or old_draw, check, details)
        chunks = tower.battery_chunks(sections)
        drains = []
        for share in splits(chunks):
            order = iter(share)
            drains.append(tower.drain_battery(0, sections, chunks, lambda: next(order, None)))
        return sections, drains

    def test_failed_check_fails_its_section_only(self):
        sections, [drain] = self._drains(1, lambda inputs: False,
                                         lambda chunks: [range(len(chunks))])
        assert drain == [None, (0, None), None, None, None, None, None]
        verdicts = tower.battery_verdicts(sections, drain)
        assert [v["passed"] for v in verdicts] == [True, False, True, True, True, True, True]
        assert verdicts[1] == {"name": "fitting_direct_sum", "layer": None, "passed": False,
                               "shadows": "exact algebra property", "cases": 5,
                               "first_failure": 0}

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError, ZeroDivisionError])
    def test_raising_check_is_a_failed_case(self, error):
        def check(inputs):
            raise error("no such ring")

        sections, [drain] = self._drains(3, check, lambda chunks: [range(len(chunks))])
        assert drain == [None] * 3 + [(0, f"{error.__name__}: no such ring")] + [None] * 3
        verdict = tower.battery_verdicts(sections, drain)[3]
        assert (verdict["passed"], verdict["first_failure"], verdict["error"]) == \
            (False, 0, f"{error.__name__}: no such ring")

    def test_other_errors_escape(self):
        def check(inputs):
            raise TypeError("not a verdict")

        with pytest.raises(TypeError, match="not a verdict"):
            self._drains(3, check, lambda chunks: [range(len(chunks))])

    def test_descending_claims_report_the_lowest_failure(self):
        # cases 1 and 3 of the lifting section fail; a drain that claims the
        # chunks from the last down meets case 3 first, and reports case 1
        sections, [drain] = self._drains(3, lambda i: i not in (1, 3),
                                         lambda chunks: [range(len(chunks) - 1, -1, -1)],
                                         draw=lambda rng, i: i)
        assert drain == [None] * 3 + [(1, None)] + [None] * 3

    @pytest.mark.parametrize("mine, records", [
        ([1, 3], [(1, None), None]),
        ([0, 2, 4], [None, (1, None)]),
        ([3], [(3, "ValueError: case 3"), (1, None)]),
        ([0, 1, 2, 3, 4], [(1, None), None]),
        ([], [None, (1, None)]),
    ], ids=["13", "024", "3", "all", "none"])
    def test_lowest_failing_case_of_any_drain_is_reported(self, mine, records):
        # cases 1 and 3 of the lifting section fail, 3 by an error; one drain
        # runs the lifting cases in mine, the other the rest.  Either way the
        # verdict names case 1, with no error
        def check(i):
            if i == 3:
                raise ValueError("case 3")
            return i != 1

        def splits(chunks):
            # the lifting section has one case per chunk
            lifting = [c for c, (s, _, _) in enumerate(chunks) if s == 3]
            first = [c for c in range(len(chunks)) if c not in lifting] + \
                [lifting[i] for i in mine]
            return [sorted(first), [c for c in range(len(chunks)) if c not in first]]

        sections, drains = self._drains(3, check, splits, draw=lambda rng, i: i)
        assert [drain[3] for drain in drains] == records
        verdict = tower.battery_verdicts(sections, *drains)[3]
        assert (verdict["passed"], verdict["first_failure"], "error" in verdict) == \
            (False, 1, False)
