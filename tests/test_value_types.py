"""The five value types of the package compare and hash by their fields:
AbelianGroup, FinitePlace, Character, TowerConfig and EulerFactor.  They key
dicts and lru_caches, so equal fields must give equal objects with equal
hashes, and a change of any one field must give an unequal object."""

import pytest

from ctower.abelian import AbelianGroup
from ctower.ffpoly import INFINITY, FinitePlace, FqField, FqPoly
from ctower.grouprings import Character, _det_plan, delta_orbits, group_index
from ctower.lfun import EulerFactor
from ctower.rayclass import TowerConfig

F2 = FqField(2)
F3 = FqField(3)


def place(field, *coeffs):
    return FinitePlace(FqPoly(field, coeffs))


def tower_config(field, f, p, S, sigma):
    """A TowerConfig built from fresh objects for every field."""
    return TowerConfig(field, FqPoly(field, f), place(field, *p),
                       frozenset(place(field, *v) for v in S),
                       frozenset(place(field, *v) for v in sigma))


# name -> (make, fields, variants): make(*fields) builds the value from
# fresh objects; each variant changes one field
VALUES = {
    "AbelianGroup": (lambda orders: AbelianGroup(tuple(orders)),
                     ([4, 3],), [([3, 4],), ([4],)]),
    "FinitePlace": (lambda field, coeffs: place(field, *coeffs),
                    (F3, [1, 0, 1]), [(F3, [1, 1]), (F2, [1, 0, 1])]),
    "Character": (lambda orders, exps: Character(AbelianGroup(tuple(orders)), tuple(exps)),
                  ([4, 3], [1, 2]), [([4, 3], [1, 1]), ([4, 5], [1, 2])]),
    "TowerConfig": (tower_config,
                    (F3, [1], [1, 0, 1], [[1, 0, 1]], [[0, 1]]),
                    [(F3, [1], [1, 0, 1], [[1, 0, 1], [2, 1]], [[0, 1]]),
                     (F3, [1], [1, 0, 1], [[1, 0, 1]], [[1, 1]]),
                     (F3, [0, 1], [1, 0, 1], [[1, 0, 1], [0, 1]], [[1, 1]]),
                     (F3, [1], [2, 1, 1], [[2, 1, 1]], [[0, 1]])]),
    "EulerFactor": (lambda degree, frob, mode: EulerFactor(degree, tuple(frob), mode),
                    (2, [1, 0], "S-inverse"),
                    [(1, [1, 0], "S-inverse"), (2, [0, 1], "S-inverse"),
                     (2, [1, 0], "Sigma-forward")]),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values(name):
    make, fields, _ = VALUES[name]
    a, b = make(*fields), make(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: name}[b] == name
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", VALUES)
def test_unequal_fields_give_unequal_values(name):
    make, fields, variants = VALUES[name]
    a = make(*fields)
    for variant in variants:
        b = make(*variant)
        assert a != b and b != a and not a == b
        assert b not in {a: name}
    assert a != fields and a != INFINITY and a is not None


def test_groups_key_the_group_caches():
    # an equal group built anew finds the entry of the first one
    group = AbelianGroup((4, 3))
    assert group_index(AbelianGroup((4, 3))) is group_index(group)
    assert delta_orbits(AbelianGroup((4, 3)), 2) is delta_orbits(group, 2)
    assert group_index(AbelianGroup((3, 4))) is not group_index(group)
    plan = _det_plan(group.orders, 2, 9)
    assert _det_plan(AbelianGroup((4, 3)).orders, 2, 9) is plan


def test_characters_key_dicts():
    group = AbelianGroup((4,))
    values = {Character(group, (j,)): j for j in range(4)}
    assert [values[Character(AbelianGroup((4,)), (j,))] for j in range(4)] == [0, 1, 2, 3]
    assert Character(group, (1,)).power(3) == Character(group, (3,))
