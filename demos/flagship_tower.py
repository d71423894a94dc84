"""The q = 3 flagship tower: p = theta^2 + 1, S = {p}, Sigma = {(theta)}.

Builds layers 0 and 1, computes the equivariant L-polynomials, and runs
the functoriality and order-of-vanishing checks.
"""

from ctower.ffpoly import FinitePlace, FqField, FqPoly
from ctower.grouprings import characters, group_index
from ctower.lfun import functoriality_check, order_of_vanishing_check, theta
from ctower.rayclass import TowerConfig, build_layer, default_s, layer_projection

F3 = FqField(3)
p = FinitePlace(FqPoly(F3, (1, 0, 1)))
sigma = frozenset({FinitePlace(FqPoly(F3, (0, 1)))})
cfg = TowerConfig(F3, FqPoly.one(F3), p, default_s(FqPoly.one(F3), p), sigma)


def show(group, x):
    """x in Z[G], a coefficient list in group_index order, as c*g[e] terms."""
    elems, _ = group_index(group)
    return " + ".join(f"{v}*g{list(g)}" for g, v in zip(elems, x) if v) or "0"


print("== layers ==")
layers = {}
for n in (0, 1):
    layers[n] = build_layer(cfg, n)
    print(f"G_{n}: order {layers[n].order}, generator orders "
          f"{list(layers[n].group.orders)} (Delta coords {layers[n].delta_idx}, "
          f"p-part coords {layers[n].p_idx})")

print()
print("== equivariant L-polynomials ==")
trs = {}
for n in (0, 1):
    trs[n] = theta(layers[n])
    print(f"Theta^({n})(u): degree {len(trs[n].theta) - 1} "
          f"(bound {trs[n].bound}, enumerated to D = {trs[n].D})")
    for i, c in enumerate(trs[n].theta):
        print(f"  u^{i}: {show(layers[n].group, c)}")

print()
print("== functoriality: project layer 1 onto layer 0 ==")
lm = layer_projection(layers[1], layers[0])
print("projected Theta^(1) equals Theta^(0):",
      functoriality_check(trs[1], trs[0], lm).equal)

print()
print("== special values ==")
for n in (0, 1):
    sv = trs[n].special_value()
    print(f"Theta^({n})(1) = {show(layers[n].group, sv)}  (augmentation {sum(sv)})")

print()
print("== order of vanishing at u = 1 (p is totally ramified, so every")
print("   nontrivial character must give a nonvanishing value) ==")
for chi in characters(layers[1].group):
    if chi.is_trivial():
        continue
    mult, predicted = order_of_vanishing_check(layers[1], trs[1], chi)
    assert mult == predicted == 0
print("all", layers[1].order - 1, "nontrivial characters: multiplicity 0 as predicted")
