"""The finite-layer class-number identity, computed by two independent
pipelines.

Pipeline 1 (geometry): count points on an explicit plane model of the
layer curve by brute force, reconstruct the zeta numerator through Newton
identities, read off the class number, and assemble the order of the
divisor-class extension module.

Pipeline 2 (L-functions): compute Theta_{S,Sigma}(u) as an Euler product,
specialize at u = 1, and measure the Fitting quotient
|Z/p^k[G]/(Theta(1))|.

The two p-valuations must agree exactly.
"""

from ctower.ffpoly import FinitePlace, FqField, FqPoly
from ctower.geometry import (
    count_points_model,
    count_points_splitting,
    curve_model,
    nabla_order,
    s_divisor_data,
    zeta_numerator,
)
from ctower.grouprings import quotient_order_exponent
from ctower.lfun import theta
from ctower.rayclass import TowerConfig, build_layer, default_s

for q, p_coeffs, label in ((3, (1, 0, 1), "q=3, p=theta^2+1"),
                           (2, (1, 1, 1), "q=2, p=theta^2+theta+1")):
    F = FqField(q)
    p = FinitePlace(FqPoly(F, p_coeffs))
    cfg = TowerConfig(F, FqPoly.one(F), p, default_s(FqPoly.one(F), p),
                      frozenset({FinitePlace(FqPoly(F, (0, 1)))}))
    layer = build_layer(cfg, 0)
    print(f"== {label}: layer 0, group of order {layer.order} ==")

    model = curve_model(layer)
    print("plane model:", model.fpoly)
    counts = []
    for i in range(1, 7):
        nm = count_points_model(model, i)
        ns = count_points_splitting(layer, i)
        assert nm == ns
        counts.append(nm)
    print("point counts (model == splitting):", counts)

    z = zeta_numerator(counts, q)
    print(f"zeta numerator {z.numerator}, genus {z.genus}, class number h = {z.h}")

    sdiv = s_divisor_data(layer)
    nab = nabla_order(layer, z, sdiv)
    print(f"place above p has degree {sdiv.d_s}; hypotheses: {nab.hypotheses}")
    print(f"pipeline 1: nabla order has p-valuation {nab.total_p_exponent}")

    tr = theta(layer)
    quot = quotient_order_exponent(layer.group, tr.special_value(), F.p, 24)
    print(f"pipeline 2: |Z/p^24[G]/(Theta(1))| has p-valuation {quot}")
    assert quot == nab.total_p_exponent
    print("identity verified.\n")
