"""A tour of the Carlitz module over F_3[theta].

The Carlitz module is the function-field analogue of the multiplicative
group: its torsion points generate the analogues of cyclotomic fields.
"""

from ctower.carlitz import cyclotomic_poly, real_generator_minpoly, rho, rho_as_additive_poly
from ctower.ffpoly import FqField, FqPoly, unit_count

F3 = FqField(3)
theta = FqPoly.gen(F3)

print("== the Carlitz module rho: A -> A{tau}, rho(theta) = theta + tau ==")
print("rho(theta)        =", rho(theta))
print("rho(theta^2)      =", rho(theta * theta))
print("rho(theta^2 + 1)  =", rho(theta * theta + FqPoly.one(F3)))

print()
print("== as F_q-linear polynomials (tau^i acts as the q^i-power map) ==")
m = theta * theta + FqPoly.one(F3)   # theta^2 + 1, irreducible over F_3
print("rho_m(X) =", rho_as_additive_poly(m))

print()
print("== torsion: rho_m has q^deg(m) = 9 roots, forming a module A/m ==")
print("additive polynomial degree:", rho_as_additive_poly(m).degree)
print("its X-derivative is the constant m (separability):",
      rho_as_additive_poly(m).derivative_x())

print()
print("== the cyclotomic polynomial of conductor m ==")
print("phi_m(X) =", cyclotomic_poly(m))
print("degree = Phi(m) = |(A/m)^x| =", unit_count(m))

print()
print("== the real-subfield generator e = lambda^(q-1) ==")
mp = real_generator_minpoly(m)
print("minimal polynomial of e over k:", mp)
print("degree = Phi(m)/(q-1) =", mp.degree)
print()
print("This quartic is the plane model of the first real tower layer used")
print("by the point-counting oracle.")
