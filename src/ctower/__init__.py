"""Exact arithmetic for Carlitz cyclotomic towers over F_q(theta).

Subpackages mirror the pipeline: ffpoly (F_q[theta] arithmetic), zpoly
(Z[u] and Z/m[u] arithmetic), carlitz (twisted polynomials and the Carlitz
module), rayclass (finite Galois layers of the tower), grouprings (exact
group-ring / cyclotomic / Z/p^k algebra), lfun (equivariant L-polynomials),
geometry (point-counting oracle), tower (multi-layer verification runs) and
cli.
"""

__version__ = "0.1.0"
