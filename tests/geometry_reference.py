"""The model point count of ctower.geometry as it stood before it counted
one fiber per Frobenius orbit, kept as the oracle that count_points_model is
tested against: the same field, fiber count and table bookkeeping, but every
theta0 of F_(q^i) visited once, its indices 0..q^i - 1 in order.
"""

from ctower.ffpoly import INFINITY, FqField, FqPoly, irreducibles_of_degree
from ctower.geometry import DEFAULT_POINT_BUDGET, FiberMismatchError, _fiber_root_count


def reference_count_points_model(model, i: int, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """F_(q^i)-points of the smooth model, one fiber per element of F_(q^i)."""
    field = model.field
    q = field.q
    if q ** i > budget:
        raise ValueError(f"q^i = {q ** i} exceeds the point-count budget {budget}")
    ext = FqField.extension(field, next(irreducibles_of_degree(field, i)).gen.coeffs)
    xcoeffs = model.fpoly.coeffs
    finite_places = model.layer.finite_s()
    exc_polys = [v.gen for v in finite_places]

    def _eval_coeff(c: FqPoly, theta0):
        val = 0
        for cc in reversed(c.coeffs):
            val = ext.add(ext.mul(val, theta0), cc)
        return val

    def fiber_contribution(theta0):
        fiber = FqPoly(ext, [_eval_coeff(c, theta0) for c in xcoeffs])
        for idx, g in enumerate(exc_polys):
            if _eval_coeff(g, theta0) == 0:
                return _fiber_root_count(fiber, q, i), idx
        return _fiber_root_count(fiber, q, i), None

    points = 0
    exceptional_affine = {}
    for th in range(q ** i):
        cnt, idx = fiber_contribution(th)
        if idx is None:
            points += cnt
        else:
            exceptional_affine[idx] = exceptional_affine.get(idx, 0) + cnt

    for idx, v in enumerate(finite_places):
        dw, cnt = model.exceptional[v]
        expected = dw * cnt if i % dw == 0 else 0
        affine = exceptional_affine.get(idx, 0)
        if v.degree <= i and i % v.degree == 0 and affine != expected:
            raise FiberMismatchError(
                f"fiber above {v!r}: affine count {affine} != table count {expected}")
        points += expected
    dw, cnt = model.exceptional[INFINITY]
    if i % dw == 0:
        points += dw * cnt
    return points
