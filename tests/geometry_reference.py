"""The model point count of ctower.geometry as it stood before it counted
one fiber per Frobenius orbit, kept as the oracle that count_points_model is
tested against: the same fiber count and table bookkeeping, but every
theta0 of F_(q^i) visited once, its log codes 0..q^i - 1 in order.
"""

from ctower.ffpoly import INFINITY, FqPoly
from ctower.geometry import DEFAULT_POINT_BUDGET, FiberMismatchError, _ext_ops, _fiber_root_count


def reference_count_points_model(model, i: int, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """F_(q^i)-points of the smooth model, one fiber per element of F_(q^i)."""
    field = model.field
    q = field.q
    if q ** i > budget:
        raise ValueError(f"q^i = {q ** i} exceeds the point-count budget {budget}")
    ops = _ext_ops(field, i)
    add, mul, embed, zero = ops["add"], ops["mul"], ops["embed"], ops["zero"]
    xcoeffs = model.fpoly.coeffs
    finite_places = model.layer.finite_s()
    exc_polys = [v.gen for v in finite_places]

    def _eval_coeff(c: FqPoly, theta0):
        val = zero
        for cc in reversed(c.coeffs):
            val = add(mul(val, theta0), embed(cc))
        return val

    def fiber_contribution(theta0):
        coeffs = [_eval_coeff(c, theta0) for c in xcoeffs]
        for idx, g in enumerate(exc_polys):
            if _eval_coeff(g, theta0) == zero:
                return _fiber_root_count(coeffs, ops, i, q), idx
        return _fiber_root_count(coeffs, ops, i, q), None

    points = 0
    exceptional_affine = {}
    for th in range(q ** i):
        cnt, idx = fiber_contribution(th)
        if idx is None:
            points += cnt
        else:
            exceptional_affine[idx] = exceptional_affine.get(idx, 0) + cnt

    for idx, v in enumerate(finite_places):
        expected = sum(dw * cnt for dw, cnt in model.exceptional[v] if i % dw == 0)
        affine = exceptional_affine.get(idx, 0)
        if v.degree <= i and i % v.degree == 0 and affine != expected:
            raise FiberMismatchError(
                f"fiber above {v!r}: affine count {affine} != table count {expected}")
        points += expected
    for dw, cnt in model.exceptional[INFINITY]:
        if i % dw == 0:
            points += dw * cnt
    return points
