"""Two past parts of ctower.geometry, kept as oracles.

reference_count_points_model is the model point count as it stood before it
counted one fiber per Frobenius orbit, the oracle that count_points_model is
tested against: the same field, fiber count and table bookkeeping, but every
theta0 of F_(q^i) visited once, its indices 0..q^i - 1 in order.

reference_discriminant is Res_X(F, dF/dX) over A, the Sylvester determinant
by fraction-free Bareiss elimination, as curve_model computed it before the
plane model's smoothness was checked fiber by fiber.  It is the oracle of
that check: a place off S divides it exactly when the fiber above it has a
multiple root.
"""

from ctower.carlitz import AXPoly
from ctower.ffpoly import INFINITY, FqField, FqPoly, irreducibles_of_degree
from ctower.geometry import DEFAULT_POINT_BUDGET, FiberMismatchError, _fiber_root_count


def _poly_det_bareiss(mat):
    """Fraction-free determinant of a matrix of FqPoly (exact division)."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    F = mat[0][0].field
    m = [row[:] for row in mat]
    sign = 1
    prev = FqPoly.one(F)
    for t in range(n - 1):
        if m[t][t].is_zero():
            swap = next((i for i in range(t + 1, n) if not m[i][t].is_zero()), None)
            if swap is None:
                return FqPoly.zero(F)
            m[t], m[swap] = m[swap], m[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                num = m[i][j] * m[t][t] - m[i][t] * m[t][j]
                quo, rem = divmod(num, prev)
                if not rem.is_zero():
                    raise ArithmeticError("Bareiss division failed")
                m[i][j] = quo
            m[i][t] = FqPoly.zero(F)
        prev = m[t][t]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant_x(a: AXPoly, b: AXPoly) -> FqPoly:
    """Res_X(a, b) over A via the Sylvester determinant."""
    F = a.field
    da, db = a.degree, b.degree
    if da < 0 or db < 0:
        return FqPoly.zero(F)
    n = da + db
    rows = []
    for i in range(db):
        row = [FqPoly.zero(F)] * n
        for j in range(da + 1):
            row[i + j] = a[da - j]
        rows.append(row)
    for i in range(da):
        row = [FqPoly.zero(F)] * n
        for j in range(db + 1):
            row[i + j] = b[db - j]
        rows.append(row)
    return _poly_det_bareiss(rows)


def reference_discriminant(fpoly: AXPoly) -> FqPoly:
    """Res_X(F, dF/dX) in A, F the plane model."""
    return resultant_x(fpoly, fpoly.derivative_x())


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
                return _fiber_root_count(fiber, q, i, False), idx
        return _fiber_root_count(fiber, q, i, False), None

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
