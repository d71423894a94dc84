"""Exact linear algebra: elimination over Z/p^k and Hensel lifting of
polynomial factorizations mod p^k.

Z/p^k is a local principal ideal ring, so Gaussian elimination with
minimal-valuation pivoting (the first entry of least valuation, row-major)
yields a Smith form diag(p^v_1, ..., p^v_r) with v_1 <= v_2 <= ... and no
integer coefficient blowup.  There are two passes.

The exponent pass (zpk_exponents, and through it zpk_cokernel_exponents,
whose sum is log_p of the cokernel's order and whose maximum is the
annihilator slack of a multiplication map) packs each row into one int and
takes unit pivots level by level, so a row operation is one int operation:
the word-packed elimination of M4RI (Albrecht, Bard and Hart, ACM TOMS 37,
2010) over Z/p^k.

The triangular pass (_triangular) clears only below each pivot and only
from the pivot column on.  Each pivot p^v divides the rest of its row, so
the pivots are the Smith exponents, the same as the exponent pass's, and
the questions that need a solution or a transform are read off it:

- zpk_solve (units, ideal membership), by back-substitution of a right-hand
  side carried through the row operations;
- zpk_smith, the unit column transform V: the rows of the triangular form
  are cleared in order by column operations, which change no other entry of
  it, so only V is updated.  zpk_kernel reads V, since the kernel is spanned
  by the columns p^(k - v_j) V_j.  No row transform U is built.
"""

from __future__ import annotations

from array import array

from . import zpoly
from .ffpoly import FqField, FqPoly


# ---------------------------------------------------------------------------
# Z/p^k elimination
# ---------------------------------------------------------------------------


def _pivot(m, t, p, k):
    """(i, j, v) for the first entry of least valuation v in m[t:][t:], in
    row-major order, or None when every such entry vanishes mod p^k."""
    best, best_v = None, k
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            a = row[j]
            if a:
                v = 0
                while v < best_v and a % p == 0:
                    a //= p
                    v += 1
                if v < best_v:
                    best, best_v = (i, j), v
                    if not v:
                        return i, j, 0
    return None if best is None else (*best, best_v)


def _triangular(mat, p, k, rhs=None):
    """Upper triangular form of mat mod p^k, without transforms.

    Returns (m, vals, perm, b): row t < len(vals) of m is p^vals[t] at column
    t and zero before it, every later row vanishes, column t of m is column
    perm[t] of mat, and b is rhs carried through the same row operations.
    """
    pk = p ** k
    m = [[a % pk for a in row] for row in mat]
    b = None if rhs is None else [a % pk for a in rhs]
    rows, cols = len(m), len(m[0]) if m else 0
    perm = list(range(cols))
    vals = []
    for t in range(min(rows, cols)):
        piv = _pivot(m, t, p, k)
        if piv is None:
            break
        i0, j0, v = piv
        m[t], m[i0] = m[i0], m[t]
        if b is not None:
            b[t], b[i0] = b[i0], b[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            perm[t], perm[j0] = perm[j0], perm[t]
        pv = p ** v
        unit_inv = pow(m[t][t] // pv, -1, pk)
        # normalize the pivot row so the pivot is exactly p^v
        tail = m[t][t:] = [(a * unit_inv) % pk for a in m[t][t:]]
        if b is not None:
            bt = b[t] = (b[t] * unit_inv) % pk
        for i in range(t + 1, rows):
            row = m[i]
            if row[t]:
                c = row[t] // pv  # exact: v is the minimal valuation
                row[t:] = [(a - c * x) % pk for a, x in zip(row[t:], tail)]
                if b is not None:
                    b[i] = (b[i] - c * bt) % pk
        vals.append(v)
    return m, vals, perm, b


_WORD = {array(c).itemsize: c for c in "QIHB"}  # array typecode per byte width


def _pack(row, nb):
    """The ints of row (each below 2^(8 nb)) as the fields, nb bytes wide, of
    one int: row[j] is field j."""
    if nb in _WORD:
        return int.from_bytes(array(_WORD[nb], row).tobytes(), "little")
    return int.from_bytes(b"".join([a.to_bytes(nb, "little") for a in row]), "little")


def _unpack(r, nb, cols):
    """The cols fields of r, as _pack wrote them."""
    b = r.to_bytes(cols * nb, "little")
    if nb in _WORD:
        return array(_WORD[nb], b).tolist()
    return [int.from_bytes(b[t:t + nb], "little") for t in range(0, len(b), nb)]


def zpk_exponents(mat, p, k):
    """The Smith exponents v_1 <= v_2 <= ... of mat mod p^k, as zpk_smith
    returns them (v_i = k for entries that vanish, padded to min(rows, cols)).

    One level-by-level pass over packed rows: row i is one int whose field j
    holds mat[i][j].  At level v the entries are read mod q = p^(k - v).  A
    row with a unit field is a pivot: it is reduced mod q and scaled so that
    field is 1, and r + (q - c) * piv clears that column in every other row.
    A row without a unit field keeps none through the level, since it only
    gains multiples of p * piv.  When no row has one, every field is
    divisible by p, and r // p divides each field exactly.  Only pivots are
    reduced: a row gains at most one product below p^2k per pivot, so fields
    of 2 bitlen(p^k) + bitlen(rows + 1) + 1 bits, rounded up to 1, 2, 4, 8,
    ... bytes, leave no carry to cross a field.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    pk = p ** k
    nb = 1 << ((2 * pk.bit_length() + (rows + 1).bit_length()) // 8).bit_length()
    w = 8 * nb
    field = (1 << w) - 1
    low = _pack([1] * cols, nb)  # bit 0 of every field
    live = [_pack([a % pk for a in row], nb) for row in mat]
    vals = []
    for v in range(k):
        q, i = p ** (k - v), 0
        mq = low * (q - 1)
        while i < len(live):
            r = live[i]
            if p == 2:
                unit = r & low
                if not unit:
                    i += 1
                    continue
                j = (unit & -unit).bit_length() // w
                piv = r & mq
                piv = (piv * pow((piv >> j * w) & field, -1, q)) & mq
            else:
                f = _unpack(r, nb, cols)
                j = next((j for j, a in enumerate(f) if a % p), None)
                if j is None:
                    i += 1
                    continue
                inv = pow(f[j], -1, q)
                piv = _pack([a * inv % q for a in f], nb)
            del live[i]
            vals.append(v)
            for t, r in enumerate(live):
                c = ((r >> j * w) & field) % q
                if c:
                    live[t] = r + (q - c) * piv
        live = [r // p for r in live]
    return vals + [k] * (min(rows, cols) - len(vals))


def zpk_smith(mat, p, k):
    """(diag, V): a unit V mod p^k with U*M*V = diag(p^v_1,...) mod p^k for
    a unit U, which is not built.

    diag is returned as the list of exponents v_1 <= v_2 <= ... (v_i = k for
    entries that vanish mod p^k), padded to min(rows, cols).  V starts as the
    triangular pass's column permutation; then the rows t of the triangular
    form (p^v_t at column t, multiples of p^v_t after it) are cleared in order
    by column operations.  The rows above t are cleared by then, so column t
    holds only its pivot, no other entry changes, and only V is updated.
    """
    pk = p ** k
    m, vals, perm, _ = _triangular(mat, p, k)
    cols = len(perm)
    Vc = [[int(i == j) for i in range(cols)] for j in perm]  # columns of V
    for t, v in enumerate(vals):
        pv, Vt = p ** v, Vc[t]
        for j in range(t + 1, cols):
            c = m[t][j] // pv
            if c:
                Vc[j] = [(a - c * b) % pk for a, b in zip(Vc[j], Vt)]
    vals = vals + [k] * (min(len(mat), cols) - len(vals))
    return vals, [list(r) for r in zip(*Vc)]


def zpk_solve(mat, rhs, p, k):
    """One solution x of M x = rhs mod p^k, or None if inconsistent."""
    pk = p ** k
    m, vals, perm, b = _triangular(mat, p, k, rhs)
    r = len(vals)
    if any(b[r:]):
        return None
    y = [0] * len(perm)
    for t in range(r - 1, -1, -1):
        # every other entry of row t is divisible by its pivot p^vals[t]
        s = (b[t] - sum(a * x for a, x in zip(m[t][t + 1:r], y[t + 1:r]))) % pk
        pv = p ** vals[t]
        if s % pv:
            return None
        y[t] = s // pv
    x = [0] * len(perm)
    for t, j in enumerate(perm):
        x[j] = y[t]
    return x


def zpk_kernel(mat, p, k):
    """Generating set for {x : M x = 0 mod p^k} as vectors mod p^k."""
    pk = p ** k
    cols = len(mat[0]) if mat else 0
    vals, V = zpk_smith(mat, p, k)
    gens = []
    for j in range(cols):
        v = vals[j] if j < len(vals) else k
        scale = p ** (k - v) if v < k else 1
        if v == 0:
            continue
        vec = [(V[i][j] * scale) % pk for i in range(cols)]
        if any(vec):
            gens.append(vec)
    return gens


def zpk_cokernel_exponents(mat, p, k):
    """Exponents e_i with (Z/p^k)^rows / colspan(M) = prod Z/p^{e_i}."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    out = zpk_exponents(mat, p, k)
    out.extend([k] * (rows - min(rows, cols)))
    return [e for e in out if e > 0]


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def hensel_lift_pair(f, g, h, p, k):
    """Lift f = g*h (mod p), g monic, h monic, gcd(g,h)=1 mod p, to mod p^k."""
    F = FqField(p)
    gp = FqPoly(F, [c % p for c in g])
    hp = FqPoly(F, [c % p for c in h])
    one, _, t = gp.extended_gcd(hp)
    if not one.is_one():
        raise ValueError("factors are not coprime mod p")

    g, h = list(g), list(h)
    pj = p
    while pj < p ** k:
        mod_next = pj * p
        e = zpoly.sub(f, zpoly.mul(g, h, mod_next), mod_next)
        delta = FqPoly(F, [c // pj for c in e])
        # a = delta*t mod g ; b = (delta - h*a)/g, both mod p
        a = (delta * t) % gp
        b, rem = divmod(delta - hp * a, gp)
        if not rem.is_zero():
            raise ArithmeticError("Hensel correction not divisible")
        # g + pj*a and h + pj*b
        g = zpoly.sub(g, [-pj * c for c in a.coeffs], mod_next)
        h = zpoly.sub(h, [-pj * c for c in b.coeffs], mod_next)
        pj = mod_next
    return g, h


def hensel_lift_factors(f, factors_mod_p, p, k):
    """Lift pairwise-coprime monic factors of monic f from mod p to mod p^k."""
    pk = p ** k
    f = [c % pk for c in f]
    out = []
    remaining = f
    facs = list(factors_mod_p)
    for i, g in enumerate(facs):
        if i == len(facs) - 1:
            out.append(zpoly.trim([c % pk for c in remaining]))
            break
        cof = [1]
        for other in facs[i + 1:]:
            cof = zpoly.mul(cof, other, p)
        g_lift, cof_lift = hensel_lift_pair(remaining, [c % p for c in g], cof, p, k)
        out.append(g_lift)
        remaining = cof_lift
    # verify
    prod = [1]
    for g in out:
        prod = zpoly.mul(prod, g, pk)
    if zpoly.sub(prod, f, pk):
        raise ArithmeticError("Hensel lift failed to reconstruct the input")
    return out
