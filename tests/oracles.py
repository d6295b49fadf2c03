"""Slow, independent routines the tests compare the library against."""

import skewlin._fppoly as fp
from skewlin.skew import SkewPoly


def factor_monic(m: list[int], p: int) -> list[tuple[list[int], int]]:
    """Complete factorization of monic m over Z_p by trial division.

    Candidates are enumerated degree by degree in the iter_monic order, so
    the returned (factor, multiplicity) list is deterministic and sorted.
    Divisions go through fp.divmod_, looked up per call, so a spy on it
    counts them.  Intended for desk-scale inputs only.
    """
    work = fp.trim(list(m))
    if fp.degree(work) < 1:
        return []
    out: list[tuple[list[int], int]] = []
    d = 1
    while 2 * d <= fp.degree(work):
        for cand in fp.iter_monic(p, d):
            mult = 0
            while True:
                q, r = fp.divmod_(work, cand, p)
                if r:
                    break
                work = q
                mult += 1
            if mult:
                out.append((cand, mult))
            if 2 * d > fp.degree(work):
                break
        d += 1
    if fp.degree(work) >= 1:
        out.append((work, 1))
    return out


def matmul(a, b, p: int) -> list[list[int]]:
    """The product of two matrices over Z_p, as lists of row lists."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            v = a[i][k]
            if v:
                for j in range(cols):
                    out[i][j] = (out[i][j] + v * b[k][j]) % p
    return out


# ----------------------------------------------------------------------
# the skew ring's loops on FqElem coefficients, as the ring ran before it
# moved to coefficient indices; each takes and returns SkewPolys (or
# elements), built through the public constructor


def _sigma(f, a, n):
    """sigma^n(a) in the ring of f, n may be negative."""
    return a.frobenius((f.twist * n) % f.field.e)


def skew_mul(a, b):
    """a * b, every term sigma^i(b_j) a_i summed into slot i + j."""
    field = a.field
    if a.is_zero or b.is_zero:
        return SkewPoly.zero(field, a.twist)
    ac, bc = a.coeffs, b.coeffs
    out = [field.zero()] * (len(ac) + len(bc) - 1)
    for i, ai in enumerate(ac):
        for j, bj in enumerate(bc):
            out[i + j] = out[i + j] + ai * _sigma(a, bj, i)
    return SkewPoly(field, out, a.twist)


def left_scalar(a, c):
    return SkewPoly(a.field, [c * x for x in a.coeffs], a.twist)


def right_scalar(a, c):
    return SkewPoly(a.field, [x * _sigma(a, c, i) for i, x in enumerate(a.coeffs)], a.twist)


def divmod_right(a, g):
    """q, r with a = q * g + r, by cancelling the top of r with sigma^k(g)."""
    field, gc = a.field, g.coeffs
    n = len(gc) - 1
    r = list(a.coeffs)
    q = [field.zero()] * max(len(r) - n, 0)
    g_inv = gc[-1].inv()
    while len(r) > n:
        k = len(r) - 1 - n
        c = q[k] = r[-1] * _sigma(a, g_inv, k)
        for i, gi in enumerate(gc):
            r[i + k] = r[i + k] - c * _sigma(a, gi, k)
        del r[-1]
        while r and not r[-1]:
            del r[-1]
    return SkewPoly(field, q, a.twist), SkewPoly(field, r, a.twist)


def divmod_left(a, g):
    """q, r with a = g * q + r, by cancelling the top of r with g sigma^-n(c)."""
    field, gc = a.field, g.coeffs
    n = len(gc) - 1
    r = list(a.coeffs)
    q = [field.zero()] * max(len(r) - n, 0)
    g_inv = gc[-1].inv()
    while len(r) > n:
        k = len(r) - 1 - n
        c = q[k] = _sigma(a, g_inv * r[-1], -n)
        for i, gi in enumerate(gc):
            r[i + k] = r[i + k] - gi * _sigma(a, c, i)
        del r[-1]
        while r and not r[-1]:
            del r[-1]
    return SkewPoly(field, q, a.twist), SkewPoly(field, r, a.twist)


def times_y(a, f):
    """(t, Y a - t f) for a residue a of the monic f, t the coefficient of
    Y^(deg f) in Y a."""
    field, n = f.field, f.degree
    shifted = [field.zero()] + [_sigma(f, c, 1) for c in a.coeffs]
    shifted += [field.zero()] * (n + 1 - len(shifted))
    top = shifted[n]
    shifted = [c - top * fc for c, fc in zip(shifted, f.coeffs)]
    return top, SkewPoly(field, shifted[:n], f.twist)


def combine(coeffs, rows, f):
    """sum_k coeffs[k] rows[k], residues of f."""
    field = f.field
    out = [field.zero()] * f.degree
    for c, row in zip(coeffs, rows):
        for i, t in enumerate(row.coeffs):
            out[i] = out[i] + c * t
    return SkewPoly(field, out, f.twist)


def step_quotient(a, rows, f):
    """sum_i a_i q_i with q_i = sum_(m<i) sigma^(m+1)(c_(i-m-1)) Y^m, c_k
    the coefficient of Y^(deg f - 1) in rows[k]."""
    field, n = f.field, f.degree
    tops = [row.coeffs[n - 1] if row.degree == n - 1 else field.zero() for row in rows]
    cs = a.coeffs
    out = []
    for m in range(len(cs) - 1):
        acc = field.zero()
        for i in range(m + 1, len(cs)):
            acc = acc + cs[i] * _sigma(f, tops[i - m - 1], m + 1)
        out.append(acc)
    return SkewPoly(field, out, f.twist)
