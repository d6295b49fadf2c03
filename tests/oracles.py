"""Slow, independent routines the tests compare the library against."""

import skewlin._fppoly as fp


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
