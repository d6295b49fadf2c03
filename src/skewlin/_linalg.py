"""Exact dense linear algebra over Z_p.

Matrices are lists of row lists of ints in [0, p).  Everything copies its
input; nothing here mutates caller data.  Sizes are desk scale, so plain
Gaussian elimination is all we need.
"""

from __future__ import annotations

from typing import Optional


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matvec(a, v, p: int) -> list[int]:
    return [sum(r[j] * v[j] for j in range(len(v))) % p for r in a]


def rref(a, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        top = m[r] = [(x * inv) % p for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> list[list[int]]:
    """Basis of {v : a v = 0}, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = rref(a, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for row, pc in enumerate(pivots):
            v[pc] = (-m[row][free]) % p
        basis.append(v)
    return basis


def inv(a, p: int) -> Optional[list[list[int]]]:
    n = len(a)
    aug = [[*row] + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(a)]
    m, pivots = rref(aug, p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]

