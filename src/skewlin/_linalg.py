"""Exact linear algebra over Z_p: one incremental elimination.

Matrices are lists of row lists of ints in [0, p).  Everything copies its
input; nothing here mutates caller data.  eliminator(p) is the package's
one Gaussian elimination: decompose feeds it the F_p-vectors of residues,
and rank and inv feed it the columns of a matrix.  Over F_2 a vector is
one int, coordinate i its bit i, so a row step is one XOR; for odd p it
is a list of coordinates.
"""

from __future__ import annotations

from typing import Callable, Optional


def matvec(a, v, p: int) -> list[int]:
    return [sum(r[j] * v[j] for j in range(len(v))) % p for r in a]


def eliminator(p: int) -> Callable:
    """add(v) for the incremental elimination of F_p-vectors.

    add takes the vectors in order and reduces each against the echelon
    rows so far.  A row's pivot is its lowest nonzero coordinate, where it
    is 1 and every later row is 0, and the row records which combination
    of the inputs it stands for.  A vector that stays nonzero becomes a
    row and add returns None; one that reduces to zero returns its
    combination, the unique dependency sum_k c_k v_k = 0 on the inputs
    before it, with coefficient 1 on itself and 0 on every earlier input
    that was itself dependent (a combination is a vector in the same
    form, coordinate k for input k).  For the columns of a matrix these
    are the nullspace vectors of reduced row echelon form, one per free
    column in order, and the number of rows is the rank.
    """
    if p == 2:
        rows: list[tuple[int, int, int]] = []  # lowest set bit, vector, combination
        fed = 0

        def add(vec: int) -> Optional[int]:
            nonlocal fed
            combo, fed = 1 << fed, fed + 1
            for low, row, row_combo in rows:
                if vec & low:
                    vec ^= row
                    combo ^= row_combo
            if not vec:
                return combo
            rows.append((vec & -vec, vec, combo))
            return None

        return add

    digit_rows: list[tuple[int, list[int], list[int]]] = []  # pivot, vector, combination
    fed = 0

    def add_digits(vec: list[int]) -> Optional[list[int]]:
        nonlocal fed
        combo, fed = [0] * fed + [1], fed + 1
        for pivot, row, row_combo in digit_rows:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                for i, b in enumerate(row_combo):
                    combo[i] = (combo[i] - c * b) % p
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            return combo
        inv = pow(vec[pivot], p - 2, p)
        digit_rows.append((pivot, [a * inv % p for a in vec], [a * inv % p for a in combo]))
        return None

    return add_digits


def _columns(a, p: int) -> list:
    """The columns of a, as vectors of eliminator(p)."""
    if p == 2:
        return [sum(x << i for i, x in enumerate(col)) for col in zip(*a)]
    return [list(col) for col in zip(*a)]


def rank(a, p: int) -> int:
    add = eliminator(p)
    return sum(add(col) is None for col in _columns(a, p))


def inv(a, p: int) -> Optional[list[list[int]]]:
    """The inverse of the square matrix a, or None when a is singular.

    The n columns a_k go in first, and any dependency among them makes a
    singular.  Then each unit vector u_j returns its dependency
    u_j + sum_k c_k a_k = 0, so a (-c) = u_j: column j of the inverse.
    """
    n = len(a)
    add = eliminator(p)
    if any(add(col) is not None for col in _columns(a, p)):
        return None
    if p == 2:
        deps = [add(1 << j) for j in range(n)]
        return [[dep >> i & 1 for dep in deps] for i in range(n)]
    deps = [add([int(i == j) for i in range(n)]) for j in range(n)]
    return [[-dep[i] % p for dep in deps] for i in range(n)]
