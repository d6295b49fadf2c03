"""Exhaustive tables of quadratic maps Z_p^e -> Z_p^e by a Gray-code walk.

The modular p-ary Gray code orders Z_p^e so that each step adds 1 mod p
to a single coordinate.  For a map f of degree at most 2 the first
difference d_k(x) = f(x + u_k) - f(x) is affine in x, and its own
differences Q_jk = d_j(x + u_k) - d_j(x) are constant.  So a walk of the
code costs two vector additions per step: d_k onto the image, then
column k of Q onto the first differences.  This is the fast exhaustive
search of Bouillaguet et al. (Fast Exhaustive Search for Polynomial
Systems in F_2, CHES 2010), here for every p.

Vectors are digit tuples, lowest coordinate first; vector n is the
tuple of base-p digits of n, and n is the vector's index.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .fields import _digit_tuples

Vector = tuple[int, ...]


def gray_steps(p: int, e: int) -> list[int]:
    """The coordinate that step n = 1 .. p^e - 1 of the modular p-ary Gray
    code increments: v_p(n), the p-adic ruler sequence.

    The code visits every vector of Z_p^e once: its vector n has digits
    (n_i - n_(i+1)) mod p, and going from n - 1 to n moves only digit v_p(n).
    """
    steps: list[int] = []
    for k in range(e):
        steps = (steps + [k]) * (p - 1) + steps
    return steps


def differences(
    p: int, e: int, f: Callable[[list[int]], Sequence[int]]
) -> tuple[Vector, list[Vector], list[list[Vector]]]:
    """f(0), f(u_s) for each s, and the second differences
    Q[s][t] = f(u_s + u_t) - f(u_s) - f(u_t) + f(0), all mod p.

    f is read at 0, u_s, u_s + u_t and 2·u_s only (for p = 2, 2·u_s = 0
    and so Q[s][s] = 0).  For f of degree at most 2 these values fix f:
    preimage_table rebuilds every other value from them, so two such maps
    with equal differences are equal.
    """
    lanes = range(e)

    def at(digits: list[int]) -> Vector:
        return tuple(v % p for v in f([d % p for d in digits]))

    unit = [[int(i == s) for i in lanes] for s in lanes]
    f0 = at([0] * e)
    f1 = [at(u) for u in unit]
    second: list[list[Vector]] = [[()] * e for _ in lanes]
    for s in lanes:
        for t in range(s, e):
            f2 = at([a + b for a, b in zip(unit[s], unit[t])])
            second[s][t] = second[t][s] = tuple(
                (a - b - c + d) % p for a, b, c, d in zip(f2, f1[s], f1[t], f0)
            )
    return f0, f1, second


def preimage_table(
    p: int, e: int, f: Callable[[list[int]], Sequence[int]]
) -> dict[int, list[int]]:
    """Every vector of Z_p^e grouped under its image by f: the index of
    each image to the sorted indices of its preimages.

    f must have degree at most 2.  The walk starts from its differences
    and gives every value of f from them.

    A vector is packed into an int, one lane of w bits per coordinate, and
    all e first differences share one int.  After a lane-wise sum of two
    residues, p is subtracted from every lane where lane + 2^(w-1) - p
    reaches the lane's top bit, so a step is a few int operations for
    every p and e.
    """
    w = (p - 1).bit_length() + 1
    top = w - 1
    lanes = range(e)

    def pack(values) -> int:
        return sum(v << (w * i) for i, v in enumerate(values))

    f0, f1, second = differences(p, e, f)
    y = pack(f0)
    firsts = pack((a - b) % p for s in lanes for a, b in zip(f1[s], f0))
    cols = [pack(v for j in lanes for v in second[j][k]) for k in lanes]
    span = w * e
    mask = (1 << span) - 1
    lift = pack([(1 << top) - p] * e * e)
    high = pack([1 << top] * e * e)
    lift_y, high_y = lift & mask, high & mask
    shifts = [span * k for k in lanes]
    powers = [p**k for k in lanes]
    digits = [0] * e
    n = 0  # index of the walked vector
    table: dict[int, list[int]] = {y: [n]}
    for k in gray_steps(p, e):
        y += (firsts >> shifts[k]) & mask
        y -= (((y + lift_y) & high_y) >> top) * p
        firsts += cols[k]
        firsts -= (((firsts + lift) & high) >> top) * p
        if digits[k] == p - 1:
            digits[k] = 0
            n -= (p - 1) * powers[k]
        else:
            digits[k] += 1
            n += powers[k]
        hits = table.get(y)
        if hits is None:
            table[y] = [n]
        else:
            hits.append(n)
    # packed image halves to their share of the image's index
    low = e // 2
    cut = w * low
    lows = {pack(ds): n for n, ds in enumerate(_digit_tuples(p, low))}
    highs = {pack(ds): n * p**low for n, ds in enumerate(_digit_tuples(p, e - low))}
    return {
        lows[y & ((1 << cut) - 1)] + highs[y >> cut]: sorted(hits) for y, hits in table.items()
    }
