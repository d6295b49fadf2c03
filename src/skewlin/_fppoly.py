"""Dense univariate polynomials over a prime field Z_p.

A polynomial c_0 + c_1 x + ... + c_n x^n is the list [c_0, ..., c_n] with
each c_i an int in [0, p); the zero polynomial is the empty list.  Every
function returns freshly trimmed lists and never mutates its arguments.
These are internal helpers: inputs are assumed well formed.
"""

from __future__ import annotations

from typing import Iterator

from .errors import InvariantError


def trim(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def degree(a: list[int]) -> int:
    # zero polynomial reports -1
    return len(a) - 1


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def neg(a: list[int], p: int) -> list[int]:
    return [(-c) % p for c in a]


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    return add(a, neg(b, p), p)


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([c % p for c in out])


def mul_scalar(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return trim([(ai * c) % p for ai in a])


def divmod_(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], trim(r)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * (len(r) - db)
    while len(r) - 1 >= db:
        r = trim(r)
        if len(r) - 1 < db:
            break
        k = len(r) - 1 - db
        c = (r[-1] * inv_lead) % p
        q[k] = c
        for i, bi in enumerate(b):
            r[k + i] = (r[k + i] - c * bi) % p
    return trim(q), trim(r)


def mod(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_(a, b, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    a = trim(list(a))
    if not a:
        return a
    return mul_scalar(a, pow(a[-1], p - 2, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def ext_gcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Return (g, u, v) with u*a + v*b = g, g monic (or zero)."""
    r0, r1 = trim(list(a)), trim(list(b))
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, p), p)
        v0, v1 = v1, sub(v0, mul(q, v1, p), p)
    if r0:
        scale = pow(r0[-1], p - 2, p)
        return mul_scalar(r0, scale, p), mul_scalar(u0, scale, p), mul_scalar(v0, scale, p)
    return r0, u0, v0


def inv_mod(a: list[int], m: list[int], p: int) -> list[int]:
    g, u, _ = ext_gcd(a, m, p)
    if degree(g) != 0:
        raise ZeroDivisionError("element has no inverse modulo the given polynomial")
    return mod(u, m, p)


def pow_mod(a: list[int], n: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = mod(a, m, p)
    while n:
        if n & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        n >>= 1
    return result


def is_irreducible(m: list[int], p: int) -> bool:
    """Irreducibility of a monic m over Z_p.

    m is irreducible iff gcd(x^(p^k) - x, m) is constant for every
    k <= deg(m)/2 and x^(p^deg(m)) = x mod m.
    """
    e = degree(m)
    if e < 1:
        return False
    x = [0, 1]
    y = x
    for k in range(1, e + 1):
        y = pow_mod(y, p, m, p)
        if k <= e // 2 and degree(gcd(sub(y, x, p), m, p)) > 0:
            return False
    return not sub(y, mod(x, m, p), p)


def iter_monic(p: int, deg: int) -> Iterator[list[int]]:
    """All monic polynomials of the given degree, low coefficients counting first."""
    for n in range(p**deg):
        coeffs = []
        v = n
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        yield coeffs


def first_irreducible(p: int, e: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree e over Z_p."""
    for cand in iter_monic(p, e):
        if is_irreducible(cand, p):
            return cand
    raise InvariantError("unreachable: irreducibles exist in every degree")


def first_factor(m: list[int], p: int) -> list[int]:
    """The first irreducible factor of monic m, in factor_monic order.

    Distinct-degree search: for the first k with h = gcd(m, x^(p^k) - x)
    nonconstant, h is the product of the distinct degree-k irreducible
    factors of m, so the answer is h itself when deg h = k and otherwise
    the first degree-k iter_monic candidate dividing h.  m is returned
    when no k <= deg(m)/2 qualifies, that is when m is irreducible.
    """
    x = [0, 1]
    y = x
    for k in range(1, degree(m) // 2 + 1):
        y = pow_mod(y, p, m, p)
        h = gcd(sub(y, x, p), m, p)
        if degree(h) == k:
            return h
        if degree(h) > k:
            return next(c for c in iter_monic(p, k) if not mod(h, c, p))
    return trim(list(m))


def factor_monic(m: list[int], p: int) -> list[tuple[list[int], int]]:
    """Complete factorization of monic m by trial division.

    Candidates are enumerated degree by degree in the iter_monic order, so
    the returned (factor, multiplicity) list is deterministic and sorted.
    Intended for desk-scale inputs only.
    """
    work = trim(list(m))
    if degree(work) < 1:
        return []
    out: list[tuple[list[int], int]] = []
    d = 1
    while 2 * d <= degree(work):
        for cand in iter_monic(p, d):
            mult = 0
            while True:
                q, r = divmod_(work, cand, p)
                if r:
                    break
                work = q
                mult += 1
            if mult:
                out.append((cand, mult))
            if 2 * d > degree(work):
                break
        d += 1
    if degree(work) >= 1:
        out.append((work, 1))
    return out
