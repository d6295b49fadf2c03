"""Dense univariate polynomials over a prime field Z_p.

A polynomial c_0 + c_1 x + ... + c_n x^n is the list [c_0, ..., c_n] with
each c_i an int in [0, p); the zero polynomial is the empty list.  Every
function returns freshly trimmed lists and never mutates its arguments.
These are internal helpers: inputs are assumed well formed.

The irreducible-factor search (_first_split, behind is_irreducible,
first_irreducible and first_factor, and first_factor's equal-degree
candidate scan) has one arithmetic per characteristic, as the F_p-vectors
of _linalg's elimination do.  Over F_2 it runs on ints, bit i holding
the coefficient of x^i: a sum is an XOR, squaring spreads the bits
apart, and a reduction modulo m (_mod2, which the gcd also runs) XORs
shifted copies of m under the leading bit.  In odd characteristic it
runs on the lists.
Lists go in and come out either way.
"""

from __future__ import annotations

from typing import Iterator, Optional

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


def inv_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """The inverse of a modulo m (deg m >= 1), by one Euclid loop from (m, a).

    For each remainder r it keeps s with s*a = r (mod m); when the last
    nonzero remainder is a constant c, s/c is the inverse, already of
    degree below deg m.  An unreduced a is reduced by the loop's first
    steps.
    """
    r0, r1 = trim(list(m)), trim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if degree(r0) != 0:
        raise ZeroDivisionError("element has no inverse modulo the given polynomial")
    return mul_scalar(s0, pow(r0[0], p - 2, p), p)


def pow_mod(a: list[int], n: int, m: list[int], p: int) -> list[int]:
    """a^n modulo m by left-to-right binary powering: one square per bit
    below the top one and one product by a per set bit below it, so x^p
    for p = 2 is a single square."""
    if not n:
        return [1]
    base = mod(a, m, p)
    result = base
    for bit in bin(n)[3:]:
        result = mod(mul(result, result, p), m, p)
        if bit == "1":
            result = mod(mul(result, base, p), m, p)
    return result


def _bits(a: list[int]) -> int:
    """The polynomial a over F_2 as an int, bit i holding the coefficient of x^i."""
    n = 0
    for c in reversed(a):
        n = n << 1 | c
    return n


def _from_bits(n: int) -> list[int]:
    """The coefficient list of the F_2 polynomial n, trimmed."""
    return [n >> i & 1 for i in range(n.bit_length())]


def _mod2(a: int, m: int) -> int:
    """a mod m over F_2, on ints: while deg a >= deg m, XOR away the
    leading bit of a with m shifted under it."""
    dm = m.bit_length()
    n = a.bit_length()
    while n >= dm:
        a ^= m << (n - dm)
        n = a.bit_length()
    return a


def _gcd2(a: int, b: int) -> int:
    """gcd(a, b) over F_2, on ints; monic, as every nonzero F_2 polynomial is."""
    while b:
        a, b = b, _mod2(a, b)
    return a


def _first_split(m: list[int], p: int) -> Optional[tuple[int, list[int]]]:
    """(k, h) for the least k <= deg(m)/2 with h = gcd(m, x^(p^k) - x) nonconstant.

    h is the product of the distinct degree-k irreducible factors of m;
    None means m has no irreducible factor of degree at most deg(m)/2.
    Over F_2 the loop runs on ints: x^(2^k) is the square of x^(2^(k-1)),
    its bits spread apart (the binary digits joined by zeros) and
    reduced by _mod2."""
    if p == 2:
        mb = _bits(m)
        y = 2  # x
        for k in range(1, degree(m) // 2 + 1):
            y = _mod2(int("0".join(bin(y)[2:]), 2), mb)
            h = _gcd2(mb, y ^ 2)
            if h.bit_length() > 1:
                return k, _from_bits(h)
        return None
    x = [0, 1]
    y = x
    for k in range(1, degree(m) // 2 + 1):
        y = pow_mod(y, p, m, p)
        h = gcd(sub(y, x, p), m, p)
        if degree(h) > 0:
            return k, h
    return None


def is_irreducible(m: list[int], p: int) -> bool:
    """Irreducibility of a monic m over Z_p: a reducible m of degree e has
    an irreducible factor of degree at most e/2, which _first_split finds."""
    return degree(m) >= 1 and _first_split(m, p) is None


def iter_monic(p: int, deg: int) -> Iterator[list[int]]:
    """All monic polynomials of the given degree, low coefficients counting first.

    The base p need not be prime: base q lists them over GF(q) by element index."""
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
    """The first irreducible factor of monic m: least degree, then first in iter_monic order.

    From the distinct-degree split (k, h) of _first_split, the answer is
    h itself when deg h = k and otherwise the first degree-k iter_monic
    candidate dividing h.  m is returned when no k <= deg(m)/2 qualifies,
    that is when m is irreducible.  Over F_2 the candidates are the ints
    2^k, ..., 2^(k+1) - 1, which is iter_monic order, each tried by one
    _mod2.
    """
    split = _first_split(m, p)
    if split is None:
        return trim(list(m))
    k, h = split
    if degree(h) == k:
        return h
    if p == 2:
        hb = _bits(h)
        return _from_bits(next(c for c in range(1 << k, 2 << k) if not _mod2(hb, c)))
    return next(c for c in iter_monic(p, k) if not mod(h, c, p))
