"""Complete decomposition of additive polynomials via the skew ring.

A SkewPoly is at once an additive polynomial and an element of
R = F_q[Y; sigma] (Ore's correspondence): composition is multiplication
and skew degrees add, so a complete decomposition into indecomposable
additive polynomials is exactly a factorisation into irreducible skew
polynomials.

split_once splits off Y whenever f_0 = 0, for every twist: then
f = (sum_i f_i Y^(i-1)) * Y exactly.  Otherwise it follows Giesbrecht
(J. Symb. Comp. 1998) for every twist s.  Let g = gcd(s, e) and
r = e/g: Y^r is central, the fixed field of sigma^s is F_Q with Q = p^g,
and F_Q[Y^r] is the centre.  The residue u = Y^r mod f generates
F_Q[u] = F_Q[Z]/(m), where m(Y^r) is the bound of f, and f is
irreducible exactly when m is irreducible of degree deg f.  Both are
read off the minimal polynomial mu of u over F_p, of degree d, and
D = dim_Fp F_Q[u] (mu = Z would need f_0 = 0):

  * mu reducible: the zero-divisor rule below splits f, without
    randomness.
  * mu irreducible: F_Q[u] is a quotient of F_Q (x) F_(p^d), a product
    of fields F_(p^lcm(g, d)), so it is a field exactly when
    D = lcm(g, d), and then deg m = D/g.  D = g deg f = lcm(g, d)
    certifies f irreducible.  For g = 1, D = d and the rule reads
    deg mu = deg f.
  * otherwise f is reducible and R/Rf is semisimple (m is squarefree),
    so the eigenring

        E(f) = { u : deg u < deg f and f u is a left multiple of f }

    is a product of matrix algebras that is not a field, and holds
    zero divisors.  Random residues of E(f), an F_p-algebra under
    multiplication modulo f, are drawn until one has a reducible
    minimal polynomial; most draws succeed.

No Krylov power and no eigenring column needs a ring product or
division.  Rf is a left ideal, so left multiplication by Y is well
defined on R/Rf (sigma on the coefficients, a shift, and subtracting
top * f), and reduction modulo f is left F_q-linear:
(sum_i a_i Y^i) u mod f = sum_i a_i (Y^i u mod f).  So for any residue
u, central or an eigenring draw, minimal_polynomial builds the rows
Y^i u mod f, i < deg f, one left multiplication by Y each, and every
Krylov step a -> a u is a left F_q-combination of them.  For the
central u = Y^r these rows are the residue table rows T[r+i] of
T[j] = Y^j mod f, whose rows j < deg f are the monomials; eigen_ring
reads each column f b Y^i = sum_j f_j sigma^j(b) Y^(i+j) off the same
table.  Right multiplication by Y is not defined on R/Rf and is never
used.  skew.CHECK_DIVISION multiplies back, like a division and
without one, every computed row and the last Krylov step of each
minimal polynomial (through its quotient); find_zero_divisor checks
each eigenring draw u against f u mod f = 0.

One zero-divisor rule serves the central residue and every eigenring
draw.  minimal_polynomial returns mu together with the powers
u^0, ..., u^(d-1) its Krylov loop builds, so a polynomial of degree
below d in u is an F_p-combination of them.  For the first irreducible
factor nu of a reducible mu, found by distinct-degree search,
z = nu(u) and w = (mu/nu)(u) are nonzero (mu is minimal) while
z w = mu(u) = 0, so z is a zero divisor and gcd_right(z, f) is a
proper right factor of f.

oracle_decompose is an independent brute-force reference: it repeatedly
peels the lexicographically first smallest-degree monic right factor.
It shares no code with the randomised path beyond ring arithmetic.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Optional, Sequence, Union

from . import _fppoly as fp
from . import _linalg
from ._record import Record
from .errors import InvariantError, TooLargeError
from .fields import FiniteField, _pack
from .skew import SkewPoly, check_rebuild, gcd_right

ORACLE_LIMIT = 12  # max deg(f) * e for oracle_decompose


# ----------------------------------------------------------------------
# eigenring


class EigenRing:
    """F_p-basis of E(f), the residues modulo f; products are (u * v).mod_right(f)."""

    __slots__ = ("field", "modulus", "basis")

    def __init__(self, field: FiniteField, modulus: SkewPoly, basis: tuple[SkewPoly, ...]):
        self.field = field
        self.modulus = modulus
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def random_element(self, rng: random.Random) -> SkewPoly:
        p = self.field.p
        out = SkewPoly.zero(self.field, self.modulus.twist)
        for b in self.basis:
            c = rng.randrange(p)
            if c:
                out = out + b._left(c)  # c < p is the index of the scalar c
        return out

    def __repr__(self) -> str:
        return f"EigenRing(dim={self.dim}, modulus_degree={self.modulus.degree})"


def _flatten(u: SkewPoly, n: int, e: int) -> list[int]:
    """Digits of the residue u, padded to n coefficients of e digits each."""
    digits = u.field._digits
    out = [0] * (n * e)
    for i, c in enumerate(u._c):
        out[i * e : i * e + e] = digits(c)
    return out


def _unflatten(field: FiniteField, vec: list[int], n: int, twist: int) -> SkewPoly:
    e, p = field.e, field.p
    return SkewPoly._of(field, [_pack(p, vec[i * e : i * e + e]) for i in range(n)], twist)


def _times_y(a: SkewPoly, f: SkewPoly) -> tuple[int, SkewPoly]:
    """(t, Y a - t f) for a residue a modulo the monic f: one left
    multiplication by Y on R/Rf.  Y a = sum_i sigma(a_i) Y^(i+1), and t,
    an element index, is its coefficient of Y^(deg f)."""
    field, fc = f.field, f._c
    n = len(fc) - 1
    frob, s = field._frob, f.twist % field.e
    shifted = [0] + [frob(c, s) for c in a._c] if s else [0, *a._c]
    shifted += [0] * (n + 1 - len(shifted))
    top = shifted[n]
    if top:
        mul, sub = field._mul, field._sub
        for i in range(n):
            if fc[i]:
                shifted[i] = sub(shifted[i], mul(top, fc[i]))
    return top, SkewPoly._of(field, shifted[:n], f.twist)


def _y_rows(a: SkewPoly, f: SkewPoly, count: int) -> list[SkewPoly]:
    """[Y^i a mod f for i < count], for a residue a of the monic f.

    Rf is a left ideal, so left multiplication by Y is well defined on
    R/Rf: each row is _times_y of the row before, and under
    skew.CHECK_DIVISION it is multiplied back through the ring product
    (t f + row = Y prev) and counted like a division.
    """
    Y = SkewPoly._of(f.field, (0, 1), f.twist)
    rows = [a]
    for _ in range(1, count):
        prev = rows[-1]
        top, row = _times_y(prev, f)
        check_rebuild(lambda: (Y * prev, f._left(top) + row))
        rows.append(row)
    return rows


def _residue_table(f: SkewPoly, size: int) -> list[SkewPoly]:
    """T[j] = Y^j mod f for j < size, f monic of degree n.

    The rows j < n are the monomials themselves; the rows past them are
    the _y_rows of Y^(n-1), each one checked step.
    """
    field, n = f.field, len(f._c) - 1
    k = min(n, size)
    monomials = [SkewPoly._of(field, [0] * j + [1], f.twist) for j in range(k)]
    return monomials[:-1] + _y_rows(monomials[-1], f, size - k + 1)


def _combine(coeffs: Sequence[int], rows: list[SkewPoly], f: SkewPoly) -> SkewPoly:
    """sum_k c_k rows[k], a residue modulo f, for coefficient indices c_k;
    len(coeffs) <= len(rows).

    Reduction modulo the left ideal Rf is left F_q-linear, so with
    rows[k] = Y^k a mod f this is (sum_k c_k Y^k) a mod f.
    """
    mul, add = f.field._mul, f.field._add
    out = [0] * (len(f._c) - 1)
    for c, row in zip(coeffs, rows):
        if c:
            for i, t in enumerate(row._c):
                if t:
                    v, prev = mul(c, t), out[i]
                    out[i] = add(prev, v) if prev else v
    return SkewPoly._of(f.field, out, f.twist)


def _step_quotient(a: SkewPoly, rows: list[SkewPoly], f: SkewPoly) -> SkewPoly:
    """Q with a u = Q f + sum_i a_i rows[i], for the _y_rows of u.

    Y^i u = q_i f + rows[i] with q_0 = 0 and q_i = Y q_(i-1) + t_i, where
    t_i = sigma(c_(i-1)), c_k the coefficient of Y^(n-1) in rows[k], is
    the multiple of f that _times_y subtracted.  So q_i is
    sum_(m<i) sigma^(m+1)(c_(i-m-1)) Y^m, and Q = sum_i a_i q_i.
    """
    field, n = f.field, len(f._c) - 1
    mul, add, frob, e = field._mul, field._add, field._frob, field.e
    tops = [row._c[n - 1] if len(row._c) == n else 0 for row in rows]
    cs = a._c
    out = []
    for m in range(len(cs) - 1):
        s = f.twist * (m + 1) % e
        acc = 0
        for i in range(m + 1, len(cs)):
            top = tops[i - m - 1]
            if cs[i] and top:
                v = mul(cs[i], frob(top, s) if s else top)
                acc = add(acc, v) if acc else v
        out.append(acc)
    return SkewPoly._of(field, out, f.twist)


def eigen_ring(f: SkewPoly) -> EigenRing:
    """Compute an F_p-basis of E(f) as the nullspace of u -> f u mod f.

    The column of b Y^i, for b in the digit basis of F_q and i < deg f, is
    f b Y^i = sum_j f_j sigma^j(b) Y^(i+j), combined from the residue
    table of Y^j mod f: no ring product or division.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("eigenring needs a modulus of degree at least 1")
    field = f.field
    n, e, p = len(f._c) - 1, field.e, field.p
    monic = f.monic_left()  # R f = R monic, with the same residues
    high = _residue_table(monic, 2 * n)[n:]  # Y^j mod f for n <= j < 2n
    fbs = [f._right(p**d)._c for d in range(e)]  # f b for b = t^d
    cols = []
    for i in range(n):
        for fb in fbs:
            fb = [0] * i + list(fb)
            # the terms below Y^n are residues already
            col = SkewPoly._of(field, fb[:n], f.twist) + _combine(fb[n:], high, monic)
            cols.append(_flatten(col, n, e))
    rows = [[cols[j][r] for j in range(n * e)] for r in range(n * e)]
    basis = tuple(
        _unflatten(field, vec, n, f.twist) for vec in _linalg.nullspace(rows, p)
    )
    return EigenRing(field, f, basis)


def minimal_polynomial(u: SkewPoly, modulus: SkewPoly) -> tuple[list[int], list[list[int]]]:
    """Monic minimal polynomial mu over F_p of the residue u, and the powers of u.

    With f the monic form of the modulus (same residues), the rows
    M_i = Y^i u mod f, i < deg f, are the _y_rows of u, and each
    power is one Krylov step a -> a u = sum_i a_i M_i (mod f) from the one
    before, with no ring product or division; for the central u = Y^r the
    rows are the residue table rows T[r+i].  Under skew.CHECK_DIVISION the
    last step is multiplied back like a division, a u = Q f + (a u mod f)
    with the quotient Q of _step_quotient, and counted.  mu is
    little-endian; powers[i] is the flattened u^i, for i < deg mu.  The
    powers are reduced one at a time against a single growing echelon
    form whose rows also record which combination of powers they stand
    for; the first power that reduces to zero gives the monic relation.
    """
    field = modulus.field
    n, e, p = len(modulus._c) - 1, field.e, field.p
    f = modulus.monic_left()  # R modulus = R f, with the same residues
    ys = _y_rows(u, f, n)
    rows: list[tuple[int, list[int], list[int]]] = []  # pivot, vector, combination
    powers: list[list[int]] = []
    prev, power = None, SkewPoly.one(field, modulus.twist)
    while True:
        flat = _flatten(power, n, e)
        vec, combo = flat, [0] * len(powers) + [1]
        for pivot, row, row_combo in rows:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                for i, b in enumerate(row_combo):
                    combo[i] = (combo[i] - c * b) % p
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            check_rebuild(lambda: (prev * u, _step_quotient(prev, ys, f) * f + power))
            return combo, powers
        powers.append(flat)
        inv = pow(vec[pivot], p - 2, p)
        rows.append((pivot, [a * inv % p for a in vec], [a * inv % p for a in combo]))
        prev, power = power, _combine(power._c, ys, f)


def _poly_at(poly: list[int], powers: list[list[int]], modulus: SkewPoly) -> SkewPoly:
    """poly(u) modulo the modulus from the flattened powers of u; deg poly < len(powers)."""
    field, p = modulus.field, modulus.field.p
    acc = [0] * len(powers[0])
    for c, vec in zip(poly, powers):
        if c:
            acc = [a + c * b for a, b in zip(acc, vec)]
    return _unflatten(field, [a % p for a in acc], len(modulus._c) - 1, modulus.twist)


# ----------------------------------------------------------------------
# zero divisors


def _zero_divisor_pair(
    mu: list[int], powers: list[list[int]], modulus: SkewPoly
) -> Optional[tuple[SkewPoly, SkewPoly]]:
    """(nu(u), (mu/nu)(u)) for the first irreducible factor nu of mu.

    None when mu, the minimal polynomial of u with the powers of
    minimal_polynomial, is irreducible.  Otherwise both residues are
    nonzero and their product is zero modulo the modulus.
    """
    p = modulus.field.p
    nu = fp.first_factor(mu, p)
    if nu == mu:
        return None
    rest, rem = fp.divmod_(mu, nu, p)
    if rem:
        raise InvariantError("a factor of the minimal polynomial does not divide it")
    z, w = _poly_at(nu, powers, modulus), _poly_at(rest, powers, modulus)
    if z.is_zero or w.is_zero or not (z * w).mod_right(modulus).is_zero:
        raise InvariantError("zero-divisor witness does not annihilate")
    return z, w


class ZeroDivisor(Record):
    """Nonzero residues with element * witness = 0 modulo the modulus;
    fields element, witness (SkewPoly) and tries (int)."""

    __slots__ = ("element", "witness", "tries")


def _is_p_scalar(u: SkewPoly) -> bool:
    if u.is_zero:
        return True
    if u.degree > 0:
        return False
    return u._c[0] < u.field.p


def find_zero_divisor(E: EigenRing, rng: random.Random, max_tries: int) -> Optional[ZeroDivisor]:
    """Randomised zero-divisor search in the eigenring E = E(f).

    Returns None when the eigenring is too small to contain one (dim at
    most 1) or when max_tries nonscalar samples all had irreducible
    minimal polynomials.  Draws landing in F_p * 1 are redrawn without
    being counted as tries.  Under skew.CHECK_DIVISION each draw u is
    checked to lie in E(f), (f u) mod f = 0: a basis whose span leaves
    E(f) raises InvariantError after a few draws (each lands in E(f)
    with probability at most 1/p) instead of feeding the search.
    """
    if E.dim <= 1:
        return None
    f = E.modulus
    none = SkewPoly.zero(f.field, f.twist)
    for t in range(1, max_tries + 1):
        u = E.random_element(rng)
        guard = 0
        while _is_p_scalar(u):
            u = E.random_element(rng)
            guard += 1
            if guard > 1000:
                raise InvariantError("nonscalar redraw failed to terminate")
        check_rebuild(lambda: (none, (f * u).mod_right(f)))
        pair = _zero_divisor_pair(*minimal_polynomial(u, f), f)
        if pair is not None:
            return ZeroDivisor(element=pair[0], witness=pair[1], tries=t)
    return None


# ----------------------------------------------------------------------
# splitting


class Split(Record):
    """Proper factorisation left * right of the input, both monic; fields
    left, right (SkewPoly) and tries (int)."""

    __slots__ = ("left", "right", "tries")


class Indecomposable(Record):
    """Verdict that the input has no proper factorisation.

    Every verdict is proved: degree at most 1, or the fixed-field
    certificate of split_once.
    """

    __slots__ = ()


def _smallest_right_factor(f: SkewPoly) -> Optional[SkewPoly]:
    for d in range(1, len(f._c) - 1):
        for cand in fp.iter_monic(f.field.q, d):
            g = SkewPoly._of(f.field, cand, f.twist)
            if f.mod_right(g).is_zero:
                return g
    return None


def _split_off(f: SkewPoly, right: SkewPoly, tries: int) -> Split:
    """The Split f = left * right for a proper monic right factor."""
    left, rem = f.divmod_right(right)
    if not rem.is_zero or not 0 < right.degree < f.degree:
        raise InvariantError("splitting step produced no proper right factor")
    return Split(left=left, right=right, tries=tries)


def _fixed_field_span(powers: list[list[int]], f: SkewPoly, g: int) -> int:
    """dim over F_p of F_Q[u] modulo f, Q = p^g, from the powers of u.

    The F_p-basis of F_Q is the kernel of x -> x^(p^g) - x on the digit
    basis; F_Q[u] is spanned by b u^i for b in it and i < deg mu, with
    the powers u^i of minimal_polynomial.
    """
    field = f.field
    n, e, p = len(f._c) - 1, field.e, field.p
    frob, sub, digits = field._frob, field._sub, field._digits
    images = [digits(sub(frob(p**j, g), p**j)) for j in range(e)]
    fixed = [_pack(p, v) for v in _linalg.nullspace(list(zip(*images)), p)]
    rows = []
    for vec in powers:
        power = _unflatten(field, vec, n, f.twist)
        rows.extend(_flatten(power._left(b), n, e) for b in fixed)
    return _linalg.rank(rows, p)


def split_once(f: SkewPoly, rng: random.Random) -> Union[Split, Indecomposable]:
    """One splitting step on a monic skew polynomial, for every twist.

    f with f_0 = 0 gives the Split with right factor Y (tries 0).
    Otherwise let g = gcd(s, e) and Q = p^g.  The minimal polynomial mu
    over F_p of the central residue u = Y^(e/g) mod f, of degree d, and
    D = dim_Fp F_Q[u] (equal to d when g = 1) decide.  u and its powers
    are read off the residue table of Y^j mod f, so no verdict before the
    split needs a ring division, nor does any check of
    skew.CHECK_DIVISION on the way:

      * mu reducible: the Split through gcd_right(nu(u), f) for the
        first irreducible factor nu of mu, without randomness (tries 0);
      * mu irreducible and D = g deg f = lcm(g, d): a certified
        Indecomposable, with no eigenring (tries 0);
      * any other irreducible mu: f is reducible, and the eigenring
        search runs until it finds a zero divisor (tries counts every
        draw).

    Every verdict is certified, whatever the size of f.
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("split_once expects a monic polynomial")
    field, n = f.field, len(f._c) - 1
    if n <= 1:
        return Indecomposable()
    if not f._c[0]:
        Y = SkewPoly._of(field, (0, 1), f.twist)
        return Split(left=SkewPoly._of(field, f._c[1:], f.twist), right=Y, tries=0)
    g = math.gcd(f.twist, field.e)
    r = field.e // g
    mu, powers = minimal_polynomial(_residue_table(f, r + 1)[r], f)
    pair = _zero_divisor_pair(mu, powers, f)
    if pair is not None:
        return _split_off(f, gcd_right(pair[0], f), 0)
    d = len(mu) - 1
    span = d if g == 1 else _fixed_field_span(powers, f, g)
    if span == g * n == math.lcm(g, d):
        return Indecomposable()
    # f is reducible and R/Rf is semisimple, so E(f) is not a field and
    # the search cannot run dry
    E = eigen_ring(f)
    if E.dim <= 1:
        raise InvariantError(f"reducible f with an eigenring of dimension {E.dim}")
    zd = find_zero_divisor(E, rng, sys.maxsize)
    return _split_off(f, gcd_right(zd.element, f), zd.tries)


# ----------------------------------------------------------------------
# complete decomposition


class Decomposition(Record):
    """unit * factors[0] * ... * factors[-1], factors monic indecomposable;
    fields field, twist, unit (FqElem) and factors (tuple of SkewPoly)."""

    __slots__ = ("field", "twist", "unit", "factors")

    def product(self) -> SkewPoly:
        acc = SkewPoly.one(self.field, self.twist)
        for g in self.factors:
            acc = acc * g
        return acc.left_scalar(self.unit)

    def degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.factors)


def decompose_complete(f: SkewPoly, rng: random.Random) -> Decomposition:
    """Complete factorisation of f into monic irreducible skew polynomials.

    rng is the caller's and is required; a seeded one makes the result reproducible."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.lead
    g = f.monic_left()
    factors: list[SkewPoly] = []
    # depth first, left before right: a split pushes its right part first
    stack = [g] if g.degree >= 1 else []
    while stack:
        h = stack.pop()
        res = split_once(h, rng)
        if isinstance(res, Indecomposable):
            factors.append(h)
        else:
            stack += (res.right, res.left)
    return Decomposition(field=f.field, twist=f.twist, unit=unit, factors=tuple(factors))


# ----------------------------------------------------------------------
# brute-force reference


def oracle_decompose(f: SkewPoly) -> Decomposition:
    """Peel lexicographically-first smallest monic right factors, exhaustively.

    Independent reference for tests; refuses instances with
    degree * e above ORACLE_LIMIT.
    """
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    deg = len(f._c) - 1
    if deg * f.field.e > ORACLE_LIMIT:
        raise TooLargeError(
            f"oracle bound exceeded: degree {deg} * e {f.field.e} > {ORACLE_LIMIT}"
        )
    unit = f.lead
    g = f.monic_left()
    factors: list[SkewPoly] = []
    while g.degree >= 1:
        # a smallest-degree right factor is itself irreducible
        h = _smallest_right_factor(g)
        if h is None:
            factors.append(g)
            break
        q, rem = g.divmod_right(h)
        if not rem.is_zero:
            raise InvariantError("sweep factor does not right-divide")
        factors.append(h)
        g = q
    factors.reverse()
    return Decomposition(field=f.field, twist=f.twist, unit=unit, factors=tuple(factors))


# ----------------------------------------------------------------------
# success-rate estimation


class SplitStats(Record):
    """Fields trials, first_try_successes (int), mean_tries (float), ci95
    (a pair of floats) and seed (int)."""

    __slots__ = ("trials", "first_try_successes", "mean_tries", "ci95", "seed")


def _wilson(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _random_monic(field: FiniteField, degree: int, twist: int, rng: random.Random) -> SkewPoly:
    coeffs = [field.random_element(rng) for _ in range(degree)] + [field.one()]
    return SkewPoly(field, coeffs, twist)


def _random_decomposable(
    field: FiniteField, degree: int, twist: int, rng: random.Random
) -> SkewPoly:
    k = rng.randint(2, degree)
    cuts = sorted(rng.sample(range(1, degree), k - 1))
    bounds = [0] + cuts + [degree]
    f = SkewPoly.one(field, twist)
    for lo, hi in zip(bounds, bounds[1:]):
        f = f * _random_monic(field, hi - lo, twist, rng)
    return f


def estimate_split_success(
    field: FiniteField,
    degree: int,
    trials: int,
    seed: int,
    twist: int = 1,
) -> SplitStats:
    """First-try zero-divisor success rate on random decomposable inputs.

    Each trial builds a fresh product of at least two random monic
    factors and searches its eigenring with find_zero_divisor, up to a
    cap of 64 tries so mean_tries stays finite; a trial succeeds first
    try when the first draw splits.  Per-trial randomness is seeded
    independently.
    """
    if degree < 2:
        raise ValueError("decomposable inputs need degree at least 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    cap = 64
    successes = 0
    total_tries = 0
    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        f = _random_decomposable(field, degree, twist, rng)
        zd = find_zero_divisor(eigen_ring(f), rng, cap)
        used = zd.tries if zd is not None else cap
        if used == 1:
            successes += 1
        total_tries += used
    return SplitStats(
        trials=trials,
        first_try_successes=successes,
        mean_tries=total_tries / trials,
        ci95=_wilson(successes, trials),
        seed=seed,
    )
