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
from dataclasses import dataclass
from typing import Optional, Union

from . import _fppoly as fp
from . import _linalg
from .errors import InvariantError, TooLargeError
from .fields import FiniteField, FqElem
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
                out = out + b.left_scalar(self.field.scalar(c))
        return out

    def __repr__(self) -> str:
        return f"EigenRing(dim={self.dim}, modulus_degree={self.modulus.degree})"


def _flatten(u: SkewPoly, n: int, e: int) -> list[int]:
    """Digits of the residue u, padded to n coefficients of e digits each."""
    out = [0] * (n * e)
    for i, c in enumerate(u.coeffs):
        out[i * e : i * e + e] = c.digits
    return out


def _unflatten(field: FiniteField, vec: list[int], n: int, twist: int) -> SkewPoly:
    e = field.e
    coeffs = [field.element(tuple(vec[i * e + d] for d in range(e))) for i in range(n)]
    return SkewPoly(field, coeffs, twist)


def _times_y(a: SkewPoly, f: SkewPoly) -> tuple[FqElem, SkewPoly]:
    """(t, Y a - t f) for a residue a modulo the monic f: one left
    multiplication by Y on R/Rf.  Y a = sum_i sigma(a_i) Y^(i+1), and t is
    its coefficient of Y^(deg f)."""
    field, n = f.field, len(f.coeffs) - 1
    shifted = [field.zero()] + [c.frobenius(f.twist) for c in a.coeffs]
    shifted += [field.zero()] * (n + 1 - len(shifted))
    top = shifted[n]
    if top:
        shifted = [c - top * fc for c, fc in zip(shifted, f.coeffs)]
    return top, SkewPoly(field, shifted[:n], f.twist)


def _y_rows(a: SkewPoly, f: SkewPoly, count: int) -> list[SkewPoly]:
    """[Y^i a mod f for i < count], for a residue a of the monic f.

    Rf is a left ideal, so left multiplication by Y is well defined on
    R/Rf: each row is _times_y of the row before, and under
    skew.CHECK_DIVISION it is multiplied back through the ring product
    (t f + row = Y prev) and counted like a division.
    """
    Y = SkewPoly.monomial(f.field, 1, f.field.one(), f.twist)
    rows = [a]
    for _ in range(1, count):
        prev = rows[-1]
        top, row = _times_y(prev, f)
        check_rebuild(lambda: (Y * prev, f.left_scalar(top) + row))
        rows.append(row)
    return rows


def _residue_table(f: SkewPoly, size: int) -> list[SkewPoly]:
    """T[j] = Y^j mod f for j < size, f monic of degree n.

    The rows j < n are the monomials themselves; the rows past them are
    the _y_rows of Y^(n-1), each one checked step.
    """
    field, n = f.field, len(f.coeffs) - 1
    k = min(n, size)
    monomials = [SkewPoly.monomial(field, j, field.one(), f.twist) for j in range(k)]
    return monomials[:-1] + _y_rows(monomials[-1], f, size - k + 1)


def _combine(coeffs: list[FqElem], rows: list[SkewPoly], f: SkewPoly) -> SkewPoly:
    """sum_k c_k rows[k], a residue modulo f; len(coeffs) <= len(rows).

    Reduction modulo the left ideal Rf is left F_q-linear, so with
    rows[k] = Y^k a mod f this is (sum_k c_k Y^k) a mod f.
    """
    out = [f.field.zero()] * (len(f.coeffs) - 1)
    for c, row in zip(coeffs, rows):
        if c:
            for i, t in enumerate(row.coeffs):
                if t:
                    v = c * t
                    out[i] = out[i] + v if out[i] else v
    return SkewPoly(f.field, out, f.twist)


def _step_quotient(a: SkewPoly, rows: list[SkewPoly], f: SkewPoly) -> SkewPoly:
    """Q with a u = Q f + sum_i a_i rows[i], for the _y_rows of u.

    Y^i u = q_i f + rows[i] with q_0 = 0 and q_i = Y q_(i-1) + t_i, where
    t_i = sigma(c_(i-1)), c_k the coefficient of Y^(n-1) in rows[k], is
    the multiple of f that _times_y subtracted.  So q_i is
    sum_(m<i) sigma^(m+1)(c_(i-m-1)) Y^m, and Q = sum_i a_i q_i.
    """
    field, n = f.field, len(f.coeffs) - 1
    zero = field.zero()
    tops = [row.coeffs[n - 1] if len(row.coeffs) == n else zero for row in rows]
    cs = a.coeffs
    out = []
    for m in range(len(cs) - 1):
        acc = zero
        for i in range(m + 1, len(cs)):
            if cs[i] and tops[i - m - 1]:
                v = cs[i] * tops[i - m - 1].frobenius(f.twist * (m + 1))
                acc = acc + v if acc else v
        out.append(acc)
    return SkewPoly(field, out, f.twist)


def eigen_ring(f: SkewPoly) -> EigenRing:
    """Compute an F_p-basis of E(f) as the nullspace of u -> f u mod f.

    The column of b Y^i, for b in the digit basis of F_q and i < deg f, is
    f b Y^i = sum_j f_j sigma^j(b) Y^(i+j), combined from the residue
    table of Y^j mod f: no ring product or division.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("eigenring needs a modulus of degree at least 1")
    field = f.field
    n, e, p = len(f.coeffs) - 1, field.e, field.p
    monic = f.monic_left()  # R f = R monic, with the same residues
    high = _residue_table(monic, 2 * n)[n:]  # Y^j mod f for n <= j < 2n
    zero = field.zero()
    cols = []
    for i in range(n):
        for d in range(e):
            fb = [zero] * i + list(f.right_scalar(field.from_int(p**d)).coeffs)
            # the terms below Y^n are residues already
            col = SkewPoly(field, fb[:n], f.twist) + _combine(fb[n:], high, monic)
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
    n, e, p = len(modulus.coeffs) - 1, field.e, field.p
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
        prev, power = power, _combine(power.coeffs, ys, f)


def _poly_at(poly: list[int], powers: list[list[int]], modulus: SkewPoly) -> SkewPoly:
    """poly(u) modulo the modulus from the flattened powers of u; deg poly < len(powers)."""
    field, p = modulus.field, modulus.field.p
    acc = [0] * len(powers[0])
    for c, vec in zip(poly, powers):
        if c:
            acc = [a + c * b for a, b in zip(acc, vec)]
    return _unflatten(field, [a % p for a in acc], len(modulus.coeffs) - 1, modulus.twist)


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


@dataclass(frozen=True)
class ZeroDivisor:
    """Nonzero residues with element * witness = 0 modulo the modulus."""

    element: SkewPoly
    witness: SkewPoly
    tries: int


def _is_p_scalar(u: SkewPoly) -> bool:
    if u.is_zero:
        return True
    if u.degree > 0:
        return False
    return u.coeffs[0].as_int() < u.field.p


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


@dataclass(frozen=True)
class Split:
    """Proper factorisation left * right of the input, both monic."""

    left: SkewPoly
    right: SkewPoly
    tries: int


@dataclass(frozen=True)
class Indecomposable:
    """Verdict that the input has no proper factorisation.

    Every verdict is proved: degree at most 1, or the fixed-field
    certificate of split_once.
    """


def _smallest_right_factor(f: SkewPoly) -> Optional[SkewPoly]:
    for d in range(1, len(f.coeffs) - 1):
        for cand in fp.iter_monic(f.field.q, d):
            g = SkewPoly(f.field, [f.field.from_int(c) for c in cand], f.twist)
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
    n, e, p = len(f.coeffs) - 1, field.e, field.p
    images = [(x.frobenius(g) - x).digits for x in (field.from_int(p**j) for j in range(e))]
    fixed = [field.element(v) for v in _linalg.nullspace(list(zip(*images)), p)]
    rows = []
    for vec in powers:
        power = _unflatten(field, vec, n, f.twist)
        rows.extend(_flatten(power.left_scalar(b), n, e) for b in fixed)
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
    field, n = f.field, len(f.coeffs) - 1
    if n <= 1:
        return Indecomposable()
    if not f.coeffs[0]:
        Y = SkewPoly.monomial(field, 1, field.one(), f.twist)
        return Split(left=SkewPoly(field, f.coeffs[1:], f.twist), right=Y, tries=0)
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


@dataclass(frozen=True)
class Decomposition:
    """unit * factors[0] * ... * factors[-1], factors monic indecomposable."""

    field: FiniteField
    twist: int
    unit: FqElem
    factors: tuple[SkewPoly, ...]

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

    def rec(h: SkewPoly) -> None:
        res = split_once(h, rng)
        if isinstance(res, Indecomposable):
            factors.append(h)
        else:
            rec(res.left)
            rec(res.right)

    if g.degree >= 1:
        rec(g)
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
    deg = len(f.coeffs) - 1
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


@dataclass(frozen=True)
class SplitStats:
    trials: int
    first_try_successes: int
    mean_tries: float
    ci95: tuple[float, float]
    seed: int


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
