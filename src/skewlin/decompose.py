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

  * mu has a proper monic factor nu: gcd_right(nu(u) mod f, f) is a
    proper right factor of f, found without randomness.
  * mu irreducible: F_Q[u] is a quotient of F_Q (x) F_(p^d), a product
    of fields F_(p^lcm(g, d)), so it is a field exactly when
    D = lcm(g, d), and then deg m = D/g.  D = g deg f = lcm(g, d)
    certifies f irreducible.  For g = 1, D = d and the rule reads
    deg mu = deg f.
  * otherwise f is reducible and R/Rf is semisimple (m is squarefree),
    so the eigenring

        E(f) = { u : deg u < deg f and f u is a left multiple of f }

    is a product of matrix algebras that is not a field, and holds
    zero divisors.  The randomised search below is repeated until it
    finds one; most draws succeed.

The zero-divisor search samples E(f), an F_p-algebra under residue
multiplication modulo f.  A zero divisor z with nonzero witness v
(z v = 0 mod f) always yields a proper right factor gcd_right(z, f);
zero divisors come from the minimal polynomial over F_p of a random
nonscalar residue (a reducible minimal polynomial splits u into
annihilating pieces, an irreducible one means the try failed).

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
from .skew import SkewPoly, gcd_right

ORACLE_LIMIT = 12  # max deg(f) * e for oracle_decompose


# ----------------------------------------------------------------------
# eigenring


class EigenRing:
    """F_p-basis of E(f), with residue arithmetic modulo f."""

    __slots__ = ("field", "modulus", "basis")

    def __init__(self, field: FiniteField, modulus: SkewPoly, basis: tuple[SkewPoly, ...]):
        self.field = field
        self.modulus = modulus
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def multiply(self, u: SkewPoly, v: SkewPoly) -> SkewPoly:
        return (u * v).mod_right(self.modulus)

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


def eigen_ring(f: SkewPoly) -> EigenRing:
    """Compute an F_p-basis of E(f) as the nullspace of u -> f u mod f."""
    if f.is_zero or f.degree < 1:
        raise ValueError("eigenring needs a modulus of degree at least 1")
    field = f.field
    n, e, p = len(f.coeffs) - 1, field.e, field.p
    cols = []
    for i in range(n):
        for d in range(e):
            digits = [0] * e
            digits[d] = 1
            u = SkewPoly.monomial(field, i, field.element(tuple(digits)), f.twist)
            cols.append(_flatten((f * u).mod_right(f), n, e))
    rows = [[cols[j][r] for j in range(n * e)] for r in range(n * e)]
    basis = tuple(
        _unflatten(field, vec, n, f.twist) for vec in _linalg.nullspace(rows, p)
    )
    return EigenRing(field, f, basis)


def minimal_polynomial(u: SkewPoly, modulus: SkewPoly) -> list[int]:
    """Monic minimal polynomial of the residue u over F_p, little-endian.

    The powers 1, u, u^2, ... (right products modulo the modulus) are
    reduced one at a time against a single growing echelon form whose
    rows also record which combination of powers they stand for; the
    first power that reduces to zero gives the monic relation.
    """
    field = modulus.field
    n, e, p = len(modulus.coeffs) - 1, field.e, field.p
    rows: list[tuple[int, list[int], list[int]]] = []  # pivot, vector, combination
    power = SkewPoly.one(field, modulus.twist)
    k = 0
    while True:
        vec = _flatten(power, n, e)
        combo = [0] * k + [1]
        for pivot, row, row_combo in rows:
            c = vec[pivot]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                for i, b in enumerate(row_combo):
                    combo[i] = (combo[i] - c * b) % p
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            return combo
        inv = pow(vec[pivot], p - 2, p)
        rows.append((pivot, [a * inv % p for a in vec], [a * inv % p for a in combo]))
        power = (power * u).mod_right(modulus)
        k += 1


# ----------------------------------------------------------------------
# zero divisors


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
    return not any(u.coeffs[0].digits[1:])


def find_zero_divisor(
    f: SkewPoly,
    rng: random.Random,
    max_tries: int,
    ring: Optional[EigenRing] = None,
) -> Optional[ZeroDivisor]:
    """Randomised zero-divisor search in E(f).

    Returns None when the eigenring is too small to contain one (dim at
    most 1) or when max_tries nonscalar samples all had irreducible
    minimal polynomials.  Draws landing in F_p * 1 are redrawn without
    being counted as tries.
    """
    E = ring if ring is not None else eigen_ring(f)
    if E.dim <= 1:
        return None
    field, p = E.field, E.field.p
    for t in range(1, max_tries + 1):
        u = E.random_element(rng)
        guard = 0
        while _is_p_scalar(u):
            u = E.random_element(rng)
            guard += 1
            if guard > 1000:
                raise InvariantError("nonscalar redraw failed to terminate")
        m = minimal_polynomial(u, f)
        parts = fp.factor_monic(m, p)
        if len(parts) == 1 and parts[0][1] == 1:
            continue  # irreducible minimal polynomial, no zero divisor here
        if len(parts) >= 2:
            g, k = parts[0]
            z = _eval_fp_poly(fp.poly_pow(g, k, p), u, f)
            rest, rem = fp.divmod_(m, fp.poly_pow(g, k, p), p)
            if rem:
                raise InvariantError("a factor of the minimal polynomial does not divide it")
            v = _eval_fp_poly(rest, u, f)
        else:
            g, k = parts[0]  # m = g^k with k >= 2
            z = _eval_fp_poly(g, u, f)
            v = z
            for _ in range(k - 2):
                v = E.multiply(v, z)
        if z.is_zero or v.is_zero or not E.multiply(z, v).is_zero:
            raise InvariantError("zero-divisor witness does not annihilate")
        return ZeroDivisor(element=z, witness=v, tries=t)
    return None


def _eval_fp_poly(poly: list[int], u: SkewPoly, modulus: SkewPoly) -> SkewPoly:
    """Evaluate an F_p polynomial at the residue u, modulo modulus."""
    field = modulus.field
    acc = SkewPoly.zero(field, modulus.twist)
    for c in reversed(poly):
        acc = (acc * u).mod_right(modulus)
        if c:
            acc = acc + SkewPoly.one(field, modulus.twist).left_scalar(field.scalar(c))
    return acc


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
    certificate of split_once.  tries is always 0.
    """

    tries: int


def _iter_monic_skew(field: FiniteField, degree: int, twist: int):
    """All monic skew polynomials of the given degree, lexicographic order."""
    q = field.p ** field.e
    one = field.one()
    for idx in range(q**degree):
        rem = idx
        coeffs = []
        for _ in range(degree):
            coeffs.append(field.from_int(rem % q))
            rem //= q
        coeffs.append(one)
        yield SkewPoly(field, coeffs, twist)


def _smallest_right_factor(f: SkewPoly) -> Optional[SkewPoly]:
    for d in range(1, len(f.coeffs) - 1):
        for g in _iter_monic_skew(f.field, d, f.twist):
            if f.mod_right(g).is_zero:
                return g
    return None


def _split_off(f: SkewPoly, right: SkewPoly, tries: int) -> Split:
    """The Split f = left * right for a proper monic right factor."""
    left, rem = f.divmod_right(right)
    if not rem.is_zero or not 0 < right.degree < f.degree:
        raise InvariantError("splitting step produced no proper right factor")
    return Split(left=left, right=right, tries=tries)


def _fixed_field_span(u: SkewPoly, f: SkewPoly, g: int, d: int) -> int:
    """dim over F_p of F_Q[u] modulo f, Q = p^g, for u of degree-d mu.

    The F_p-basis of F_Q is the kernel of x -> x^(p^g) - x on the digit
    basis; F_Q[u] is spanned by b u^i for b in it and i < d.
    """
    field = f.field
    n, e, p = len(f.coeffs) - 1, field.e, field.p
    images = [(x.frobenius(g) - x).digits for x in (field.from_int(p**j) for j in range(e))]
    fixed = [field.element(v) for v in _linalg.nullspace(list(zip(*images)), p)]
    rows = []
    power = SkewPoly.one(field, f.twist)
    for _ in range(d):
        rows.extend(_flatten(power.left_scalar(b), n, e) for b in fixed)
        power = (power * u).mod_right(f)
    return _linalg.rank(rows, p)


def split_once(f: SkewPoly, rng: random.Random) -> Union[Split, Indecomposable]:
    """One splitting step on a monic skew polynomial, for every twist.

    f with f_0 = 0 gives the Split with right factor Y (tries 0).
    Otherwise let g = gcd(s, e) and Q = p^g.  The minimal polynomial mu
    over F_p of the central residue u = Y^(e/g) mod f, of degree d, and
    D = dim_Fp F_Q[u] (equal to d when g = 1) decide:

      * mu with a proper monic factor nu: the Split through
        gcd_right(nu(u) mod f, f), without randomness (tries 0);
      * mu irreducible and D = g deg f = lcm(g, d): a certified
        Indecomposable, with no eigenring (tries 0);
      * any other irreducible mu: f is reducible, and the eigenring
        search runs until it finds a zero divisor (tries counts every
        draw).

    Every verdict is certified, whatever the size of f.
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("split_once expects a monic polynomial")
    field, p, n = f.field, f.field.p, len(f.coeffs) - 1
    if n <= 1:
        return Indecomposable(tries=0)
    if not f.coeffs[0]:
        Y = SkewPoly.monomial(field, 1, field.one(), f.twist)
        return Split(left=SkewPoly(field, f.coeffs[1:], f.twist), right=Y, tries=0)
    g = math.gcd(f.twist, field.e)
    u = SkewPoly.monomial(field, field.e // g, field.one(), f.twist).mod_right(f)
    mu = minimal_polynomial(u, f)
    if not fp.is_irreducible(mu, p):
        nu = fp.factor_monic(mu, p)[0][0]  # a proper factor: nu(u) is a nonzero central non-unit
        return _split_off(f, gcd_right(_eval_fp_poly(nu, u, f), f), 0)
    d = len(mu) - 1
    span = d if g == 1 else _fixed_field_span(u, f, g, d)
    if span == g * n == math.lcm(g, d):
        return Indecomposable(tries=0)
    # f is reducible and R/Rf is semisimple, so E(f) is not a field and
    # the search cannot run dry
    E = eigen_ring(f)
    if E.dim <= 1:
        raise InvariantError(f"reducible f with an eigenring of dimension {E.dim}")
    zd = find_zero_divisor(f, rng, sys.maxsize, ring=E)
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


def decompose_complete(f: SkewPoly, rng: Optional[random.Random] = None) -> Decomposition:
    """Complete factorisation of f into monic irreducible skew polynomials."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if rng is None:
        rng = random.Random()
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
    factors, then asks find_zero_divisor for one try; failed trials keep
    retrying on the same input up to a cap of 64 tries so mean_tries
    stays finite.  Per-trial randomness is seeded independently.
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
        ring = eigen_ring(f)
        used = cap
        for t in range(1, cap + 1):
            if find_zero_divisor(f, rng, 1, ring=ring) is not None:
                used = t
                break
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
