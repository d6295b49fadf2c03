"""Complete decomposition of additive polynomials via the skew ring.

A SkewPoly is at once an additive polynomial and an element of
R = F_q[Y; sigma] (Ore's correspondence): composition is multiplication
and skew degrees add, so a complete decomposition into indecomposable
additive polynomials is exactly a factorisation into irreducible skew
polynomials.

split_once splits off Y whenever f_0 = 0, for every twist: then
f = (sum_i f_i Y^(i-1)) * Y exactly.  Otherwise it follows Giesbrecht
(J. Symb. Comp. 1998) when the twist s is coprime to e.  Then Y^e is
central, and the minimal polynomial mu over F_p of u = Y^e acting on
R/Rf (mu(Y^e) is the bound of f) settles the question in one of three
ways (mu = Z would need f = Y^n, which has f_0 = 0):

  * mu irreducible of degree deg f: f is irreducible, certified.
  * mu has a proper monic factor nu: gcd_right(nu(u) mod f, f) is a
    proper right factor of f, found without randomness.
  * mu irreducible of degree below deg f: R/Rf is isotypic
    semisimple, so the eigenring

        E(f) = { u : deg u < deg f and f u is a left multiple of f }

    is a full matrix algebra over F_(p^deg mu) of size at least 2 and
    holds zero divisors.  The randomised search below is repeated until
    it finds one; most draws succeed.

The zero-divisor search samples E(f), an F_p-algebra under residue
multiplication modulo f.  A zero divisor z with nonzero witness v
(z v = 0 mod f) always yields a proper right factor gcd_right(z, f);
zero divisors come from the minimal polynomial over F_p of a random
nonscalar residue (a reducible minimal polynomial splits u into
annihilating pieces, an irreducible one means the try failed).

Twists with gcd(s, e) > 1 have a larger fixed field, where the F_p
certificate does not apply.  They keep the randomised search alone:
small instances (skew degree times field degree at most ORACLE_LIMIT)
fall back to an exhaustive right-factor sweep and their verdicts are
certified, larger ones report an uncertified verdict with a heuristic
confidence.

oracle_decompose is an independent brute-force reference: it repeatedly
peels the lexicographically first smallest-degree monic right factor.
It shares no code with the randomised path beyond ring arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Union

from . import _fppoly as fp
from . import _linalg
from .errors import InvariantError, TooLargeError
from .fields import FiniteField, FqElem
from .skew import SkewPoly, gcd_right

ORACLE_LIMIT = 12  # max deg(f) * e for exhaustive sweeps
RANDOM_BUDGET = 8  # random tries before a small instance falls back (gcd(s, e) > 1)


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

    certified is True when the bound certificate or an exhaustive
    right-factor sweep proved it; otherwise confidence is the heuristic
    1 - (8/9)**tries for the random tries actually spent.
    """

    certified: bool
    confidence: float
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


def split_once(
    f: SkewPoly, rng: random.Random, max_tries: int = 32
) -> Union[Split, Indecomposable]:
    """One splitting step on a monic skew polynomial.

    For every twist, f with f_0 = 0 gives the Split with right factor Y
    (tries 0).  Otherwise, when the twist s is coprime to e, the minimal
    polynomial mu over F_p of the central residue u = Y^e mod f decides:

      * mu irreducible of degree deg f: a certified Indecomposable, with
        no eigenring and no sweep (tries 0);
      * mu with a proper monic factor nu: the Split through
        gcd_right(nu(u) mod f, f), without randomness (tries 0);
      * any other irreducible mu of lower degree: f is reducible, and
        the eigenring search runs in rounds of max_tries until it finds
        a zero divisor (tries counts every draw).

    Every verdict on this path is certified, whatever the size of f.

    Other twists search the eigenring alone.  Small instances
    (degree * e <= ORACLE_LIMIT) cap the random phase at RANDOM_BUDGET
    tries and then settle the question exhaustively, so their
    Indecomposable verdicts are certified; larger instances spend
    max_tries and may return an uncertified verdict.
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("split_once expects a monic polynomial")
    deg = len(f.coeffs) - 1
    if deg <= 1:
        return Indecomposable(certified=True, confidence=1.0, tries=0)
    if not f.coeffs[0]:
        Y = SkewPoly.monomial(f.field, 1, f.field.one(), f.twist)
        return Split(left=SkewPoly(f.field, f.coeffs[1:], f.twist), right=Y, tries=0)
    if math.gcd(f.twist, f.field.e) == 1:
        return _split_central(f, rng, max(max_tries, 1))
    small = deg * f.field.e <= ORACLE_LIMIT
    budget = min(max_tries, RANDOM_BUDGET) if small else max_tries
    E = eigen_ring(f)
    tries = 0
    if E.dim > 1:
        zd = find_zero_divisor(f, rng, budget, ring=E)
        if zd is not None:
            return _split_off(f, gcd_right(zd.element, f), zd.tries)
        tries = budget
    if small:
        g = _smallest_right_factor(f)
        if g is None:
            return Indecomposable(certified=True, confidence=1.0, tries=tries)
        return _split_off(f, g, tries)
    return Indecomposable(
        certified=False, confidence=1.0 - (8.0 / 9.0) ** tries, tries=tries
    )


def _split_central(f: SkewPoly, rng: random.Random, rounds: int) -> Union[Split, Indecomposable]:
    """split_once for a twist coprime to e, through the bound of f."""
    field, p = f.field, f.field.p
    u = SkewPoly.monomial(field, field.e, field.one(), f.twist).mod_right(f)
    mu = minimal_polynomial(u, f)
    if not fp.is_irreducible(mu, p):
        nu = fp.factor_monic(mu, p)[0][0]  # a proper factor: nu(u) is a nonzero central non-unit
        return _split_off(f, gcd_right(_eval_fp_poly(nu, u, f), f), 0)
    if len(mu) - 1 == f.degree:
        return Indecomposable(certified=True, confidence=1.0, tries=0)
    # isotypic: E(f) is a matrix algebra of size deg f / deg mu >= 2
    E = eigen_ring(f)
    if E.dim <= 1:
        raise InvariantError(f"reducible f with an eigenring of dimension {E.dim}")
    tries = 0
    while True:
        zd = find_zero_divisor(f, rng, rounds, ring=E)
        if zd is not None:
            return _split_off(f, gcd_right(zd.element, f), tries + zd.tries)
        tries += rounds


# ----------------------------------------------------------------------
# complete decomposition


@dataclass(frozen=True)
class Decomposition:
    """unit * factors[0] * ... * factors[-1], factors monic indecomposable."""

    field: FiniteField
    twist: int
    unit: FqElem
    factors: tuple[SkewPoly, ...]
    certified: bool

    def product(self) -> SkewPoly:
        acc = SkewPoly.one(self.field, self.twist)
        for g in self.factors:
            acc = acc * g
        return acc.left_scalar(self.unit)

    def degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.factors)


def decompose_complete(
    f: SkewPoly, rng: Optional[random.Random] = None, max_tries: int = 200
) -> Decomposition:
    """Complete factorisation of f into monic irreducible skew polynomials."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if rng is None:
        rng = random.Random()
    unit = f.lead
    g = f.monic_left()
    factors: list[SkewPoly] = []
    certified = True

    def rec(h: SkewPoly) -> None:
        nonlocal certified
        res = split_once(h, rng, max_tries=max_tries)
        if isinstance(res, Indecomposable):
            factors.append(h)
            certified = certified and res.certified
        else:
            rec(res.left)
            rec(res.right)

    if g.degree >= 1:
        rec(g)
    return Decomposition(
        field=f.field, twist=f.twist, unit=unit, factors=tuple(factors), certified=certified
    )


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
    return Decomposition(
        field=f.field, twist=f.twist, unit=unit, factors=tuple(factors), certified=True
    )


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
