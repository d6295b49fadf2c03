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
used.  These residue steps work on whole coefficient rows through the
field's row kernels: a left multiplication by Y is one _frob_row and
one _addmul, a combination one _addmul per nonzero coefficient, and an
eigenring column is an index list, built with no SkewPoly.
skew.CHECK_DIVISION multiplies back, like a division and without one,
every computed row and the last Krylov step of each minimal polynomial
(through its quotient), each by one fused product (SkewPoly._mul_add);
find_zero_divisor checks each eigenring draw u against f u mod f = 0.

The F_p-linear algebra is one elimination, in _linalg: the package's
only Gaussian elimination, _linalg.eliminator, is fed the F_p-vectors
of residues (_vectors) in order.  Each becomes an echelon row, pivoted
at its lowest nonzero coordinate and recording the combination of
inputs it stands for, or reduces to zero and yields its unique
dependency on the inputs before it.  minimal_polynomial feeds the
powers 1, u, u^2, ... and stops at the first dependency, which is mu;
eigen_ring feeds its deg f * e columns and keeps every dependency, the
nullspace basis of reduced row echelon form, one vector per free
column; the fixed-field certificate reads the basis of F_Q and a rank
off it.  Vectors have one arithmetic per characteristic.  Over GF(2^e)
an element's index is its digit vector, so a residue's F_2 vector is
one int, its coefficient indices side by side (sum_i c_i 2^(e i)): a
row step is one XOR, and a vector is read back by e-bit shifts.  In
odd characteristic a vector is the list of the coefficients' base-p
digits.

One zero-divisor rule serves the central residue and every eigenring
draw.  For the first irreducible factor nu of a reducible mu, found by
distinct-degree search, z = nu(u) and w = (mu/nu)(u) are nonzero (mu
is minimal) while z w = mu(u) = 0, so z is a zero divisor and
gcd_right(f, z) is a proper right factor of f.  For an eigenring draw
and for the central residue of the root, minimal_polynomial returns mu
together with the vectors of the powers u^0, ..., u^(d-1) its Krylov
loop builds, and z and w are F_p-combinations of them.  A part that
inherited its mu (below) needs no powers: u^i = Y^(r i) mod f, so
z = nu(Y^r) mod f and w = (mu/nu)(Y^r) mod f are two ring divisions,
and gcd_right(f, nu(u)) = gcd_right(f, nu(Y^r) mod f) is the same
factor.
The witness check z != 0, w != 0, z w = 0 mod f runs either way, so
an inherited polynomial that does not annihilate u raises
InvariantError instead of splitting.

A split also proves the minimal polynomial of each part, when g = 1.
Let M = R/Rf.  A central c annuls M exactly when c lies in Rf, so the
annihilator of M in F_p[Y^e] is (mu).  Lemma: let f = left * right be
a split of f made by split_once.
  * Central split, with nu the first irreducible factor of mu,
    z = nu(u) and right = gcd_right(f, z): Y^e mod right has minimal
    polynomial nu, and Y^e mod left has minimal polynomial mu/nu.
    Proof: nu(Y^e) = z + a f for some a, and right right-divides both
    z and f, so nu(Y^e) lies in R right and the minimal polynomial of
    Y^e modulo right divides nu.  It is not 1, as right has degree at
    least 1, and nu is irreducible.  For left: R right = Rf + Rz, so
    R right / Rf = nu(Y^e) M, and x right -> x makes it isomorphic to
    R/R left (R is a domain).  Its annihilator is
    {P : mu divides P nu} = (mu/nu).
  * Eigenring split (mu irreducible, f reducible): both parts have minimal
    polynomial mu.  Proof: c = mu(Y^e) is central and lies in Rf,
    which lies in R right, so mu annuls Y^e modulo right.  And
    c right = right c lies in Rf = R left right, so c lies in R left
    (R is a domain).  The minimal polynomials divide mu, which is
    irreducible.
So every part below the root inherits its minimal polynomial, and only
the root runs a central Krylov search.  Each part carries the pair
(mu, nu), nu the first irreducible factor of its mu when that is known:
the right part of a central split gets (nu, nu) and both parts of an
eigenring split (mu, mu), known irreducible and never factored again;
the left part gets (mu/nu, nu) when nu divides mu/nu (nu is the least
irreducible factor of mu, so of mu/nu too) and (mu/nu, None)
otherwise.  A part with a reducible polynomial splits centrally as
above; one with an irreducible polynomial of its own degree is
certified indecomposable by the g = 1 rule deg mu = deg f, with no
computation; a larger one is reducible, and goes straight to the
eigenring.  decompose_complete carries these pairs down its stack.
For g > 1 the certificate needs the part's own span D, so nothing is
carried.

oracle_decompose is an independent brute-force reference: it repeatedly
peels the lexicographically first smallest-degree monic right factor.
It shares no code with the randomised path beyond ring arithmetic.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Optional, Sequence, Union

from . import _fppoly as fp
from . import _linalg
from ._record import Record
from .errors import InvariantError, TooLargeError
from .fields import FiniteField, _pack
from .skew import SkewPoly, check_rebuild, gcd_right

ORACLE_LIMIT = 12  # max deg(f) * e for oracle_decompose


# ----------------------------------------------------------------------
# eigenring


class EigenRing(Record):
    """F_p-basis of E(f), the residues modulo f; products are (u * v).mod_right(f).

    Fields field (FiniteField), modulus (the SkewPoly f) and basis (a
    tuple of SkewPoly residues); compared by value.
    """

    __slots__ = ("field", "modulus", "basis")

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


# ----------------------------------------------------------------------
# F_p-vectors of residues, in the form of _linalg.eliminator


class _BitVectors(Record):
    """F_2-vectors of residues with n coefficients, over GF(2^e).

    An element's index is its digit vector, one bit per digit, so the
    F_2 coordinates of a residue are its coefficient indices side by
    side: the int sum_i c_i 2^(e i), read back by e-bit shifts.  A sum is
    an XOR, and the only nonzero scalar is 1.
    """

    __slots__ = ("field", "n")

    def pack(self, cs: Sequence[int]) -> int:
        e, vec = self.field.e, 0
        for c in reversed(cs):
            vec = vec << e | c
        return vec

    def unpack(self, vec: int) -> list[int]:
        e = self.field.e
        mask = (1 << e) - 1
        return [vec >> (e * i) & mask for i in range(self.n)]

    def scalars(self, vec: int, count: int) -> list[int]:
        """The first count coordinates of vec, as F_p elements."""
        return [vec >> i & 1 for i in range(count)]

    def span(self, coeffs: Sequence[int], vecs: Sequence[int]) -> int:
        """sum_k c_k vecs[k], for F_p coefficients c_k."""
        acc = 0
        for c, vec in zip(coeffs, vecs):
            if c:
                acc ^= vec
        return acc


class _DigitVectors(Record):
    """F_p-vectors of residues with n coefficients, over GF(p^e), p odd:
    lists of n e base-p digits, e digits per coefficient, low first."""

    __slots__ = ("field", "n")

    def pack(self, cs: Sequence[int]) -> list[int]:
        digits, e = self.field._digits, self.field.e
        vec = [0] * (self.n * e)
        for i, c in enumerate(cs):
            vec[i * e : i * e + e] = digits(c)
        return vec

    def unpack(self, vec: list[int]) -> list[int]:
        p, e = self.field.p, self.field.e
        return [_pack(p, vec[i * e : i * e + e]) for i in range(self.n)]

    def scalars(self, vec: list[int], count: int) -> list[int]:
        return vec + [0] * (count - len(vec))

    def span(self, coeffs: Sequence[int], vecs: Sequence[list[int]]) -> list[int]:
        acc = [0] * (self.n * self.field.e)
        for c, vec in zip(coeffs, vecs):
            if c:
                acc = [a + c * b for a, b in zip(acc, vec)]
        return [a % self.field.p for a in acc]


def _vectors(field: FiniteField, n: int) -> Union[_BitVectors, _DigitVectors]:
    """The F_p-vectors of residues with n coefficients over the field, in
    the one arithmetic of its characteristic, which is the vector form of
    _linalg.eliminator(p): an int over F_2, a list of digits for odd p.

    The records only convert between residues and vectors (pack, unpack,
    scalars, span); the elimination itself is _linalg's.  Fed the columns
    of a matrix, it returns the nullspace vectors of reduced row echelon
    form, one per free column in order, and leaves as many rows as the
    rank.
    """
    return (_BitVectors if field.p == 2 else _DigitVectors)(field, n)


def _times_y(a: SkewPoly, f: SkewPoly) -> tuple[int, SkewPoly]:
    """(t, Y a - t f) for a residue a modulo the monic f: one left
    multiplication by Y on R/Rf.  Y a = sum_i sigma(a_i) Y^(i+1), and t,
    an element index, is its coefficient of Y^(deg f)."""
    field, fc = f.field, f._c
    n = len(fc) - 1
    shifted = [0, *field._frob_row(a._c, f.twist)]
    shifted += [0] * (n + 1 - len(shifted))
    top = shifted[n]
    if top:
        field._addmul(shifted, field._neg(top), fc, 0)  # zeroes shifted[n]
    return top, SkewPoly._of(field, shifted[:n], f.twist)


def _y_rows(a: SkewPoly, f: SkewPoly, count: int) -> list[SkewPoly]:
    """[Y^i a mod f for i < count], for a residue a of the monic f.

    Rf is a left ideal, so left multiplication by Y is well defined on
    R/Rf: each row is _times_y of the row before, and under
    skew.CHECK_DIVISION it is multiplied back through the fused ring
    product (t f + row = Y prev) and counted like a division.
    """
    Y = SkewPoly._of(f.field, (0, 1), f.twist)
    rows = [a]
    for _ in range(1, count):
        prev = rows[-1]
        top, row = _times_y(prev, f)
        check_rebuild(lambda: (Y * prev, SkewPoly._of(f.field, (top,), f.twist)._mul_add(f, row)))
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
    addmul = f.field._addmul
    out = [0] * (len(f._c) - 1)
    for c, row in zip(coeffs, rows):
        if c:
            addmul(out, c, row._c, 0)
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
    """Compute an F_p-basis of E(f), the kernel of u -> f u mod f.

    The column of b Y^i, for b in the digit basis of F_q and i < deg f, is
    f b Y^i = sum_j f_j sigma^j(b) Y^(i+j), combined from the residue
    table of Y^j mod f: no ring product or division.  The columns go
    through the one elimination, _linalg.eliminator, in order, and each
    that depends on those before it gives a basis vector, its dependency
    read as a residue (coordinate i e + d is the digit of t^d in the
    coefficient of Y^i): the nullspace basis of reduced row echelon
    form, one vector per free column.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("eigenring needs a modulus of degree at least 1")
    field = f.field
    n, e, p = len(f._c) - 1, field.e, field.p
    monic = f.monic_left()  # R f = R monic, with the same residues
    high = [row._c for row in _residue_table(monic, 2 * n)[n:]]  # Y^j mod f, n <= j < 2n
    fbs = [f._right(p**d)._c for d in range(e)]  # f b for b = t^d
    addmul = field._addmul
    space = _vectors(field, n)
    add = _linalg.eliminator(p)
    basis = []
    for i in range(n):
        for fb in fbs:
            fb = [0] * i + list(fb)
            # the terms below Y^n are residues already
            col = fb[:n]
            for c, row in zip(fb[n:], high):
                if c:
                    addmul(col, c, row, 0)
            dependency = add(space.pack(col))
            if dependency is not None:
                basis.append(SkewPoly._of(field, space.unpack(dependency), f.twist))
    return EigenRing(field, f, tuple(basis))


def minimal_polynomial(u: SkewPoly, modulus: SkewPoly) -> tuple[list[int], list]:
    """Monic minimal polynomial mu over F_p of the residue u, and the powers of u.

    With f the monic form of the modulus (same residues), the rows
    M_i = Y^i u mod f, i < deg f, are the _y_rows of u, and each
    power is one Krylov step a -> a u = sum_i a_i M_i (mod f) from the one
    before, with no ring product or division; for the central u = Y^r the
    rows are the residue table rows T[r+i].  Under skew.CHECK_DIVISION the
    last step is multiplied back like a division, a u = Q f + (a u mod f)
    with the quotient Q of _step_quotient, and counted.  mu is
    little-endian; powers[i] is the F_p-vector of u^i in
    _vectors(field, deg f), for i < deg mu: over GF(2^e) one int, the
    coefficient indices side by side.  The powers go through the one
    elimination, _linalg.eliminator, in order, and the first that depends
    on those before it gives the monic relation mu.
    """
    field = modulus.field
    n = len(modulus._c) - 1
    f = modulus.monic_left()  # R modulus = R f, with the same residues
    ys = _y_rows(u, f, n)
    space = _vectors(field, n)
    add = _linalg.eliminator(field.p)
    powers: list = []
    prev, power = None, SkewPoly.one(field, modulus.twist)
    while True:
        vec = space.pack(power._c)
        dependency = add(vec)
        if dependency is not None:
            check_rebuild(lambda: (prev * u, _step_quotient(prev, ys, f)._mul_add(f, power)))
            return space.scalars(dependency, len(powers) + 1), powers
        powers.append(vec)
        prev, power = power, _combine(power._c, ys, f)


def _poly_at(poly: list[int], powers: list, modulus: SkewPoly) -> SkewPoly:
    """poly(u) modulo the modulus from the powers of u of minimal_polynomial;
    deg poly < len(powers)."""
    field, n = modulus.field, len(modulus._c) - 1
    space = _vectors(field, n)
    return SkewPoly._of(field, space.unpack(space.span(poly, powers)), modulus.twist)


# ----------------------------------------------------------------------
# zero divisors


def _witness(
    mu: list[int], nu: list[int], at: Callable[[list[int]], SkewPoly], modulus: SkewPoly
) -> tuple[SkewPoly, SkewPoly, list[int]]:
    """(z, w, mu/nu) with z = nu(u) and w = (mu/nu)(u), checked.

    mu is the minimal polynomial of a residue u in the eigenring of the
    modulus (a central residue or an eigenring draw), nu a proper factor
    of mu, and at(poly) is poly(u) modulo the modulus.  z and w are
    nonzero and z w is zero modulo the modulus, or InvariantError: a mu
    that does not annihilate u fails here.
    """
    rest, rem = fp.divmod_(mu, nu, modulus.field.p)
    if rem:
        raise InvariantError("a factor of the minimal polynomial does not divide it")
    z, w = at(nu), at(rest)
    if z.is_zero or w.is_zero or not (z * w).mod_right(modulus).is_zero:
        raise InvariantError("zero-divisor witness does not annihilate")
    return z, w, rest


def _zero_divisor_pair(
    mu: list[int], powers: list, modulus: SkewPoly
) -> Optional[tuple[SkewPoly, SkewPoly]]:
    """(nu(u), (mu/nu)(u)) for the first irreducible factor nu of mu.

    None when mu, the minimal polynomial of the eigenring draw u with the
    powers of minimal_polynomial, is irreducible.  Otherwise both residues
    are nonzero and their product is zero modulo the modulus.
    """
    nu = fp.first_factor(mu, modulus.field.p)
    if nu == mu:
        return None
    z, w, _ = _witness(mu, nu, lambda poly: _poly_at(poly, powers, modulus), modulus)
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


def _fixed_field_span(powers: list, f: SkewPoly, g: int) -> int:
    """dim over F_p of F_Q[u] modulo f, Q = p^g, from the powers of u.

    The F_p-basis of F_Q is the kernel of x -> x^(p^g) - x on the digit
    basis: the dependencies of the images of t^0, ..., t^(e-1).  F_Q[u]
    is spanned by b u^i for b in it and i < deg mu, with the powers u^i
    of minimal_polynomial, and its dimension is the number of echelon
    rows they leave.
    """
    field = f.field
    n, p = len(f._c) - 1, field.p
    frob, sub = field._frob, field._sub
    elements = _vectors(field, 1)
    add = _linalg.eliminator(p)
    deps = (add(elements.pack([sub(frob(p**j, g), p**j)])) for j in range(field.e))
    fixed = [elements.unpack(dep)[0] for dep in deps if dep is not None]
    space = _vectors(field, n)
    add = _linalg.eliminator(p)
    rank = 0
    for vec in powers:
        power = SkewPoly._of(field, space.unpack(vec), f.twist)
        rank += sum(add(space.pack(power._left(b)._c)) is None for b in fixed)
    return rank


def split_once(f: SkewPoly, rng: random.Random) -> Union[Split, Indecomposable]:
    """One splitting step on a monic skew polynomial, for every twist.

    f with f_0 = 0 gives the Split with right factor Y (tries 0).
    Otherwise let g = gcd(s, e) and Q = p^g.  The minimal polynomial mu
    over F_p of the central residue u = Y^(e/g) mod f, of degree d, and
    D = dim_Fp F_Q[u] (equal to d when g = 1) decide.  u and its powers
    are read off the residue table of Y^j mod f, so no verdict before the
    split needs a ring division, nor does any check of
    skew.CHECK_DIVISION on the way:

      * mu reducible: the Split through gcd_right(f, nu(u)) for the
        first irreducible factor nu of mu, without randomness (tries 0);
      * mu irreducible and D = g deg f = lcm(g, d): a certified
        Indecomposable, with no eigenring (tries 0);
      * any other irreducible mu: f is reducible, and the eigenring
        search runs until it finds a zero divisor (tries counts every
        draw).

    Every verdict is certified, whatever the size of f.
    """
    return _split(f, rng, None)[0]


# The minimal polynomial of Y^e modulo a part, paired with its first
# irreducible factor when that is known (None otherwise)
Hint = tuple[list[int], Optional[list[int]]]


def _at_centre(poly: list[int], r: int, f: SkewPoly) -> SkewPoly:
    """poly(Y^r) mod f for an F_p-polynomial poly, by one ring division."""
    cs = [0] * (r * (len(poly) - 1) + 1)
    cs[::r] = poly  # c < p is the index of the scalar c
    return SkewPoly._of(f.field, cs, f.twist).mod_right(f)


def _central_split(
    f: SkewPoly, mu: list[int], nu: list[int], at: Callable[[list[int]], SkewPoly]
) -> tuple[Split, list[int]]:
    """The Split of f through gcd_right(f, nu(u)), and mu/nu.

    mu is the minimal polynomial of the central residue u = Y^r mod f, nu
    its first irreducible factor (not mu itself), and at(poly) is poly(u)
    mod f: read off the Krylov powers at the root, or _at_centre for a
    part that inherited mu.  The witness z = nu(u), w = (mu/nu)(u) is
    checked either way.
    """
    z, _, rest = _witness(mu, nu, at, f)
    return _split_off(f, gcd_right(f, z), 0), rest


def _split(
    f: SkewPoly, rng: random.Random, hint: Optional[Hint]
) -> tuple[Union[Split, Indecomposable], Optional[Hint], Optional[Hint]]:
    """split_once(f, rng), with the minimal polynomials it proved for the parts.

    Returns (result, left, right): left and right are the Hints proved
    for the parts of a Split, the minimal polynomials of Y^e modulo them
    (see the module docstring) with their first irreducible factors when
    known, or None.  Only g = 1 proves them.  hint, when given, is such a
    pair for f itself, and stands in for the central residue's mu and
    its first factor, with no Krylov search: a reducible mu splits f
    through nu(Y^e) mod f, an irreducible one of degree deg f certifies
    f, and any other goes straight to the eigenring, as split_once would
    after recomputing mu.
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("split_once expects a monic polynomial")
    field, n, p = f.field, len(f._c) - 1, f.field.p
    if n <= 1:
        return Indecomposable(), None, None
    if not f._c[0]:
        Y = SkewPoly._of(field, (0, 1), f.twist)
        return Split(left=SkewPoly._of(field, f._c[1:], f.twist), right=Y, tries=0), None, None
    g = math.gcd(f.twist, field.e)
    r = field.e // g
    if hint is None:
        mu, powers = minimal_polynomial(_residue_table(f, r + 1)[r], f)
        nu = fp.first_factor(mu, p)
        at = lambda poly: _poly_at(poly, powers, f)
    else:
        mu, nu = hint
        if nu is None:
            nu = fp.first_factor(mu, p)
        at = lambda poly: _at_centre(poly, r, f)
    if nu != mu:
        split, rest = _central_split(f, mu, nu, at)
        if g > 1:
            return split, None, None
        # nu is the least irreducible factor of mu, so of mu/nu when it divides it
        return split, (rest, None if fp.mod(rest, nu, p) else nu), (nu, nu)
    d = len(mu) - 1
    # a hint is only given for g = 1, so for g > 1 the powers are the root's
    span = d if g == 1 else _fixed_field_span(powers, f, g)
    if span == g * n == math.lcm(g, d):
        return Indecomposable(), None, None
    # f is reducible and R/Rf is semisimple, so E(f) is not a field and
    # the search cannot run dry
    E = eigen_ring(f)
    if E.dim <= 1:
        raise InvariantError(f"reducible f with an eigenring of dimension {E.dim}")
    zd = find_zero_divisor(E, rng, sys.maxsize)
    proven = (mu, mu) if g == 1 else None
    return _split_off(f, gcd_right(f, zd.element), zd.tries), proven, proven


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

    rng is the caller's and is required; a seeded one makes the result
    reproducible.

    Each part carries the minimal polynomial of Y^e modulo it that its
    split proved (twist coprime to e; the lemma of the module
    docstring), with its first irreducible factor when known.  The
    right part of a central split through nu gets nu: nu(Y^e) is z plus
    a multiple of f, and right divides both.  The left part gets mu/nu:
    R right / Rf = nu(Y^e) R/Rf is isomorphic to R/R left, and its
    annihilator is (mu/nu).  Both parts of an eigenring split get the
    irreducible mu: the central mu(Y^e) lies in Rf, so in R right, and
    mu(Y^e) right in Rf gives mu(Y^e) in R left.  So only the root runs
    a central Krylov search.  A part with a reducible polynomial splits
    through gcd_right(h, nu(Y^e) mod h), which equals
    gcd_right(h, nu(u)) for u = Y^e mod h; one whose irreducible
    polynomial has its degree is a certified leaf with no further work,
    and a larger one goes straight to the eigenring.  The factors and
    the state of rng afterwards are those of calling split_once on
    every part.
    """
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.lead
    g = f.monic_left()
    factors: list[SkewPoly] = []
    # depth first, left before right: a split pushes its right part first
    stack = [(g, None)] if g.degree >= 1 else []
    while stack:
        h, hint = stack.pop()
        res, left, right = _split(h, rng, hint)
        if isinstance(res, Indecomposable):
            factors.append(h)
        else:
            stack += ((res.right, right), (res.left, left))
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
