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
    minimal polynomial; most draws succeed, and ZERO_DIVISOR_DRAWS
    misses in a row raise InvariantError.

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
one _addmul, a combination one _addmul per nonzero coefficient.  A
residue is an index list from end to end, from the residue table
through the Krylov powers, the eigenring columns and draws, to the
zero-divisor witness; a SkewPoly is built only for a part pushed on
the decomposition stack, for the z handed to gcd_right, and for public
results (minimal_polynomial's argument, EigenRing.basis, ZeroDivisor).
skew.CHECK_DIVISION multiplies back, like a division and without one,
every computed row and the last Krylov step of each minimal polynomial
(through its quotient), each by one call of the ring's list product
core (skew._product), and compares the two sides as index tuples;
find_zero_divisor checks each eigenring draw u against f u mod f = 0,
one product and one checked division on index lists.

The F_p-linear algebra is one elimination, in _linalg: the package's
only Gaussian elimination, _linalg.eliminator, is fed the F_p-vectors
of residues in order.  Each becomes an echelon row, pivoted at its
lowest nonzero coordinate and recording the combination of inputs it
stands for, or reduces to zero and yields its unique dependency on the
inputs before it.  minimal_polynomial feeds the powers 1, u, u^2, ...
and stops at the first dependency, which is mu; eigen_ring feeds its
deg f * e columns and keeps every dependency, the nullspace basis of
reduced row echelon form, one vector per free column; the fixed-field
certificate reads the basis of F_Q and a rank off it.  A residue is
packed into a vector only to be fed, by _packer, in the one arithmetic
of its characteristic: over GF(2^e) an element's index is its digit
vector, so a residue's F_2 vector is one int, its coefficient indices
side by side (sum_i c_i 2^(e i)), and a row step is one XOR; in odd
characteristic it is the list of the coefficients' base-p digits.
Nothing is unpacked.  What the elimination hands back is a dependency,
which _decoded reads as F_p coefficients (mu), or e digits per
coefficient as a residue (an eigenring basis vector, an element of
F_Q).

One zero-divisor rule serves the central residue and every eigenring
draw.  For the first irreducible factor nu of a reducible mu, found by
distinct-degree search, z = nu(u) and w = (mu/nu)(u) are nonzero (mu
is minimal) while z w = mu(u) = 0, so z is a zero divisor and
gcd_right(f, z) is a proper right factor of f.  For an eigenring draw
and for the central residue of the root, minimal_polynomial returns mu
together with the powers u^0, ..., u^(d-1) its Krylov loop builds, as
residues, and z and w are F_p-combinations of them: one _combine each,
one _addmul per nonzero coefficient.  A part that inherited its mu
(below) needs no powers: u^i = Y^(r i) mod f, so z = nu(Y^r) mod f and
w = (mu/nu)(Y^r) mod f are two ring divisions, and
gcd_right(f, nu(u)) = gcd_right(f, nu(Y^r) mod f) is the same factor.
The witness check z != 0, w != 0, z w = 0 mod f runs either way, so
an inherited polynomial that does not annihilate u raises
InvariantError instead of splitting.

A split also proves the minimal polynomial of each part, for every
twist: the argument uses only that Y^r is central.  Let M = R/Rf.  A
central c annuls M exactly when c lies in Rf, so the annihilator of M in
F_p[Y^r] is (mu).  Lemma: let f = left * right be a split of f made by
split_once.
  * Central split, with nu the first irreducible factor of mu,
    z = nu(u) and right = gcd_right(f, z): Y^r mod right has minimal
    polynomial nu, and Y^r mod left has minimal polynomial mu/nu.
    Proof: nu(Y^r) = z + a f for some a, and right right-divides both
    z and f, so nu(Y^r) lies in R right and the minimal polynomial of
    Y^r modulo right divides nu.  It is not 1, as right has degree at
    least 1, and nu is irreducible.  For left: R right = Rf + Rz, so
    R right / Rf = nu(Y^r) M, and x right -> x makes it isomorphic to
    R/R left (R is a domain).  Its annihilator is
    {P : mu divides P nu} = (mu/nu).
  * Eigenring split (mu irreducible, f reducible): both parts have minimal
    polynomial mu.  Proof: c = mu(Y^r) is central and lies in Rf,
    which lies in R right, so mu annuls Y^r modulo right.  And
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
above.  One with an irreducible polynomial of degree d is certified
indecomposable when D = g deg f = lcm(g, d): for g = 1 that reads
deg mu = deg f, with no computation, and for g > 1 D is the rank of the
b Y^(r i) mod f, b in F_Q and i < d, read off the part's residue table,
at the root and at an inherited part alike.  Any other part is
reducible, and goes straight to the eigenring.  decompose_complete
carries these pairs down its stack.

oracle_decompose is an independent brute-force reference: it repeatedly
peels the lexicographically first smallest-degree monic right factor.
It shares no code with the randomised path beyond ring arithmetic.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence, Union

from . import _fppoly as fp
from . import _linalg
from ._record import Record
from .errors import InvariantError, TooLargeError
from .fields import FiniteField, _pack
from .skew import SkewPoly, _divide, _product, check_rebuild, gcd_right

ORACLE_LIMIT = 12  # max deg(f) * e for oracle_decompose
# nonscalar eigenring draws before the splitter gives up on a reducible f
# and raises InvariantError.  Over GF(2), GF(4), GF(8), GF(16), GF(3),
# GF(9), GF(5), GF(2^8) and GF(3^4), degrees 2 to 4 and twists 1 and 2,
# every eigenring the splitter searched split on at least 35 of 64 draws,
# so 256 misses in a row mean an irreducible f, sent there by a wrong
# certificate, not bad luck
ZERO_DIVISOR_DRAWS = 256


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
        """sum_k c_k basis[k] for c_k drawn uniformly from F_p, one
        randrange per basis element, summed on one index list."""
        field = self.field
        addmul, p = field._addmul, field.p
        out = [0] * (len(self.modulus._c) - 1)
        for b in self.basis:
            c = rng.randrange(p)
            if c:
                addmul(out, c, b._c, 0)  # c < p is the index of the scalar c
        return SkewPoly._of(field, out, self.modulus.twist)

    def __repr__(self) -> str:
        return f"EigenRing(dim={self.dim}, modulus_degree={self.modulus.degree})"


# ----------------------------------------------------------------------
# F_p-vectors of residues, in the form of _linalg.eliminator


def _packer(field: FiniteField, n: int) -> Callable[[Sequence[int]], Union[int, list[int]]]:
    """pack(cs), the F_p-vector of the residue cs (at most n coefficient
    indices) in the form of _linalg.eliminator(p): one int over GF(2^e),
    the coefficient indices side by side (sum_i c_i 2^(e i)), since an
    element's index is its digit vector; for odd p the list of the n e
    base-p digits, e per coefficient, low first."""
    e = field.e
    if field.p == 2:

        def pack(cs: Sequence[int]) -> int:
            vec = 0
            for c in reversed(cs):
                vec = vec << e | c
            return vec

        return pack
    digits = field._digits

    def pack_digits(cs: Sequence[int]) -> list[int]:
        vec = [0] * (n * e)
        for i, c in enumerate(cs):
            vec[i * e : i * e + e] = digits(c)
        return vec

    return pack_digits


def _decoded(dependency: Union[int, list[int]], field: FiniteField, width: int = 1) -> list[int]:
    """A dependency that _linalg.eliminator(p) returned, as a list: its F_p
    coefficients, low first (trimmed over F_2), each width of them read as
    the base-p digits of one element index.  Width 1 gives the F_p
    coefficients themselves; width e reads the dependency of residues'
    vectors as a residue, coefficient i from coordinates i e to i e + e - 1.
    """
    p = field.p
    cs = fp._from_bits(dependency) if p == 2 else dependency
    return [_pack(p, cs[i : i + width]) for i in range(0, len(cs), width)]


def _times_y(a: Sequence[int], f: SkewPoly) -> tuple[int, list[int]]:
    """(t, Y a - t f) for the residue a, an index list, of the monic f: one
    left multiplication by Y on R/Rf.  Y a = sum_i sigma(a_i) Y^(i+1), and
    t, an element index, is its coefficient of Y^(deg f); the new residue
    has deg f entries."""
    field, fc = f.field, f._c
    n = len(fc) - 1
    shifted = [0, *field._frob_row(a, f.twist)]
    shifted += [0] * (n + 1 - len(shifted))
    top = shifted[n]
    if top:
        field._addmul(shifted, field._neg(top), fc, 0)  # zeroes shifted[n]
    del shifted[n:]
    return top, shifted


def _y_rows(a: Sequence[int], f: SkewPoly, count: int) -> list[Sequence[int]]:
    """[Y^i a mod f for i < count], index lists, for a residue a of the monic f.

    Rf is a left ideal, so left multiplication by Y is well defined on
    R/Rf: each row is _times_y of the row before, and under
    skew.CHECK_DIVISION it is multiplied back through the product core
    (t f + row = Y prev) and counted like a division.
    """
    field, twist = f.field, f.twist
    rows = [a]
    for _ in range(1, count):
        prev = rows[-1]
        top, row = _times_y(prev, f)
        check_rebuild(
            lambda: (
                tuple(_product(field, twist, (0, 1), prev)),
                tuple(_product(field, twist, (top,), f._c, row)),
            )
        )
        rows.append(row)
    return rows


def _residue_table(f: SkewPoly, size: int) -> list[Sequence[int]]:
    """T[j] = Y^j mod f for j < size, as index lists, f monic of degree n.

    The rows j < n are the monomials themselves; the rows past them are
    the _y_rows of Y^(n-1), each one checked step.
    """
    k = min(len(f._c) - 1, size)
    monomials = [[0] * j + [1] for j in range(k)]
    return monomials[:-1] + _y_rows(monomials[-1], f, size - k + 1)


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]], f: SkewPoly) -> list[int]:
    """sum_k c_k rows[k], a residue modulo f with deg f entries, for
    coefficient indices c_k; len(coeffs) <= len(rows).

    Reduction modulo the left ideal Rf is left F_q-linear, so with
    rows[k] = Y^k a mod f this is (sum_k c_k Y^k) a mod f.
    """
    addmul = f.field._addmul
    out = [0] * (len(f._c) - 1)
    for c, row in zip(coeffs, rows):
        if c:
            addmul(out, c, row, 0)
    return out


def _step_quotient(a: Sequence[int], rows: Sequence[Sequence[int]], f: SkewPoly) -> list[int]:
    """Q with a u = Q f + sum_i a_i rows[i], for the _y_rows of u.

    Y^i u = q_i f + rows[i] with q_0 = 0 and q_i = Y q_(i-1) + t_i, where
    t_i = sigma(c_(i-1)), c_k the coefficient of Y^(n-1) in rows[k], is
    the multiple of f that _times_y subtracted.  So q_i is
    sum_(m<i) sigma^(m+1)(c_(i-m-1)) Y^m, and Q = sum_i a_i q_i.
    """
    field, n = f.field, len(f._c) - 1
    mul, add, frob, e = field._mul, field._add, field._frob, field.e
    tops = [row[n - 1] if len(row) == n else 0 for row in rows]
    out = []
    for m in range(len(a) - 1):
        s = f.twist * (m + 1) % e
        acc = 0
        for i in range(m + 1, len(a)):
            top = tops[i - m - 1]
            if a[i] and top:
                v = mul(a[i], frob(top, s) if s else top)
                acc = add(acc, v) if acc else v
        out.append(acc)
    return out


def eigen_ring(f: SkewPoly) -> EigenRing:
    """Compute an F_p-basis of E(f), the kernel of u -> f u mod f.

    The column of b Y^i, for b in the digit basis of F_q and i < deg f, is
    f b Y^i = sum_j f_j sigma^j(b) Y^(i+j), combined from the residue
    table of Y^j mod f: no ring product or division.  The columns go
    through the one elimination, _linalg.eliminator, in order, and each
    that depends on those before it gives a basis vector, its dependency
    read as a residue by _decoded (coordinate i e + d is the digit of t^d
    in the coefficient of Y^i): the nullspace basis of reduced row echelon
    form, one vector per free column.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("eigenring needs a modulus of degree at least 1")
    field = f.field
    n, e, p = len(f._c) - 1, field.e, field.p
    monic = f.monic_left()  # R f = R monic, with the same residues
    high = _residue_table(monic, 2 * n)[n:]  # Y^j mod f, n <= j < 2n
    fbs = [f._right(p**d)._c for d in range(e)]  # f b for b = t^d
    addmul = field._addmul
    pack = _packer(field, n)
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
            dependency = add(pack(col))
            if dependency is not None:
                basis.append(SkewPoly._of(field, _decoded(dependency, field, e), f.twist))
    return EigenRing(field, f, tuple(basis))


def minimal_polynomial(u: SkewPoly, modulus: SkewPoly) -> tuple[list[int], list[list[int]]]:
    """Monic minimal polynomial mu over F_p of the residue u, and the powers of u.

    With f the monic form of the modulus (same residues), the rows
    M_i = Y^i u mod f, i < deg f, are the _y_rows of u, and each
    power is one Krylov step a -> a u = sum_i a_i M_i (mod f) from the one
    before, with no ring product or division; for the central u = Y^r the
    rows are the residue table rows T[r+i].  Under skew.CHECK_DIVISION the
    last step is multiplied back like a division, a u = Q f + (a u mod f)
    with the quotient Q of _step_quotient, and counted.  mu is
    little-endian; powers[i] is u^i mod f, an index list of deg f
    entries, for i < deg mu, so poly(u) for deg poly < deg mu is
    _combine(poly, powers, f).  The powers are packed (_packer) into the
    one elimination, _linalg.eliminator, in order, and the first that
    depends on those before it gives the monic relation mu.  u must be a
    residue of the modulus's ring: ValueError when deg u >= deg modulus
    or the modulus has degree below 1, and the ring's mismatch errors for
    another field or twist.
    """
    modulus._peer(u)
    if modulus.degree < 1 or u.degree >= modulus.degree:
        raise ValueError("minimal_polynomial needs deg modulus >= 1 and deg u < deg modulus")
    field, twist = modulus.field, modulus.twist
    n = len(modulus._c) - 1
    f = modulus.monic_left()  # R modulus = R f, with the same residues
    ys = _y_rows(u._c, f, n)
    pack = _packer(field, n)
    add = _linalg.eliminator(field.p)
    powers: list[list[int]] = []
    prev, power = None, [1] + [0] * (n - 1)
    while True:
        dependency = add(pack(power))
        if dependency is not None:
            check_rebuild(
                lambda: (
                    tuple(_product(field, twist, prev, u._c)),
                    tuple(_product(field, twist, _step_quotient(prev, ys, f), f._c, power)),
                )
            )
            return _decoded(dependency, field), powers
        powers.append(power)
        prev, power = power, _combine(power, ys, f)


# ----------------------------------------------------------------------
# zero divisors


def _product_mod(a: Sequence[int], b: Sequence[int], modulus: SkewPoly) -> list[int]:
    """(a b) mod the modulus, a trimmed index list: one product core call
    and one checked right division."""
    field, twist = modulus.field, modulus.twist
    return _divide(field, twist, _product(field, twist, a, b), modulus._c, False)[1]


def _witness(
    mu: list[int], nu: list[int], at: Callable[[list[int]], Sequence[int]], modulus: SkewPoly
) -> tuple[Sequence[int], Sequence[int], list[int]]:
    """(z, w, mu/nu) with z = nu(u) and w = (mu/nu)(u), index sequences,
    checked.

    mu is the minimal polynomial of a residue u in the eigenring of the
    modulus (a central residue or an eigenring draw), nu a proper factor
    of mu, and at(poly) is poly(u) modulo the modulus.  z and w
    are nonzero and z w is zero modulo the modulus (one product and one
    checked division on index lists), or InvariantError: a mu that does
    not annihilate u fails here.
    """
    rest, rem = fp.divmod_(mu, nu, modulus.field.p)
    if rem:
        raise InvariantError("a factor of the minimal polynomial does not divide it")
    z, w = at(nu), at(rest)
    if not any(z) or not any(w) or _product_mod(z, w, modulus):
        raise InvariantError("zero-divisor witness does not annihilate")
    return z, w, rest


def _zero_divisor_pair(
    mu: list[int], powers: list[list[int]], modulus: SkewPoly
) -> Optional[tuple[SkewPoly, SkewPoly]]:
    """(nu(u), (mu/nu)(u)) for the first irreducible factor nu of mu.

    None when mu, the minimal polynomial of the eigenring draw u with the
    powers of minimal_polynomial, is irreducible.  Otherwise both residues
    are nonzero and their product is zero modulo the modulus.
    """
    nu = fp.first_factor(mu, modulus.field.p)
    if nu == mu:
        return None
    z, w, _ = _witness(mu, nu, lambda poly: _combine(poly, powers, modulus), modulus)
    field, twist = modulus.field, modulus.twist
    return SkewPoly._of(field, z, twist), SkewPoly._of(field, w, twist)


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
    for t in range(1, max_tries + 1):
        u = E.random_element(rng)
        guard = 0
        while _is_p_scalar(u):
            u = E.random_element(rng)
            guard += 1
            if guard > 1000:
                raise InvariantError("nonscalar redraw failed to terminate")
        check_rebuild(lambda: ((), tuple(_product_mod(f._c, u._c, f))))
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


def _fixed_field_span(f: SkewPoly, r: int, d: int, g: int) -> int:
    """dim over F_p of F_Q[u] modulo f, Q = p^g, for u = Y^r mod f whose
    minimal polynomial over F_p has degree d.

    For g = 1, F_Q[u] = F_p[u] has dimension d, and nothing is computed.
    Otherwise the F_p-basis of F_Q is the kernel of x -> x^(p^g) - x on
    the digit basis: the dependencies of the images of t^0, ..., t^(e-1).
    F_Q[u] is spanned by b u^i for b in it and i < d, with the powers
    u^i = Y^(r i) mod f read off the residue table (each row checked
    under skew.CHECK_DIVISION), and its dimension is the number of
    echelon rows they leave.  The root and an inherited part run the
    same steps.
    """
    if g == 1:
        return d
    field = f.field
    n, p = len(f._c) - 1, field.p
    frob, sub, mul = field._frob, field._sub, field._mul
    element = _packer(field, 1)
    add = _linalg.eliminator(p)
    deps = (add(element([sub(frob(p**j, g), p**j)])) for j in range(field.e))
    fixed = [_decoded(dep, field, field.e)[0] for dep in deps if dep is not None]
    pack = _packer(field, n)
    add = _linalg.eliminator(p)
    rank = 0
    for power in _residue_table(f, r * (d - 1) + 1)[::r]:
        rank += sum(add(pack([mul(b, c) for c in power])) is None for b in fixed)
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
        draw), or raises InvariantError after ZERO_DIVISOR_DRAWS misses.

    Every verdict is certified, whatever the size of f.
    """
    return _split(f, rng, None)[0]


# The minimal polynomial of the central Y^r, r = e/gcd(s, e), modulo a
# part, paired with its first irreducible factor when that is known (None
# otherwise)
Hint = tuple[list[int], Optional[list[int]]]


def _at_centre(poly: list[int], r: int, f: SkewPoly) -> list[int]:
    """poly(Y^r) mod f for an F_p-polynomial poly, a trimmed index list, by
    one checked ring division."""
    cs = [0] * (r * (len(poly) - 1) + 1)
    cs[::r] = poly  # c < p is the index of the scalar c
    return _divide(f.field, f.twist, cs, f._c, False)[1]


def _central_split(
    f: SkewPoly, mu: list[int], nu: list[int], at: Callable[[list[int]], Sequence[int]]
) -> tuple[Split, list[int]]:
    """The Split of f through gcd_right(f, nu(u)), and mu/nu.

    mu is the minimal polynomial of the central residue u = Y^r mod f, nu
    its first irreducible factor (not mu itself), and at(poly) is poly(u)
    mod f: read off the Krylov powers at the root, or _at_centre for a
    part that inherited mu.  The witness z = nu(u), w = (mu/nu)(u) is
    checked either way.
    """
    z, _, rest = _witness(mu, nu, at, f)
    return _split_off(f, gcd_right(f, SkewPoly._of(f.field, z, f.twist)), 0), rest


def _split(
    f: SkewPoly, rng: random.Random, hint: Optional[Hint]
) -> tuple[Union[Split, Indecomposable], Optional[Hint], Optional[Hint]]:
    """split_once(f, rng), with the minimal polynomials it proved for the parts.

    Returns (result, left, right): left and right are the Hints proved
    for the parts of a Split, the minimal polynomials of Y^r modulo them
    (see the module docstring) with their first irreducible factors when
    known, for every twist, or None for a leaf and for the split that
    takes off Y.  hint, when given, is such a pair for f itself, and
    stands in for the central residue's mu and its first factor, with no
    Krylov search: a reducible mu splits f through nu(Y^r) mod f, an
    irreducible one that passes the fixed-field certificate (for g = 1,
    deg mu = deg f) makes f a leaf, and any other goes straight to the
    eigenring, as split_once would after recomputing mu.
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
        central = SkewPoly._of(field, _residue_table(f, r + 1)[r], f.twist)
        mu, powers = minimal_polynomial(central, f)
        nu = fp.first_factor(mu, p)
        at = lambda poly: _combine(poly, powers, f)
    else:
        mu, nu = hint
        if nu is None:
            nu = fp.first_factor(mu, p)
        at = lambda poly: _at_centre(poly, r, f)
    if nu != mu:
        split, rest = _central_split(f, mu, nu, at)
        # nu is the least irreducible factor of mu, so of mu/nu when it divides it
        return split, (rest, None if fp.mod(rest, nu, p) else nu), (nu, nu)
    d = len(mu) - 1
    if g * n == math.lcm(g, d) == _fixed_field_span(f, r, d, g):
        return Indecomposable(), None, None
    # f is reducible and R/Rf is semisimple, so E(f) is not a field and
    # most draws find a zero divisor; a search that runs dry means a wrong
    # certificate sent an irreducible f here
    E = eigen_ring(f)
    zd = find_zero_divisor(E, rng, ZERO_DIVISOR_DRAWS)
    if zd is None:
        raise InvariantError(
            f"no zero divisor in {ZERO_DIVISOR_DRAWS} draws from an eigenring of dimension {E.dim}"
        )
    return _split_off(f, gcd_right(f, zd.element), zd.tries), (mu, mu), (mu, mu)


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

    Each part carries the minimal polynomial of the central Y^r,
    r = e/gcd(s, e), modulo it that its split proved (for every twist s;
    the lemma of the module docstring), with its first irreducible
    factor when known.  The right part of a central split through nu
    gets nu: nu(Y^r) is z plus a multiple of f, and right divides both.
    The left part gets mu/nu: R right / Rf = nu(Y^r) R/Rf is isomorphic
    to R/R left, and its annihilator is (mu/nu).  Both parts of an
    eigenring split get the irreducible mu: the central mu(Y^r) lies in
    Rf, so in R right, and mu(Y^r) right in Rf gives mu(Y^r) in R left.
    So only the root runs a central Krylov search.  A part with a
    reducible polynomial splits through gcd_right(h, nu(Y^r) mod h),
    which equals gcd_right(h, nu(u)) for u = Y^r mod h; one whose
    irreducible polynomial passes the fixed-field certificate is a
    leaf, with no further work for g = 1 and one rank off its residue
    table for g > 1, and any other goes straight to the eigenring.  The
    factors and the state of rng afterwards are those of calling
    split_once on every part.
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
