"""Skew polynomial ring F_q[Y; sigma], which is also the ring of additive
polynomials under composition.

Elements are coefficient tuples (f_0, ..., f_n) for sum_i f_i Y^i, zero
being the empty tuple (degree float('-inf')), with multiplication twisted
by Y a = sigma(a) Y where sigma(a) = a^(p^twist).  The ring is a left and
right Euclidean domain, so both one-sided divisions, both one-sided gcds,
and greatest common left divisors of additive polynomials are all exact.

A SkewPoly stores its coefficients once, as the trimmed tuple _c of their
field-element indices, and its arithmetic (sums, products, both
divisions, scalars, evaluation, reduction, the matrix views) runs on
those indices through the field's index kernels.  FqElem objects are
made only at the boundary: coeffs and lead build them from the indices,
and the public constructor and the scalar methods take them.  Internal
results come from the unchecked SkewPoly._of, which takes indices; the
public constructor keeps its checks.  Decompose and hfe read _c too.

Ore's correspondence reads the same tuple as the additive polynomial
sum_i f_i X^(p^(twist i)): the ring product f * g is the composition
f(g(X)), so SkewPoly carries the function view too (evaluation,
reduction through x^(p^e) = x, the matrix of the induced Z_p-linear map
relative to the field's ordered basis, permutation test and inverse).
Reduction always re-bases to twist 1, so reduced polynomials live on
indices 0 .. e-1 and are in bijection with the Z_p-linear maps of the
field; column j of to_matrix() holds the coordinates of f(basis_j),
summed from the field's cached table of basis Frobenius powers.
inverse_matrix() is the Z_p inverse of that matrix.  from_matrix() goes
back through the trace-dual basis d of the ordered basis (cached per
field), as x = sum_j Tr(d_j x) basis_j, so inverse() costs one Z_p
matrix inversion and an e x e product over F_q.  Being a map does not
make a SkewPoly mutable: it is an immutable value (_record.Frozen), so it
serves as a dict key.

When the module flag CHECK_DIVISION is True every quotient/remainder
pair is multiplied back and compared against the dividend before being
returned, and DIVISION_CHECKS counts how many such checks ran.  The
multiply-back is built only then: with the flag off a division makes no
ring product.  check_rebuild is that check; code that computes a residue
modulo f without a division (the residue rows of decompose) calls it
too, so DIVISION_CHECKS counts those multiply-backs as well.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import _linalg
from ._record import Frozen
from .errors import (
    BothZeroError,
    ContextMismatchError,
    DegreeMismatchError,
    InvariantError,
    NotAPermutationError,
    SingularSystemError,
    TwistMismatchError,
)
from .fields import FiniteField, FqElem, _integers

CHECK_DIVISION = False
DIVISION_CHECKS = 0

NEG_INF = float("-inf")

Matrix = tuple[tuple[int, ...], ...]


def _trim(cs: Sequence[int]) -> tuple[int, ...]:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


class SkewPoly(Frozen):
    """sum_i f_i Y^i in F_q[Y; sigma], equally the additive polynomial
    sum_i f_i X^(p^(twist i)).

    The coefficients are stored as one trimmed tuple of field-element
    indices; coeffs is a view that builds the FqElem tuple on each read.
    It hashes by field, twist and indices.
    """

    __slots__ = ("field", "twist", "_c")

    def __init__(self, field: FiniteField, coeffs: Iterable[FqElem], twist: int = 1):
        if not isinstance(twist, int) or twist < 1:
            raise TwistMismatchError(f"twist step must be a positive int, got {twist!r}")
        cs = []
        for c in coeffs:
            if not isinstance(c, FqElem) or (c.field is not field and c.field != field):
                raise ContextMismatchError("coefficient from a different field")
            cs.append(c._n)
        _set_field(self, field)
        _set_twist(self, twist)
        _set_c(self, _trim(cs))

    @classmethod
    def _of(cls, field: FiniteField, cs: Sequence[int], twist: int) -> "SkewPoly":
        """sum_i cs[i] Y^i from coefficient indices, trimmed and unchecked."""
        out = object.__new__(cls)
        _set_field(out, field)
        _set_twist(out, twist)
        _set_c(out, tuple(cs) if not cs or cs[-1] else _trim(cs))
        return out

    def __reduce__(self):
        return SkewPoly._of, (self.field, self._c, self.twist)

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField, twist: int = 1) -> "SkewPoly":
        return cls(field, (), twist)

    @classmethod
    def one(cls, field: FiniteField, twist: int = 1) -> "SkewPoly":
        """1 in the ring, the identity map X as an additive polynomial."""
        return cls(field, (field.one(),), twist)

    @classmethod
    def monomial(cls, field: FiniteField, index: int, coeff: FqElem, twist: int = 1) -> "SkewPoly":
        """coeff * Y^index, that is coeff * X^(p^(twist*index)), for an
        integer index >= 0."""
        (index,) = _integers((index,), "monomial indices")
        if index < 0:
            raise DegreeMismatchError(f"monomial index must be nonnegative, got {index}")
        return cls(field, [field.zero()] * index + [coeff], twist)

    @property
    def coeffs(self) -> tuple[FqElem, ...]:
        """The coefficients f_0, .., f_n as field elements, built from the indices."""
        field = self.field
        return tuple(FqElem(field, c) for c in self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self):
        """Skew degree n (the index of X^(p^(twist*n))), or -inf for zero."""
        return len(self._c) - 1 if self._c else NEG_INF

    @property
    def lead(self) -> FqElem:
        if not self._c:
            raise ValueError("the zero polynomial has no leading coefficient")
        return FqElem(self.field, self._c[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self._c == other._c
            and self.twist == other.twist
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.twist, self._c))

    def __repr__(self) -> str:
        digs = [list(self.field._digits(c)) for c in self._c]
        return f"SkewPoly(twist={self.twist}, coeffs={digs})"

    # ------------------------------------------------------------------

    def _peer(self, other: "SkewPoly") -> None:
        if not isinstance(other, SkewPoly):
            raise TypeError(f"expected SkewPoly, got {type(other).__name__}")
        if other.field is not self.field and self.field != other.field:
            raise ContextMismatchError("polynomials over different fields")
        if self.twist != other.twist:
            raise TwistMismatchError(
                f"twist steps differ: {self.twist} vs {other.twist}"
            )

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._peer(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        add = self.field._add
        out = list(a)
        for i, c in enumerate(b):
            if c:
                out[i] = add(out[i], c) if out[i] else c
        return SkewPoly._of(self.field, out, self.twist)

    def __neg__(self) -> "SkewPoly":
        neg = self.field._neg
        return SkewPoly._of(self.field, [neg(c) for c in self._c], self.twist)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        """Ring product; as additive polynomials, self after other."""
        self._peer(other)
        field, twist = self.field, self.twist
        a, b = self._c, other._c
        if not a or not b:
            return SkewPoly._of(field, (), twist)
        mul, add, frob, e = field._mul, field._add, field._frob, field.e
        out = [0] * (len(a) + len(b) - 1)
        rows = {0: b}  # k -> sigma^k(b), coefficient-wise
        for i, ai in enumerate(a):
            if not ai:
                continue
            k = twist * i % e
            row = rows.get(k)
            if row is None:
                row = rows[k] = [frob(c, k) for c in b]
            for j, t in enumerate(row, i):
                if t:
                    if ai != 1:
                        t = mul(ai, t)
                    s = out[j]
                    out[j] = add(s, t) if s else t
        return SkewPoly._of(field, out, twist)

    compose = __mul__

    def left_scalar(self, c: FqElem) -> "SkewPoly":
        """(c) * self as ring elements: coefficients multiplied by c on the left."""
        return self._left(self.field._index_of(c, "scalar"))

    def right_scalar(self, c: FqElem) -> "SkewPoly":
        """self * (c): coefficient i picks up sigma^i(c)."""
        return self._right(self.field._index_of(c, "scalar"))

    def _left(self, c: int) -> "SkewPoly":
        """left_scalar for the scalar of index c."""
        mul = self.field._mul
        return SkewPoly._of(self.field, [mul(c, a) for a in self._c], self.twist)

    def _right(self, c: int) -> "SkewPoly":
        """right_scalar for the scalar of index c."""
        field, twist = self.field, self.twist
        mul, frob, e = field._mul, field._frob, field.e
        out = [mul(a, frob(c, twist * i % e)) for i, a in enumerate(self._c)]
        return SkewPoly._of(field, out, twist)

    # ------------------------------------------------------------------
    # Euclidean structure

    def divmod_right(self, g: "SkewPoly") -> tuple["SkewPoly", "SkewPoly"]:
        """q, r with self = q * g + r and deg r < deg g."""
        self._peer(g)
        gc = g._c
        if not gc:
            raise ZeroDivisionError("division by the zero polynomial")
        field, twist = self.field, self.twist
        mul, sub, frob, e = field._mul, field._sub, field._frob, field.e
        n = len(gc) - 1
        r = list(self._c)
        q = [0] * max(len(r) - n, 0)
        g_inv = 1 if gc[-1] == 1 else field._inv(gc[-1])
        rows = {0: gc}  # s -> sigma^s(g), coefficient-wise
        while len(r) > n:
            k = len(r) - 1 - n
            s = twist * k % e
            row = rows.get(s)
            if row is None:
                row = rows[s] = [frob(c, s) for c in gc]
            c = q[k] = r[-1] if g_inv == 1 else mul(r[-1], frob(g_inv, s))
            for i, gi in enumerate(row, k):
                if gi:
                    r[i] = sub(r[i], mul(c, gi))
            del r[-1]
            while r and not r[-1]:
                del r[-1]
        qq = SkewPoly._of(field, q, twist)
        rr = SkewPoly._of(field, r, twist)
        check_rebuild(lambda: (self, qq * g + rr))
        return qq, rr

    def divmod_left(self, g: "SkewPoly") -> tuple["SkewPoly", "SkewPoly"]:
        """q, r with self = g * q + r and deg r < deg g."""
        self._peer(g)
        gc = g._c
        if not gc:
            raise ZeroDivisionError("division by the zero polynomial")
        field, twist = self.field, self.twist
        mul, sub, frob, e = field._mul, field._sub, field._frob, field.e
        n = len(gc) - 1
        g_inv = 1 if gc[-1] == 1 else field._inv(gc[-1])
        shift = -twist * n % e
        r = list(self._c)
        q = [0] * max(len(r) - n, 0)
        while len(r) > n:
            k = len(r) - 1 - n
            c = r[-1] if g_inv == 1 else mul(g_inv, r[-1])
            c = q[k] = frob(c, shift) if shift else c
            for i, gi in enumerate(gc):
                if gi:
                    s = twist * i % e
                    r[i + k] = sub(r[i + k], mul(gi, frob(c, s) if s else c))
            del r[-1]
            while r and not r[-1]:
                del r[-1]
        qq = SkewPoly._of(field, q, twist)
        rr = SkewPoly._of(field, r, twist)
        check_rebuild(lambda: (self, g * qq + rr))
        return qq, rr

    def mod_right(self, g: "SkewPoly") -> "SkewPoly":
        return self.divmod_right(g)[1]

    def mod_left(self, g: "SkewPoly") -> "SkewPoly":
        return self.divmod_left(g)[1]

    def monic_left(self) -> "SkewPoly":
        """Monic left-scalar normalisation c * self."""
        if not self._c or self._c[-1] == 1:
            return self
        return self._left(self.field._inv(self._c[-1]))

    def monic_right(self) -> "SkewPoly":
        """Monic right-scalar normalisation self * c."""
        if not self._c:
            return self
        field = self.field
        shift = -self.twist * (len(self._c) - 1) % field.e
        return self._right(field._frob(field._inv(self._c[-1]), shift))

    # ------------------------------------------------------------------
    # function view

    def __call__(self, x: FqElem) -> FqElem:
        field = self.field
        n, twist = field._index_of(x, "evaluation point"), self.twist
        mul, add, frob, e = field._mul, field._add, field._frob, field.e
        acc = 0
        for i, c in enumerate(self._c):
            if c:
                t = mul(c, frob(n, twist * i % e))
                acc = add(acc, t) if acc else t
        return FqElem(field, acc)

    def reduce(self) -> "SkewPoly":
        """Fold through x^(p^e) = x; result has twist 1 and indices < e."""
        field, e, twist = self.field, self.field.e, self.twist
        add = field._add
        acc = [0] * e
        for i, c in enumerate(self._c):
            if c:
                k = twist * i % e
                prev = acc[k]
                acc[k] = add(prev, c) if prev else c
        return SkewPoly._of(field, acc, 1)

    def to_matrix(self) -> Matrix:
        """e x e matrix over Z_p of the induced linear map, in the field basis.

        Column s holds the coordinates of f(basis_s) = sum_k c_k basis_s^(p^k)
        for the reduced f, read off the field's cached basis_frobenius table,
        so no basis element is evaluated.
        """
        field = self.field
        mul, add = field._mul, field._add
        coeffs = self.reduce()._c
        cols = []
        for b_pows in field.basis_frobenius():
            acc = 0
            for c, b in zip(coeffs, b_pows):
                if c:
                    v = mul(c, b)
                    acc = add(acc, v) if acc else v
            cols.append(field._coordinates(acc))
        return tuple(
            tuple(cols[j][r] for j in range(field.e)) for r in range(field.e)
        )

    @classmethod
    def from_matrix(cls, field: FiniteField, matrix: Sequence[Sequence[int]]) -> "SkewPoly":
        """Reduced polynomial inducing the given matrix.

        With t_j = combine(column j), the image of basis_j, and d the
        trace-dual basis, the coefficient of x^(p^k) is sum_j t_j d_j^(p^k).
        """
        e, p = field.e, field.p
        rows = [list(r) for r in matrix]
        if len(rows) != e or any(len(r) != e for r in rows):
            raise SingularSystemError(f"matrix must be {e} x {e}")
        targets = [
            field._combine([rows[r][j] % p for r in range(e)]) for j in range(e)
        ]
        mul, add = field._mul, field._add
        coeffs = [0] * e
        for t, d_pows in zip(targets, field.dual_frobenius()):
            if t:
                for k in range(e):
                    v, prev = mul(t, d_pows[k]), coeffs[k]
                    coeffs[k] = add(prev, v) if prev else v
        return cls._of(field, coeffs, 1)

    def is_permutation(self) -> bool:
        return _linalg.rank(self.to_matrix(), self.field.p) == self.field.e

    def inverse_matrix(self) -> Matrix:
        """Z_p matrix of the compositional inverse of a permutation polynomial."""
        m = _linalg.inv(self.to_matrix(), self.field.p)
        if m is None:
            raise NotAPermutationError("polynomial does not permute the field")
        return tuple(map(tuple, m))

    def inverse(self) -> "SkewPoly":
        """Compositional inverse of a permutation polynomial, reduced."""
        return SkewPoly.from_matrix(self.field, self.inverse_matrix())


# slot setters that bypass Frozen.__setattr__, for the constructors alone
_set_field = SkewPoly.field.__set__
_set_twist = SkewPoly.twist.__set__
_set_c = SkewPoly._c.__set__


def check_rebuild(sides: Callable[[], tuple[SkewPoly, SkewPoly]]) -> None:
    """Under CHECK_DIVISION, count one check and compare the two sides that
    sides() returns: a dividend and its rebuild from quotient and
    remainder, or any residue computed without a division and its
    multiply-back through the ring product.

    sides is called only when the flag is on, so the multiply-back costs
    nothing otherwise.
    """
    global DIVISION_CHECKS
    if CHECK_DIVISION:
        DIVISION_CHECKS += 1
        expected, rebuilt = sides()
        if rebuilt != expected:
            raise InvariantError("division check failed: the multiply-back does not rebuild")


# ----------------------------------------------------------------------
# one-sided gcds


def gcd_right(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic greatest common right divisor, via right-division remainders."""
    f._peer(g)
    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd of two zero polynomials")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.mod_right(b)
    return a.monic_left()


def gcd_left(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic greatest common left divisor, via left-division remainders."""
    f._peer(g)
    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd of two zero polynomials")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.mod_left(b)
    return a.monic_right()


def gcldf(L1: SkewPoly, L2: SkewPoly) -> tuple[SkewPoly, SkewPoly, SkewPoly]:
    """Greatest common left divisor factor of two additive polynomials.

    Returns (G, A, B) with L1 = G . A and L2 = G . B exactly (symbolic
    composition, no reduction), G monic.  Raises BothZeroError when both
    inputs are zero; if exactly one is zero the other's monic form is
    returned with the matching witness zero.
    """
    g = gcd_left(L1, L2)
    a, ra = L1.divmod_left(g)
    b, rb = L2.divmod_left(g)
    if not (ra.is_zero and rb.is_zero):
        raise InvariantError("left gcd does not left-divide its inputs")
    return g, a, b
