"""Skew polynomial ring F_q[Y; sigma], which is also the ring of additive
polynomials under composition.

Elements are coefficient tuples (f_0, ..., f_n) for sum_i f_i Y^i, zero
being the empty tuple (degree float('-inf')), with multiplication twisted
by Y a = sigma(a) Y where sigma(a) = a^(p^twist).  The ring is a left and
right Euclidean domain, so both one-sided divisions, both one-sided gcds,
and greatest common left divisors of additive polynomials are all exact.

Ore's correspondence reads the same tuple as the additive polynomial
sum_i f_i X^(p^(twist i)): the ring product f * g is the composition
f(g(X)), so SkewPoly carries the function view too (evaluation,
reduction through x^(p^e) = x, the matrix of the induced Z_p-linear map
relative to the field's ordered basis, permutation test and inverse).
Reduction always re-bases to twist 1, so reduced polynomials live on
indices 0 .. e-1 and are in bijection with the Z_p-linear maps of the
field; column j of to_matrix() holds the coordinates of f(basis_j).
from_matrix() goes back through the trace-dual basis d of the ordered
basis (cached per field), as x = sum_j Tr(d_j x) basis_j, so an inverse
costs one Z_p matrix inversion and an e x e product over F_q.

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
from .errors import (
    BothZeroError,
    ContextMismatchError,
    InvariantError,
    NotAPermutationError,
    SingularSystemError,
    TwistMismatchError,
)
from .fields import FiniteField, FqElem

CHECK_DIVISION = False
DIVISION_CHECKS = 0

NEG_INF = float("-inf")

Matrix = tuple[tuple[int, ...], ...]


def _trim(coeffs: list[FqElem]) -> tuple[FqElem, ...]:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class SkewPoly:
    """sum_i f_i Y^i in F_q[Y; sigma], equally the additive polynomial
    sum_i f_i X^(p^(twist i))."""

    __slots__ = ("field", "twist", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable[FqElem], twist: int = 1):
        if not isinstance(twist, int) or twist < 1:
            raise TwistMismatchError(f"twist step must be a positive int, got {twist!r}")
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, FqElem) or (c.field is not field and c.field != field):
                raise ContextMismatchError("coefficient from a different field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "coeffs", _trim(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

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
        """coeff * Y^index, that is coeff * X^(p^(twist*index))."""
        zero = field.zero()
        return cls(field, [zero] * index + [coeff], twist)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Skew degree n (the index of X^(p^(twist*n))), or -inf for zero."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> FqElem:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.field == other.field
            and self.twist == other.twist
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.twist, self.coeffs))

    def __repr__(self) -> str:
        digs = [list(c.digits) for c in self.coeffs]
        return f"SkewPoly(twist={self.twist}, coeffs={digs})"

    # ------------------------------------------------------------------

    def _peer(self, other: "SkewPoly") -> None:
        if not isinstance(other, SkewPoly):
            raise TypeError(f"expected SkewPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise ContextMismatchError("polynomials over different fields")
        if self.twist != other.twist:
            raise TwistMismatchError(
                f"twist steps differ: {self.twist} vs {other.twist}"
            )

    def _sigma(self, a: FqElem, n: int) -> FqElem:
        """sigma^n(a), n may be negative."""
        return a.frobenius((self.twist * n) % self.field.e)

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._peer(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPoly(self.field, out, self.twist)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.field, [-c for c in self.coeffs], self.twist)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        """Ring product; as additive polynomials, self after other."""
        self._peer(other)
        field = self.field
        if self.is_zero or other.is_zero:
            return SkewPoly.zero(field, self.twist)
        a, b = self.coeffs, other.coeffs
        out = [field.zero()] * (len(a) + len(b) - 1)
        one = field.one()
        for i, ai in enumerate(a):
            if not ai:
                continue
            k = (self.twist * i) % field.e
            for j, bj in enumerate(b):
                if bj:
                    t = bj.frobenius(k) if k else bj
                    out[i + j] = out[i + j] + (t if ai == one else ai * t)
        return SkewPoly(field, out, self.twist)

    compose = __mul__

    def left_scalar(self, c: FqElem) -> "SkewPoly":
        """(c) * self as ring elements: coefficients multiplied by c on the left."""
        return SkewPoly(self.field, [c * a for a in self.coeffs], self.twist)

    def right_scalar(self, c: FqElem) -> "SkewPoly":
        """self * (c): coefficient i picks up sigma^i(c)."""
        return SkewPoly(
            self.field,
            [a * self._sigma(c, i) for i, a in enumerate(self.coeffs)],
            self.twist,
        )

    # ------------------------------------------------------------------
    # Euclidean structure

    def divmod_right(self, g: "SkewPoly") -> tuple["SkewPoly", "SkewPoly"]:
        """q, r with self = q * g + r and deg r < deg g."""
        self._peer(g)
        if g.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        field = self.field
        n = len(g.coeffs) - 1
        r = list(self.coeffs)
        q = [field.zero()] * max(len(r) - n, 0)
        g_inv = g.lead if g.is_monic else g.lead.inv()
        while len(r) > n:
            k = len(r) - 1 - n
            c = r[-1] * self._sigma(g_inv, k)
            q[k] = c
            for i, gi in enumerate(g.coeffs):
                if gi:
                    r[i + k] = r[i + k] - c * self._sigma(gi, k)
            del r[-1]
            while r and not r[-1]:
                del r[-1]
        qq = SkewPoly(field, q, self.twist)
        rr = SkewPoly(field, r, self.twist)
        check_rebuild(lambda: (self, qq * g + rr))
        return qq, rr

    def divmod_left(self, g: "SkewPoly") -> tuple["SkewPoly", "SkewPoly"]:
        """q, r with self = g * q + r and deg r < deg g."""
        self._peer(g)
        if g.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        field = self.field
        n = len(g.coeffs) - 1
        g_inv = g.lead if g.is_monic else g.lead.inv()
        r = list(self.coeffs)
        q = [field.zero()] * max(len(r) - n, 0)
        while len(r) > n:
            k = len(r) - 1 - n
            c = self._sigma(g_inv * r[-1], -n)
            q[k] = c
            for i, gi in enumerate(g.coeffs):
                if gi:
                    r[i + k] = r[i + k] - gi * self._sigma(c, i)
            del r[-1]
            while r and not r[-1]:
                del r[-1]
        qq = SkewPoly(field, q, self.twist)
        rr = SkewPoly(field, r, self.twist)
        check_rebuild(lambda: (self, g * qq + rr))
        return qq, rr

    def mod_right(self, g: "SkewPoly") -> "SkewPoly":
        return self.divmod_right(g)[1]

    def mod_left(self, g: "SkewPoly") -> "SkewPoly":
        return self.divmod_left(g)[1]

    def monic_left(self) -> "SkewPoly":
        """Monic left-scalar normalisation c * self."""
        if self.is_zero or self.is_monic:
            return self
        return self.left_scalar(self.lead.inv())

    def monic_right(self) -> "SkewPoly":
        """Monic right-scalar normalisation self * c."""
        if self.is_zero:
            return self
        c = self._sigma(self.lead.inv(), -(len(self.coeffs) - 1))
        return self.right_scalar(c)

    # ------------------------------------------------------------------
    # function view

    def __call__(self, x: FqElem) -> FqElem:
        if x.field != self.field:
            raise ContextMismatchError("evaluation point from a different field")
        e = self.field.e
        acc = self.field.zero()
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * x.frobenius((self.twist * i) % e)
        return acc

    def as_p_poly(self) -> "SkewPoly":
        """Exact re-expression with twist 1 (indices spread out, no folding)."""
        if self.twist == 1:
            return self
        field = self.field
        zero = field.zero()
        out = [zero] * (self.twist * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[self.twist * i] = c
        return SkewPoly(field, out, 1)

    def reduce(self) -> "SkewPoly":
        """Fold through x^(p^e) = x; result has twist 1 and indices < e."""
        field, e = self.field, self.field.e
        out = [field.zero()] * e
        for i, c in enumerate(self.coeffs):
            if c:
                k = (self.twist * i) % e
                out[k] = out[k] + c
        return SkewPoly(field, out, 1)

    def to_matrix(self) -> Matrix:
        """e x e matrix over Z_p of the induced linear map, in the field basis."""
        field = self.field
        reduced = self.reduce()
        cols = [field.coordinates(reduced(b)) for b in field.basis]
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
            field.combine([rows[r][j] % p for r in range(e)]) for j in range(e)
        ]
        dual = field.dual_frobenius()
        coeffs = [field.zero()] * e
        for t, d_pows in zip(targets, dual):
            if t:
                for k in range(e):
                    coeffs[k] = coeffs[k] + t * d_pows[k]
        return cls(field, coeffs, 1)

    def is_permutation(self) -> bool:
        return _linalg.rank([list(r) for r in self.to_matrix()], self.field.p) == self.field.e

    def inverse(self) -> "SkewPoly":
        """Compositional inverse of a permutation polynomial, reduced."""
        m = _linalg.inv([list(r) for r in self.to_matrix()], self.field.p)
        if m is None:
            raise NotAPermutationError("polynomial does not permute the field")
        return SkewPoly.from_matrix(self.field, m)


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


def skew_gcd(f: SkewPoly, g: SkewPoly, side: str) -> SkewPoly:
    if side == "right":
        return gcd_right(f, g)
    if side == "left":
        return gcd_left(f, g)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


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
