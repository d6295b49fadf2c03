"""Dense univariate polynomials over GF(p^e), little-endian coefficients.

Plain one-variable arithmetic with no additivity structure assumed; the
additive and quadratic types cross-check themselves against this
representation.  The zero polynomial has an empty coefficient tuple and
degree float('-inf').
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ._record import Record
from .errors import ContextMismatchError
from .fields import FiniteField, FqElem
from .skew import NEG_INF, _trim


class FqPoly(Record):
    """Fields field (FiniteField) and coeffs (a trimmed tuple of FqElem);
    compared by value."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable[FqElem]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, FqElem) or c.field != field:
                raise ContextMismatchError("coefficient from a different field")
        super().__init__(field, _trim(cs))

    @classmethod
    def zero(cls, field: FiniteField) -> "FqPoly":
        return cls(field, ())

    @classmethod
    def constant(cls, c: FqElem) -> "FqPoly":
        return cls(c.field, (c,))

    @classmethod
    def from_monomials(cls, field: FiniteField, terms: Mapping[int, FqElem]) -> "FqPoly":
        if not terms:
            return cls.zero(field)
        out = [field.zero()] * (max(terms) + 1)
        for exp, c in terms.items():
            out[exp] = out[exp] + c
        return cls(field, out)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def monomials(self) -> dict[int, FqElem]:
        return {i: c for i, c in enumerate(self.coeffs) if c}

    def __repr__(self) -> str:
        return f"FqPoly({[list(c.digits) for c in self.coeffs]})"

    def _peer(self, other: "FqPoly") -> None:
        if not isinstance(other, FqPoly):
            raise TypeError(f"expected FqPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise ContextMismatchError("polynomials over different fields")

    def __add__(self, other: "FqPoly") -> "FqPoly":
        self._peer(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FqPoly(self.field, out)

    def __neg__(self) -> "FqPoly":
        return FqPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        self._peer(other)
        if self.is_zero or other.is_zero:
            return FqPoly.zero(self.field)
        a, b = self.coeffs, other.coeffs
        out = [self.field.zero()] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return FqPoly(self.field, out)

    def __call__(self, x: FqElem) -> FqElem:
        self.field._index_of(x, "evaluation point")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a: FqElem) -> "FqPoly":
        """The polynomial f(X + a), by Horner in X + a."""
        self.field._index_of(a, "shift amount")
        field = self.field
        lin = FqPoly(field, (a, field.one()))
        acc = FqPoly.zero(field)
        for c in reversed(self.coeffs):
            acc = acc * lin + FqPoly.constant(c)
        return acc
