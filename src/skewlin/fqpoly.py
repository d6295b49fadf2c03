"""Dense univariate polynomials over GF(p^e), little-endian coefficients.

Plain one-variable arithmetic with no additivity structure assumed; the
additive and quadratic types cross-check themselves against this
representation.  The zero polynomial has an empty coefficient tuple and
degree float('-inf').
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import ContextMismatchError
from .fields import FiniteField, FqElem
from .skew import NEG_INF, _trim


class FqPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable[FqElem]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, FqElem) or c.field != field:
                raise ContextMismatchError("coefficient from a different field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trim(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

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
        if x.field != self.field:
            raise ContextMismatchError("evaluation point from a different field")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a: FqElem) -> "FqPoly":
        """The polynomial f(X + a), by Horner in X + a."""
        if a.field != self.field:
            raise ContextMismatchError("shift amount from a different field")
        field = self.field
        lin = FqPoly(field, (a, field.one()))
        acc = FqPoly.zero(field)
        for c in reversed(self.coeffs):
            acc = acc * lin + FqPoly.constant(c)
        return acc
