"""Arithmetic in small finite fields GF(p^e).

A field is described by a prime characteristic p, an extension degree e,
and a monic irreducible modulus of degree e over Z_p.  An element
d_0 + d_1 t + ... + d_{e-1} t^{e-1}, with t a root of the modulus, is the
digit tuple (d_0, ..., d_{e-1}), low power first, every digit in [0, p).
The modulus uses the same little-endian convention, its leading 1
included, so GF(4) built on t^2 + t + 1 reads [1, 1, 1].

When no modulus is given the constructor deterministically picks the
lexicographically smallest monic irreducible of degree e, scanning the
non-leading coefficient vector as a base-p counter from the constant term
upward.  Two runs, or two machines, therefore always agree on the field.
Degree 1 degenerates to the modulus t and plain mod-p arithmetic.

Each field also carries an ordered Z_p-basis used by the matrix and
multivariate views elsewhere in the package; it defaults to the powers
1, t, ..., t^{e-1}.  Elements never coerce across fields: any mixed
operation raises ContextMismatchError, even when the fields are
isomorphic.

Fields with more than 2^20 elements are refused outright; everything in
this package is meant to run at desk scale, where exhaustive checks stay
feasible.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

from . import _fppoly as fp
from . import _linalg
from .errors import (
    ContextMismatchError,
    DegreeMismatchError,
    InvariantError,
    NonPrimeError,
    PolicyBoundError,
    ReducibleModulusError,
)

MAX_FIELD_SIZE = 1 << 20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _over_cap(p: int, e: int) -> PolicyBoundError:
    return PolicyBoundError(f"field of size {p}^{e} exceeds the policy cap of 2^20 elements")


class FqElem:
    """Element of a FiniteField.

    Instances are immutable and hashable.  They are normally produced by
    the owning field (``field.element``, ``field.from_int``, arithmetic);
    the raw constructor performs no validation.
    """

    __slots__ = ("field", "digits")

    def __init__(self, field: "FiniteField", digits: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value):
        raise AttributeError("FqElem is immutable")

    def _peer(self, other: "FqElem") -> None:
        if not isinstance(other, FqElem):
            raise TypeError(f"expected FqElem, got {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise ContextMismatchError(
                f"elements of {self.field} and {other.field} cannot be combined"
            )

    def __bool__(self) -> bool:
        return any(self.digits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqElem)
            and self.digits == other.digits
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.digits))

    def __add__(self, other: "FqElem") -> "FqElem":
        self._peer(other)
        return FqElem(self.field, self.field._add_digits(self.digits, other.digits))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._peer(other)
        return FqElem(self.field, self.field._sub_digits(self.digits, other.digits))

    def __neg__(self) -> "FqElem":
        p = self.field.p
        return FqElem(self.field, tuple((-d) % p for d in self.digits))

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._peer(other)
        return FqElem(self.field, self.field._mul_digits(self.digits, other.digits))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inv()

    def __pow__(self, n: int) -> "FqElem":
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self) -> "FqElem":
        if not self:
            raise ZeroDivisionError("inverse of the zero field element")
        return FqElem(self.field, self.field._inv_digits(self.digits))

    def frobenius(self, k: int) -> "FqElem":
        """x -> x^(p^k); any integer k is reduced mod e."""
        return FqElem(self.field, self.field._frob_digits(self.digits, k % self.field.e))

    def as_int(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.field.p + d
        return v

    def __repr__(self) -> str:
        return f"FqElem({list(self.digits)}, {self.field})"


class FiniteField:
    """GF(p^e) with explicit modulus and an ordered Z_p-basis."""

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "basis",
        "_default_basis",
        "_red",
        "_frob_cache",
        "_coord_inv",
        "_dual_frob",
        "_key",
    )

    def __init__(
        self,
        p: int,
        e: int,
        modulus: Optional[Sequence[int]] = None,
        basis: Optional[Sequence[Sequence[int]]] = None,
    ):
        # the cap comes before any work that grows with p or e: trial
        # division of p, and the power p**e (e >= 21 exceeds 2^20 for every p)
        if isinstance(p, int) and p > MAX_FIELD_SIZE:
            raise _over_cap(p, e)
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrimeError(f"characteristic {p!r} is not a prime")
        if not isinstance(e, int) or e < 1:
            raise DegreeMismatchError(f"extension degree must be a positive int, got {e!r}")
        if e >= MAX_FIELD_SIZE.bit_length() or p**e > MAX_FIELD_SIZE:
            raise _over_cap(p, e)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "q", p**e)

        if modulus is None:
            mod = tuple(fp.first_irreducible(p, e))
        else:
            mod = tuple(int(c) for c in modulus)
            if len(mod) != e + 1 or mod[-1] != 1:
                raise DegreeMismatchError(
                    f"modulus must be monic of degree {e}, got {list(mod)}"
                )
            if any(not (0 <= c < p) for c in mod):
                raise DegreeMismatchError("modulus digits must lie in [0, p)")
            if not fp.is_irreducible(list(mod), p):
                raise ReducibleModulusError(f"modulus {list(mod)} is reducible over Z_{p}")
        object.__setattr__(self, "modulus", mod)

        # reduction table: digits of t^(e+k) for k = 0 .. e-2
        red = []
        if e > 0:
            cur = [(-mod[i]) % p for i in range(e)]
            red.append(tuple(cur))
            for _ in range(e - 2):
                spill = cur[e - 1]
                cur = [0] + cur[: e - 1]
                if spill:
                    cur = [(cur[i] + spill * red[0][i]) % p for i in range(e)]
                red.append(tuple(cur))
        object.__setattr__(self, "_red", tuple(red))
        object.__setattr__(self, "_frob_cache", {})
        object.__setattr__(self, "_coord_inv", None)
        object.__setattr__(self, "_dual_frob", None)

        if basis is None:
            basis_digits = tuple(
                tuple(1 if i == j else 0 for i in range(e)) for j in range(e)
            )
            default = True
        else:
            basis_digits = tuple(tuple(int(d) for d in b) for b in basis)
            if len(basis_digits) != e or any(len(b) != e for b in basis_digits):
                raise DegreeMismatchError("basis must be an e-tuple of e-digit vectors")
            if any(not (0 <= d < p) for b in basis_digits for d in b):
                raise DegreeMismatchError("basis digits must lie in [0, p)")
            cols = [[basis_digits[j][i] for j in range(e)] for i in range(e)]
            if _linalg.inv(cols, p) is None:
                raise DegreeMismatchError("basis vectors are not Z_p-independent")
            default = all(
                basis_digits[j] == tuple(1 if i == j else 0 for i in range(e))
                for j in range(e)
            )
        object.__setattr__(self, "_default_basis", default)
        object.__setattr__(self, "_key", (p, e, mod, basis_digits))
        object.__setattr__(
            self, "basis", tuple(FqElem(self, b) for b in basis_digits)
        )

    def __setattr__(self, name, value):
        raise AttributeError("FiniteField is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    # ------------------------------------------------------------------
    # element construction

    def element(self, digits: Sequence[int]) -> FqElem:
        digs = tuple(int(d) for d in digits)
        if len(digs) != self.e:
            raise DegreeMismatchError(
                f"expected {self.e} digits, got {len(digs)}"
            )
        if any(not (0 <= d < self.p) for d in digs):
            raise DegreeMismatchError(f"digits must lie in [0, {self.p})")
        return FqElem(self, digs)

    def from_int(self, n: int) -> FqElem:
        """Element with index n in [0, q): base-p digits of n, low first."""
        if not (0 <= n < self.q):
            raise DegreeMismatchError(f"index {n} out of range [0, {self.q})")
        digs = []
        for _ in range(self.e):
            digs.append(n % self.p)
            n //= self.p
        return FqElem(self, tuple(digs))

    def zero(self) -> FqElem:
        return FqElem(self, (0,) * self.e)

    def one(self) -> FqElem:
        return FqElem(self, (1,) + (0,) * (self.e - 1))

    def scalar(self, c: int) -> FqElem:
        """The prime-subfield element c mod p."""
        return FqElem(self, (c % self.p,) + (0,) * (self.e - 1))

    def generator(self) -> FqElem:
        """The modulus root t (equals 0 when e == 1)."""
        if self.e == 1:
            return self.zero()
        return FqElem(self, (0, 1) + (0,) * (self.e - 2))

    def elements(self) -> Iterator[FqElem]:
        for n in range(self.q):
            yield self.from_int(n)

    def random_element(self, rng: random.Random, nonzero: bool = False) -> FqElem:
        while True:
            digs = tuple(rng.randrange(self.p) for _ in range(self.e))
            if not nonzero or any(digs):
                return FqElem(self, digs)

    # ------------------------------------------------------------------
    # coordinates relative to the chosen basis

    def coordinates(self, x: FqElem) -> tuple[int, ...]:
        if x.field != self:
            raise ContextMismatchError("element belongs to a different field")
        if self._default_basis:
            return x.digits
        inv = self._coord_inv
        if inv is None:
            cols = [[self.basis[j].digits[i] for j in range(self.e)] for i in range(self.e)]
            inv = _linalg.inv(cols, self.p)
            object.__setattr__(self, "_coord_inv", inv)
        return tuple(_linalg.matvec(inv, list(x.digits), self.p))

    def combine(self, coords: Sequence[int]) -> FqElem:
        """Inverse of coordinates: sum coords[i] * basis[i]."""
        if len(coords) != self.e:
            raise DegreeMismatchError(f"expected {self.e} coordinates")
        digs = [0] * self.e
        for c, b in zip(coords, self.basis):
            if c % self.p:
                for i in range(self.e):
                    digs[i] = (digs[i] + c * b.digits[i]) % self.p
        return FqElem(self, tuple(digs))

    def dual_frobenius(self) -> tuple[tuple[FqElem, ...], ...]:
        """Row j holds d_j^(p^k) for k = 0 .. e-1, where d is the trace-dual
        of the ordered basis: Tr(basis_i * d_j) is 1 if i == j, else 0.

        Every x equals sum_j Tr(d_j x) basis_j, so a Z_p-linear map L is
        sum_k (sum_j L(basis_j) d_j^(p^k)) x^(p^k).  Built on first use.
        """
        rows = self._dual_frob
        if rows is None:
            p, e = self.p, self.e
            # Tr is Z_p-linear with values in Z_p (digit 0), so Tr(x) is the
            # dot product of the digits of x with the traces of 1, t, .., t^(e-1)
            tr_t = []
            for j in range(e):
                t_j = FqElem(self, tuple(int(i == j) for i in range(e)))
                acc = t_j
                for k in range(1, e):
                    acc = acc + t_j.frobenius(k)
                tr_t.append(acc.digits[0])
            gram = [
                [sum(d * c for d, c in zip((bi * bj).digits, tr_t)) % p for bj in self.basis]
                for bi in self.basis
            ]
            gram_inv = _linalg.inv(gram, p)
            if gram_inv is None:
                raise InvariantError("trace form of the field basis is degenerate")
            rows = []
            for j in range(e):
                d = self.combine(gram_inv[j])
                rows.append(tuple(d.frobenius(k) for k in range(e)))
            rows = tuple(rows)
            object.__setattr__(self, "_dual_frob", rows)
        return rows

    # ------------------------------------------------------------------
    # digit kernels

    def _add_digits(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub_digits(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul_digits(self, a, b):
        p, e = self.p, self.e
        if e == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        red = self._red
        for k in range(2 * e - 2, e - 1, -1):
            v = conv[k]
            if v:
                row = red[k - e]
                for i in range(e):
                    conv[i] += v * row[i]
        return tuple(conv[i] % p for i in range(e))

    def _inv_digits(self, a):
        inv = fp.inv_mod(fp.trim(list(a)), list(self.modulus), self.p)
        return tuple(inv[i] if i < len(inv) else 0 for i in range(self.e))

    def _frob_digits(self, a, k):
        if k == 0:
            return tuple(a)
        rows = self._frob_cache.get(k)
        if rows is None:
            m = list(self.modulus)
            base = fp.pow_mod([0, 1], self.p**k, m, self.p)
            cur = [1]
            imgs = []
            for _ in range(self.e):
                imgs.append(tuple(cur[i] if i < len(cur) else 0 for i in range(self.e)))
                cur = fp.mod(fp.mul(cur, base, self.p), m, self.p)
            rows = tuple(imgs)
            self._frob_cache[k] = rows
        p, e = self.p, self.e
        out = [0] * e
        for i, d in enumerate(a):
            if d:
                img = rows[i]
                for r in range(e):
                    out[r] += d * img[r]
        return tuple(c % p for c in out)


def field_create(p: int, e: int, modulus: Optional[Sequence[int]] = None) -> FiniteField:
    """Convenience constructor mirroring FiniteField(p, e, modulus)."""
    return FiniteField(p, e, modulus)
