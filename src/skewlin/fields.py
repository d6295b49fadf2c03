"""Arithmetic in small finite fields GF(p^e).

A field is described by a prime characteristic p, an extension degree e,
and a monic irreducible modulus of degree e over Z_p.  An element
d_0 + d_1 t + ... + d_{e-1} t^{e-1}, with t a root of the modulus, has
the digit tuple (d_0, ..., d_{e-1}), low power first, every digit in
[0, p).  The modulus uses the same little-endian convention, its leading
1 included, so GF(4) built on t^2 + t + 1 reads [1, 1, 1].

An element is stored as its index n = d_0 + d_1 p + ... + d_{e-1} p^(e-1)
in [0, q), the from_int / as_int value, and nothing else.  Its digits
are derived from the index where they are read: at the JSON, coordinate
and repr boundary, and inside the digit kernels.  They come from two
tables of half-length digit tuples (low and high digits), built on the
first read, so reading them costs two lookups and a concatenation.

A field is plain data: ints, tuples of ints, and nine index kernels,
picked at construction, that the skew ring and the decomposition loops
call directly.  Six are elementwise (_add, _sub, _neg, _mul, _inv,
_frob); three work on a whole row of indices: _addmul(out, c, row, start)
does out[start + j] += c row[j] in place, _addmul_right(out, row, c,
start, step) does out[start + j] += row[j] c^(p^(step j)) in place, which
adds (row * c) Y^start in the ring twisted by x -> x^(p^step), and
_frob_row(row, k) returns [x^(p^k) for x in row].  A ring product or a
division of either side is then one row kernel call per quotient or
product coefficient, not one kernel call per coefficient pair.  No
kernel refers back to the field and every cache holds indices, so a
dropped field is freed at once, without the cyclic collector.  An
FqElem is made only where the public API takes or returns one.  Fields
and elements are immutable values (_record.Frozen): no slot can be set
or deleted, and the two tables of basis and dual Frobenius rows are
built on first use through Frozen._cached.

Each characteristic has one arithmetic.  A field of characteristic 2
reads its index as a polynomial over Z_2, one bit per digit: a product
is a carry-less shift and XOR, reduced by the modulus bits as it goes;
an inverse runs the binary extended Euclid algorithm against the modulus
bits; a Frobenius power XORs, over the set bits of the index, the
indices of (t^i)^(2^k), one row per k cached on first use; a sum or
difference is the XOR of the indices, and negation the identity.  So
an index's bits are its F_2 coordinates, and a vector of n elements
has its F_2 coordinates in one int, the indices side by side
(sum_i c_i 2^(e i)), where an F_2-linear combination is an XOR; the
package's one elimination, _linalg.eliminator, runs on such ints over
F_2, for decompose and for rank and inverse alike.  With at most
TABLE_MAX_Q elements the field fills exp and log tables with
that product at construction, over the smallest index of multiplicative
order q - 1 (the modulus root t need not be primitive), and runs on
them: a product is exp[log a + log b], an inverse exp[q - 1 - log a], a
Frobenius power exp[2^k log a mod (q - 1)].  Their _addmul is
out[j] ^= exp[log c + log row[j]], with no branch: log 0 lands in the
zero tail of exp.  Their _addmul_right is the same lookup with log c
replaced, entry by entry, by the log 2^(step j) log c of the twisted
scalar, one multiplication mod q - 1 further each entry; a zero c is
guarded once.  Their _frob_row reads, for each k, a row of the q
indices x^(2^k), built on the first call with that k and kept by the
kernel, so at most e q entries and no cost at construction.  The table
build costs a walk of at most q - 1 products per candidate, which a
larger field's desk-scale use would not repay.  In odd characteristic
products, inverses and Frobenius powers run the digit kernels
(convolution folded through the modulus, Euclid modulo the modulus, the
matrix of x -> x^(p^k)) on the index's digits; those module functions
are also the tests' oracle for characteristic 2.  Fields without tables
build the three row kernels from their elementwise ones.

Odd characteristic has no tables yet.  With Zech logarithms
z(d) = log(1 + g^d) a sum would be exp[log a + z(log b - log a)], but the
benchmark reads a faster odd-characteristic workload as a larger peak
memory (its worker keeps a latency and a probe per operation), so the
tables wait for that fix (ROADMAP direction 4).

When no modulus is given the constructor deterministically picks the
lexicographically smallest monic irreducible of degree e, scanning the
non-leading coefficient vector as a base-p counter from the constant term
upward.  Two runs, or two machines, therefore always agree on the field.
Degree 1 degenerates to plain mod-p arithmetic; its default modulus is
X, so t = 0 there, and under a modulus X + m_0 the root t is -m_0.

Each field also carries an ordered Z_p-basis used by the matrix and
multivariate views elsewhere in the package; it defaults to the powers
1, t, ..., t^{e-1}.  Elements never coerce across fields: any mixed
operation raises ContextMismatchError, even when the fields are
isomorphic, and a non-element operand raises TypeError.  Two fields
built separately from the same description are equal, and their elements
compare equal and combine.

Fields with more than 2^20 elements are refused outright; everything in
this package is meant to run at desk scale, where exhaustive checks stay
feasible.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Callable, Iterator, Optional, Sequence

from . import _fppoly as fp
from . import _linalg
from ._record import Frozen
from .errors import (
    ContextMismatchError,
    DegreeMismatchError,
    InvariantError,
    NonPrimeError,
    PolicyBoundError,
    ReducibleModulusError,
)

MAX_FIELD_SIZE = 1 << 20
# the largest characteristic-2 field whose arithmetic runs on exp/log tables
TABLE_MAX_Q = 1 << 12


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


def _integers(values: Sequence[int], what: str) -> list[int]:
    """values as ints: each goes through operator.index, so a float or a
    string fails at the call with DegreeMismatchError instead of turning
    into an index, or into a digit by truncation."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise DegreeMismatchError(f"{what} must be integers, got {values!r}") from None


def _digit_tuples(p: int, width: int) -> tuple[tuple[int, ...], ...]:
    """The base-p digit tuples of 0 .. p^width - 1, low digit first."""
    return tuple(ds[::-1] for ds in itertools.product(range(p), repeat=width))


def _pack(p: int, digits: Sequence[int]) -> int:
    """The index of the element with these base-p digits, low first."""
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def _over_cap(p: int, e: int) -> PolicyBoundError:
    return PolicyBoundError(f"field of size {p}^{e} exceeds the policy cap of 2^20 elements")


class FqElem(Frozen):
    """Element of a FiniteField, held as its index in [0, q).

    Instances are Frozen (no slot can be set or deleted) and hash by their
    field and index.  They are normally produced by the owning field
    (``field.element``, ``field.from_int``, arithmetic); the raw
    constructor performs no validation.
    """

    __slots__ = ("field", "_n")

    def __init__(self, field: "FiniteField", n: int):
        _set_field(self, field)
        _set_index(self, n)

    def __reduce__(self):
        return FqElem, (self.field, self._n)

    @property
    def digits(self) -> tuple[int, ...]:
        """The base-p digits of the index, low first."""
        return self.field._digits(self._n)

    def __bool__(self) -> bool:
        return self._n != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqElem)
            and self._n == other._n
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.field, self._n))

    def __add__(self, other: "FqElem") -> "FqElem":
        field = self.field
        return FqElem(field, field._add(self._n, field._index_of(other)))

    def __sub__(self, other: "FqElem") -> "FqElem":
        field = self.field
        return FqElem(field, field._sub(self._n, field._index_of(other)))

    def __neg__(self) -> "FqElem":
        field = self.field
        return FqElem(field, field._neg(self._n))

    def __mul__(self, other: "FqElem") -> "FqElem":
        field = self.field
        return FqElem(field, field._mul(self._n, field._index_of(other)))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self.field._index_of(other)
        return self * other.inv()

    def __pow__(self, n: int) -> "FqElem":
        (n,) = _integers((n,), "exponents")
        if n < 0:
            return self.inv() ** (-n)
        field = self.field
        mul = field._mul
        result, base = 1, self._n
        while n:
            if n & 1:
                result = mul(result, base)
            base = mul(base, base)
            n >>= 1
        return FqElem(field, result)

    def inv(self) -> "FqElem":
        if not self._n:
            raise ZeroDivisionError("inverse of the zero field element")
        field = self.field
        return FqElem(field, field._inv(self._n))

    def frobenius(self, k: int) -> "FqElem":
        """x -> x^(p^k); any integer k is reduced mod e."""
        (k,) = _integers((k,), "Frobenius powers")
        field = self.field
        return FqElem(field, field._frob(self._n, k))

    def as_int(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"FqElem({list(self.digits)}, {self.field})"


# slot setters that bypass Frozen.__setattr__, for the constructor alone
_set_field = FqElem.field.__set__
_set_index = FqElem._n.__set__


class FiniteField(Frozen):
    """GF(p^e) with explicit modulus and an ordered Z_p-basis; Frozen, and
    equal to another field exactly when p, e, modulus and basis agree."""

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "_basis",
        "_default_basis",
        "_coord_inv",
        "_dual_frob",
        "_basis_frob",
        "_key",
        "_exp",
        "_log",
        "_digits",
        # the index kernels: element indices in, the result's index out
        "_add",
        "_sub",
        "_neg",
        "_mul",
        "_inv",
        "_frob",
        # the row kernels, on lists of element indices
        "_addmul",
        "_addmul_right",
        "_frob_row",
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
            mod = tuple(_integers(modulus, "modulus digits"))
            if len(mod) != e + 1 or mod[-1] != 1:
                raise DegreeMismatchError(
                    f"modulus must be monic of degree {e}, got {list(mod)}"
                )
            if any(not (0 <= c < p) for c in mod):
                raise DegreeMismatchError("modulus digits must lie in [0, p)")
            if not fp.is_irreducible(list(mod), p):
                raise ReducibleModulusError(f"modulus {list(mod)} is reducible over Z_{p}")
        object.__setattr__(self, "modulus", mod)

        for name in ("_dual_frob", "_basis_frob", "_exp", "_log"):
            object.__setattr__(self, name, None)
        digits = _digit_reader(p, e)
        slots = _bit_kernels(e, mod) if p == 2 else _digit_kernels(p, e, mod, digits)
        for name, value in dict(slots, _digits=digits).items():
            object.__setattr__(self, name, value)

        identity = tuple(tuple(int(i == j) for i in range(e)) for j in range(e))
        coord_inv = None
        if basis is None:
            basis_digits = identity
        else:
            basis_digits = tuple(tuple(_integers(b, "basis digits")) for b in basis)
            if len(basis_digits) != e or any(len(b) != e for b in basis_digits):
                raise DegreeMismatchError("basis must be an e-tuple of e-digit vectors")
            if any(not (0 <= d < p) for b in basis_digits for d in b):
                raise DegreeMismatchError("basis digits must lie in [0, p)")
            cols = [[basis_digits[j][i] for j in range(e)] for i in range(e)]
            coord_inv = _linalg.inv(cols, p)
            if coord_inv is None:
                raise DegreeMismatchError("basis vectors are not Z_p-independent")
        object.__setattr__(self, "_coord_inv", coord_inv)
        object.__setattr__(self, "_default_basis", basis_digits == identity)
        object.__setattr__(self, "_key", (p, e, mod, basis_digits))
        object.__setattr__(self, "_basis", tuple(_pack(p, b) for b in basis_digits))

    def __reduce__(self):
        # copy and pickle rebuild the field from its description; the
        # kernels and cached tables are built again, not copied
        return FiniteField, self._key

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
        digs = _integers(digits, "digits")
        if len(digs) != self.e:
            raise DegreeMismatchError(
                f"expected {self.e} digits, got {len(digs)}"
            )
        if any(not (0 <= d < self.p) for d in digs):
            raise DegreeMismatchError(f"digits must lie in [0, {self.p})")
        return FqElem(self, _pack(self.p, digs))

    def from_int(self, n: int) -> FqElem:
        """Element with index n in [0, q): base-p digits of n, low first."""
        (n,) = _integers((n,), "index")
        if not (0 <= n < self.q):
            raise DegreeMismatchError(f"index {n} out of range [0, {self.q})")
        return FqElem(self, n)

    def zero(self) -> FqElem:
        return FqElem(self, 0)

    def one(self) -> FqElem:
        return FqElem(self, 1)

    def scalar(self, c: int) -> FqElem:
        """The prime-subfield element c mod p."""
        (c,) = _integers((c,), "scalar")
        return FqElem(self, c % self.p)

    def generator(self) -> FqElem:
        """The modulus root t: digits (0, 1) when e > 1, and -m_0 mod p, the
        root of X + m_0, when e == 1 (0 under the default modulus X)."""
        if self.e == 1:
            return FqElem(self, -self.modulus[0] % self.p)
        return FqElem(self, self.p)

    def elements(self) -> Iterator[FqElem]:
        for n in range(self.q):
            yield FqElem(self, n)

    def random_element(self, rng: random.Random, nonzero: bool = False) -> FqElem:
        while True:
            digs = [rng.randrange(self.p) for _ in range(self.e)]
            if not nonzero or any(digs):
                return FqElem(self, _pack(self.p, digs))

    def _index_of(self, x: FqElem, what: str = "element") -> int:
        """The index of x, an element of this field: another object raises
        TypeError, another field's element ContextMismatchError."""
        if x.__class__ is not FqElem or x.field is not self:
            if not isinstance(x, FqElem):
                raise TypeError(f"expected FqElem, got {type(x).__name__}")
            if x.field != self:
                raise ContextMismatchError(f"{what} from a different field")
        return x._n

    # ------------------------------------------------------------------
    # coordinates relative to the chosen basis

    @property
    def basis(self) -> tuple[FqElem, ...]:
        """The ordered Z_p-basis, built from its indices on each read."""
        return tuple(FqElem(self, b) for b in self._basis)

    def coordinates(self, x: FqElem) -> tuple[int, ...]:
        return self._coordinates(self._index_of(x))

    def _coordinates(self, n: int) -> tuple[int, ...]:
        """The coordinates of the element of index n."""
        if self._default_basis:
            return self._digits(n)
        return tuple(_linalg.matvec(self._coord_inv, list(self._digits(n)), self.p))

    def combine(self, coords: Sequence[int]) -> FqElem:
        """Inverse of coordinates: sum coords[i] * basis[i]."""
        coords = _integers(coords, "coordinates")
        if len(coords) != self.e:
            raise DegreeMismatchError(f"expected {self.e} coordinates")
        return FqElem(self, self._combine(coords))

    def _combine(self, coords: Sequence[int]) -> int:
        """combine for e integer coordinates, as an index."""
        p = self.p
        if self._default_basis:
            return _pack(p, [c % p for c in coords])
        acc, add, mul = 0, self._add, self._mul
        for c, b in zip(coords, self._basis):
            acc = add(acc, mul(c % p, b))  # c mod p is the index of the scalar c
        return acc

    def basis_frobenius(self) -> tuple[tuple[int, ...], ...]:
        """Row s holds the indices of basis_s^(p^k) for k = 0 .. e-1.  Built
        on first use.

        A reduced additive polynomial sum_k c_k x^(p^k) sends basis_s to
        sum_k c_k basis_s^(p^k), so its matrix needs no evaluation.
        """
        frob, e = self._frob, self.e
        return self._cached(
            "_basis_frob", lambda: tuple(tuple(frob(b, k) for k in range(e)) for b in self._basis)
        )

    def dual_frobenius(self) -> tuple[tuple[int, ...], ...]:
        """Row j holds the indices of d_j^(p^k) for k = 0 .. e-1, where d is
        the trace-dual of the ordered basis: Tr(basis_i * d_j) is 1 if
        i == j, else 0.

        Every x equals sum_j Tr(d_j x) basis_j, so a Z_p-linear map L is
        sum_k (sum_j L(basis_j) d_j^(p^k)) x^(p^k).  Built on first use.
        """
        return self._cached("_dual_frob", self._build_dual_frobenius)

    def _build_dual_frobenius(self) -> tuple[tuple[int, ...], ...]:
        p, e, basis = self.p, self.e, self._basis
        add, mul, frob, digits = self._add, self._mul, self._frob, self._digits
        # Tr is Z_p-linear with values in Z_p (index below p), so Tr(x) is
        # the dot product of the digits of x with the traces of
        # 1, t, .., t^(e-1)
        tr_t = [functools.reduce(add, [frob(p**j, k) for k in range(e)]) for j in range(e)]
        gram = [
            [sum(d * c for d, c in zip(digits(mul(bi, bj)), tr_t)) % p for bj in basis]
            for bi in basis
        ]
        gram_inv = _linalg.inv(gram, p)
        if gram_inv is None:
            raise InvariantError("trace form of the field basis is degenerate")
        duals = map(self._combine, gram_inv)
        return tuple(tuple(frob(d, k) for k in range(e)) for d in duals)


# ----------------------------------------------------------------------
# index kernels: module functions, so that no kernel refers to its field


def _digit_reader(p: int, e: int) -> Callable[[int], tuple[int, ...]]:
    """index -> its digits: the digit tuples of its low e // 2 and high
    e - e // 2 digits, from two tables built on first read (none for e = 1)."""
    if e == 1:
        return lambda n: (n,)
    low = high = None

    def digits(n):
        nonlocal low, high
        if low is None:
            low, high = _digit_tuples(p, e // 2), _digit_tuples(p, e - e // 2)
        m = len(low)
        return low[n % m] + high[n // m]

    return digits


def _digit_kernels(p: int, e: int, modulus: tuple[int, ...], digits) -> dict[str, Callable]:
    """Odd characteristic: the digit kernels on the indices' digits."""
    frob_rows: dict[int, tuple[tuple[int, ...], ...]] = {}

    def mul(a, b):
        return _pack(p, _mul_digits(p, e, modulus, digits(a), digits(b)))

    def inv(a):
        return _pack(p, _inv_digits(p, e, modulus, digits(a)))

    def frob(a, k):
        k %= e
        return _pack(p, _frob_digits(p, e, modulus, frob_rows, digits(a), k)) if k else a

    # digit-wise mod p, packed back into an index as the digits are read
    def add(a, b):
        n = 0
        for x, y in zip(reversed(digits(a)), reversed(digits(b))):
            n = n * p + (x + y) % p
        return n

    def sub(a, b):
        n = 0
        for x, y in zip(reversed(digits(a)), reversed(digits(b))):
            n = n * p + (x - y) % p
        return n

    def neg(a):
        n = 0
        for x in reversed(digits(a)):
            n = n * p + -x % p
        return n

    kernels = dict(_add=add, _sub=sub, _neg=neg, _mul=mul, _inv=inv, _frob=frob)
    return dict(kernels, **_row_kernels(e, mul, add, frob))


def _row_kernels(e: int, mul, add, frob) -> dict[str, Callable]:
    """The row kernels from the elementwise ones: _addmul(out, c, row,
    start) does out[start + j] += c row[j] in place, _addmul_right(out,
    row, c, start, step) does out[start + j] += row[j] c^(p^(step j)) in
    place, and _frob_row(row, k) returns [x^(p^k) for x in row]."""

    def addmul(out, c, row, start):
        if c:
            for j, t in enumerate(row, start):
                if t:
                    if c != 1:
                        t = mul(c, t)
                    s = out[j]
                    out[j] = add(s, t) if s else t

    def addmul_right(out, row, c, start, step):
        if c:
            for i, t in enumerate(row):
                if t:
                    k = step * i % e
                    t = mul(t, frob(c, k) if k else c)
                    s = out[start + i]
                    out[start + i] = add(s, t) if s else t

    def frob_row(row, k):
        k %= e
        return [frob(x, k) for x in row] if k else list(row)

    return dict(_addmul=addmul, _addmul_right=addmul_right, _frob_row=frob_row)


def _bit_kernels(e: int, mod: tuple[int, ...]) -> dict[str, object]:
    """Characteristic 2: the index's bits are its digits, so the kernels
    work on the index as a polynomial over Z_2.  At most TABLE_MAX_Q
    elements, the product fills the tables of _table_kernels, which
    replace the product, inverse and Frobenius; sums are XOR either way."""
    top, modulus = 1 << e, _pack(2, mod)

    def product(a, b):
        # shift and XOR over the bits of the smaller operand b; at bit i,
        # a holds the first operand times t^i, reduced by the modulus bits
        if a < b:
            a, b = b, a
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= modulus
        return r

    frob_rows: dict[int, tuple[int, ...]] = {}

    def inv(a):
        # binary extended Euclid on (a, modulus): g a = u and h a = v
        # modulo the modulus throughout, until u = 1
        u, v, g, h = a, modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g, h, j = v, u, h, g, -j
            u ^= v << j
            g ^= h << j
        return g

    def frob(a, k):
        # x -> x^(2^k) is Z_2-linear: row i is the index of (t^i)^(2^k)
        k %= e
        if not k:
            return a
        row = frob_rows.get(k)
        if row is None:
            s = 2
            for _ in range(k):
                s = product(s, s)
            row, x = [], 1
            for _ in range(e):
                row.append(x)
                x = product(x, s)
            row = frob_rows[k] = tuple(row)
        r = i = 0
        while a:
            if a & 1:
                r ^= row[i]
            a >>= 1
            i += 1
        return r

    xor = operator.xor
    if top <= TABLE_MAX_Q:
        kernels = _table_kernels(e, mod, product)
    else:
        rows = _row_kernels(e, product, xor, frob)
        kernels = dict(_mul=product, _inv=inv, _frob=frob, **rows)
    return dict(kernels, _add=xor, _sub=xor, _neg=operator.pos)


def _table_kernels(
    e: int, mod: tuple[int, ...], product: Callable[[int, int], int]
) -> dict[str, object]:
    """exp and log tables over the smallest primitive index g, filled
    with the index product of characteristic 2, and the table product,
    inverse, Frobenius and row kernels that read them; the tables come
    back as the _exp and _log slots.

    exp holds g^i for i < 2(q - 1), so a sum of two logs needs no
    reduction, then zeros up to 4(q - 1); log[0] is 2(q - 1), so a
    product with a zero operand lands in that zero tail.  Candidates
    g = 1, 2, .. are walked in turn, and a walk ends at the first
    power that is zero or repeats; the first g whose q - 1 powers are
    distinct and nonzero visits every nonzero index once, which proves
    it primitive.  Raises InvariantError when no candidate does (a
    reducible modulus, say).
    """
    q = 1 << e
    qm1 = q - 1
    zero_log = 2 * qm1
    for g in range(1, q):
        exp = [0] * (2 * zero_log + 1)
        log = [zero_log] * q
        n = 1
        for i in range(qm1):
            if not n or log[n] != zero_log:
                break
            exp[i] = exp[i + qm1] = n
            log[n] = i
            n = product(n, g)
        else:
            break
    else:
        raise InvariantError(
            f"GF(2^{e}) on modulus {list(mod)} has no element of order {qm1}"
        )

    def mul(a, b):
        return exp[log[a] + log[b]]

    def inv(a):
        return exp[qm1 - log[a]]

    def frob(a, k):
        # a^(2^k) = g^(2^k log a)
        return exp[(log[a] << (k % e)) % qm1] if a else 0

    def addmul(out, c, row, start):
        # log 0 lands in the zero tail, so a zero c or t adds nothing
        lc = log[c]
        for j, t in enumerate(row, start):
            out[j] ^= exp[lc + log[t]]

    def addmul_right(out, row, c, start, step):
        # row[i] c^(2^(step i)) = g^(log row[i] + 2^(step i) log c): lc
        # walks the logs of the twists of c; a zero row entry lands in
        # the zero tail, and a zero c adds nothing
        if c:
            lc, m = log[c], 1 << step % e
            for j, t in enumerate(row, start):
                out[j] ^= exp[lc + log[t]]
                lc = lc * m % qm1

    frob_rows: dict[int, list[int]] = {}  # k -> [x^(2^k) for x < q]

    def frob_row(row, k):
        k %= e
        if not k:
            return list(row)
        table = frob_rows.get(k)
        if table is None:
            table = frob_rows[k] = [frob(x, k) for x in range(q)]
        return [table[x] for x in row]

    return dict(
        _mul=mul,
        _inv=inv,
        _frob=frob,
        _addmul=addmul,
        _addmul_right=addmul_right,
        _frob_row=frob_row,
        _exp=exp,
        _log=log,
    )


# ----------------------------------------------------------------------
# digit kernels: digit tuples in and out


def _mul_digits(p: int, e: int, modulus: Sequence[int], a, b) -> tuple[int, ...]:
    """The product of digit tuples a and b: their convolution, folded from
    the top through t^e = -(m_0 + m_1 t + .. + m_(e-1) t^(e-1))."""
    if e == 1:
        return ((a[0] * b[0]) % p,)
    conv = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for k in range(2 * e - 2, e - 1, -1):
        v = conv[k] % p
        if v:
            for i, m in enumerate(modulus[:e], k - e):
                if m:
                    conv[i] -= v * m
    return tuple(conv[i] % p for i in range(e))


def _inv_digits(p: int, e: int, modulus: Sequence[int], a) -> tuple[int, ...]:
    inv = fp.inv_mod(fp.trim(list(a)), list(modulus), p)
    return tuple(inv[i] if i < len(inv) else 0 for i in range(e))


def _frob_digits(p: int, e: int, modulus: Sequence[int], cache: dict, a, k: int) -> tuple[int, ...]:
    """a^(p^k) for 0 <= k < e, through the matrix of x -> x^(p^k): row i,
    the digits of (t^i)^(p^k), is cached in cache[k] on first use."""
    rows = cache.get(k)
    if rows is None:
        m = list(modulus)
        base = fp.pow_mod([0, 1], p**k, m, p)
        cur = [1]
        imgs = []
        for _ in range(e):
            imgs.append(tuple(cur[i] if i < len(cur) else 0 for i in range(e)))
            cur = fp.mod(fp.mul(cur, base, p), m, p)
        rows = cache[k] = tuple(imgs)
    out = [0] * e
    for i, d in enumerate(a):
        if d:
            img = rows[i]
            for r in range(e):
                out[r] += d * img[r]
    return tuple(c % p for c in out)
