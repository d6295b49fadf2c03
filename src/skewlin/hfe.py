"""Dembowski-Ostrom polynomials, a desk-scale HFE scheme, and its attack.

A DO polynomial is sum c_ij X^(p^i + p^j) plus an additive part plus a
constant: every exponent has base-p digit sum at most 2.  It is stored as
one dict from exponent to coefficient index, so the algebra is exponent
arithmetic on the field's index kernels; the quadratic and additive parts
are decoded once, when the polynomial is built.  Sums, negation,
reduction and compositions carry each term's indices along with its
exponent, from the parts their operands already hold, so only a
polynomial built from bare exponents (DOPoly._of) decodes them, by base-p
digits.  Evaluation groups the terms by Frobenius rows, sum_i x^(p^i)
(l_i + sum_j c_ij x^(p^j)): one field product per quadratic term and one
per nonzero row, at most |quad| + e in all.  In characteristic 2 a
diagonal pair is the carry 2^i + 2^i = 2^(i+1), an additive exponent.
Composing with X^(p^k) multiplies exponents by p^k, and reduce() folds
each exponent x >= 1 through x^q = x to (x - 1) mod (q - 1) + 1.  A
reduced polynomial has ordinary degree below q, so reduce() returns it as
it is, and two reduced polynomials are equal exactly when they agree as
functions.

The difference operator t -> t(X + a) - t(X) - t(a) sends a constant-free
DO polynomial to an additive polynomial in X, computed symbolically here
and cross-checkable against the dense route in fqpoly.  A constant term
c would contribute -c, which no additive polynomial matches, so
difference_poly insists on a zero constant.  check_do_shape goes the
other way: it looks each exponent of a dense polynomial of degree below
q up in the table of DO slots (the one key generation draws from), and
when one has no slot it exhibits a concrete additivity failure of
x -> f(x+a) - f(x) - f(a) + f(0) for some shift a.

The HFE scheme publishes E = S . D . T for secret additive permutations
S, T and a secret constant-free DO core D of ordinary degree at most a
bound d.  Key generation composes S and T with D on exponents folded
as the sums accumulate.  Decryption runs on basis coordinates over Z_p
from start to finish (hfe_decrypt): S and T are inverted as Z_p
matrices, and the preimages of D come from a table built once by a
modular Gray-code walk of the whole field through D's coordinate forms
(HFESecretKey.core_table), so field size is capped by a policy bound.
The attack takes greatest common left
divisor factors of difference polynomials of E (they share the left
factor S), and tries to peel a candidate left factor off E leaving a
low-degree core; a recovered pair decrypts as the secret key
(left, core, 1).  Reduction modulo x^q - x does not always respect exact
left divisibility, so honest instances may resist; failures are
reported, never hidden.

Both keys are records that compare and hash by their key material, and
like DOPoly and SkewPoly they are Frozen: no slot can be set or deleted.
The public key is E alone; its coordinate quadratic forms over Z_p are
derived from E on first use.  The secret key is S, D, T and the bound;
the inverse matrices of S and T and the core table are built on first
use.  Each of these caches is filled once, through Frozen._cached, and
stays with the key that built it: a copy or a pickle starts without it.
A key pair is consistent when S . D . T, composed as key generation
composes it (S and T reduced first, exponents folded), equals E reduced
(HFEKeyPair.is_consistent): both sides are reduced, so they are equal
exactly when they agree as maps.  Loading a key pair checks this.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import _graywalk, _linalg
from ._record import Frozen, Record
from .errors import (
    AttackFailedError,
    ContextMismatchError,
    DegreeBoundTooSmallError,
    DegreeTooLargeError,
    InvariantError,
    NotAPermutationError,
    PolicyBoundError,
    ShapeViolationError,
    TwistMismatchError,
)
from .fields import FiniteField, FqElem, _pack
from .fqpoly import FqPoly
from .skew import NEG_INF, Matrix, SkewPoly, gcldf

POLICY_MAX_Q = 1 << 16


def _indices(x: int, p: int) -> tuple[int, ...]:
    """The indices of exponent x by its base-p digits, with multiplicity:
    p^i + p^j (i <= j) gives (i, j), p^k gives (k,) and 0 gives ()."""
    out: list[int] = []
    k = 0
    while x:
        x, d = divmod(x, p)
        out += [k] * d
        k += 1
    return tuple(out)


def _sum_terms(field: FiniteField, pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Exponent (or Frobenius row) -> sum of the coefficient indices paired
    with it; each sum starts from its first term, and zero sums drop."""
    add = field._add
    acc: dict[int, int] = {}
    for x, c in pairs:
        prev = acc.get(x)
        acc[x] = add(prev, c) if prev else c
    return {x: c for x, c in acc.items() if c}


class DOPoly(Frozen):
    """sum_x c_x X^x over exponents with base-p digit sum at most 2: the
    constant 0, additive p^k and quadratic p^i + p^j.

    _t maps each exponent to its nonzero coefficient's element index.  The
    constructor takes the parts (index pairs, a twist-1 additive SkewPoly,
    a constant) and adds each term at its exponent, so in characteristic 2
    a diagonal pair is the carry 2^i + 2^i = 2^(i+1), additive index i + 1.
    The parts are decoded once, at construction: _q holds the quadratic
    (i, j, index) triples and _l the additive indices by k.  terms, quad,
    lin and const wrap them as field elements.  A DOPoly is Frozen: no
    slot can be set or deleted, and it hashes by field and terms.
    """

    __slots__ = ("field", "_t", "_q", "_l")

    def __init__(
        self,
        field: FiniteField,
        quad: Mapping[tuple[int, int], FqElem],
        lin: Optional[SkewPoly] = None,
        const: Optional[FqElem] = None,
    ):
        if lin is None:
            lin = SkewPoly.zero(field)
        if const is None:
            const = field.zero()
        if lin.field != field:
            raise ContextMismatchError("additive part belongs to a different field")
        if lin.twist != 1:
            raise TwistMismatchError("additive part of a DO polynomial must have twist 1")
        if not isinstance(const, FqElem) or const.field != field:
            raise ContextMismatchError("constant term belongs to a different field")
        p = field.p
        pairs = [(0, const._n, (), 0)] + [(p**k, c, (k,), 0) for k, c in enumerate(lin._c)]
        for (i, j), c in quad.items():
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise ValueError(f"quad indices must be ints >= 0, got {(i, j)!r}")
            if not isinstance(c, FqElem) or c.field != field:
                raise ContextMismatchError("quad coefficient belongs to a different field")
            pairs.append((p**i + p**j, c._n, (i, j), 0))
        self._set(field, pairs)

    @classmethod
    def _of(cls, field: FiniteField, pairs) -> "DOPoly":
        """sum c X^x over the (x, c) index pairs, each exponent's indices
        read off its base-p digits."""
        p = field.p
        return cls._summed(field, [(x, c, _indices(x, p), 0) for x, c in pairs])

    @classmethod
    def _summed(cls, field: FiniteField, pairs, fold: bool = False) -> "DOPoly":
        return object.__new__(cls)._set(field, pairs, fold)

    def _parts(self) -> list[tuple[int, int, tuple[int, ...], int]]:
        """The terms as _set pairs (x, c, idx, 0): the constant, the
        additive and the quadratic terms, with the indices they were
        decoded to."""
        p = self.field.p
        const = self._t.get(0)
        out = [(0, const, (), 0)] if const else []
        out += [(p**k, c, (k,), 0) for k, c in enumerate(self._l) if c]
        out += [(p**i + p**j, c, (i, j), 0) for i, j, c in self._q]
        return out

    def _set(self, field, pairs, fold=False) -> "DOPoly":
        """Sum the (x, c, idx, k) pairs, each the term c X^x whose exponent
        x = sum_(i in idx) p^(i + k) has digit sum <= 2: the indices idx of
        an operand's term, shifted by the k of a composition with
        X^(p^k).  With fold each x is first folded through X^q = X (x >= 1
        to (x - 1) mod (q - 1) + 1), and its indices mod e with it.

        A term's parts come from the indices of its first pair, so no
        exponent is decoded and no table of DO slots is built: a pair
        (i, j) is quadratic, (k,) additive, except that in characteristic
        2 an equal pair (i, i) is the carry 2^i + 2^i = 2^(i+1), whose
        additive index is read off x itself (folded, 2^(e-1) + 2^(e-1) = q
        wraps to X).
        """
        p, e, m = field.p, field.e, field.q - 1
        sums, first = [], {}
        for x, c, idx, k in pairs:
            if fold and x:
                x = (x - 1) % m + 1
            sums.append((x, c))
            if x not in first:
                first[x] = idx, k
        terms = _sum_terms(field, sums)
        quad, lin = [], {}
        for x, c in terms.items():
            idx, k = first[x]
            ids = [(i + k) % e if fold else i + k for i in idx]
            if len(ids) == 2 and ids[0] == ids[1] and p == 2:
                ids = [x.bit_length() - 1]  # the carry: x is 2^(i+1)
            if len(ids) == 2:
                quad.append((min(ids), max(ids), c))
            elif ids:
                lin[ids[0]] = c
        lin = tuple(lin.get(k, 0) for k in range(max(lin, default=-1) + 1))
        for name, v in zip(DOPoly.__slots__, (field, terms, tuple(quad), lin)):
            object.__setattr__(self, name, v)
        return self

    def __reduce__(self):
        return DOPoly._of, (self.field, tuple(self._t.items()))

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField) -> "DOPoly":
        return cls(field, {})

    @property
    def terms(self) -> Mapping[int, FqElem]:
        """Exponent -> nonzero coefficient, read-only."""
        field = self.field
        return MappingProxyType({x: FqElem(field, c) for x, c in self._t.items()})

    @property
    def quad(self) -> dict[tuple[int, int], FqElem]:
        """The quadratic terms c X^(p^i + p^j), keyed by (i, j) with i <= j."""
        field = self.field
        return {(i, j): FqElem(field, c) for i, j, c in self._q}

    @property
    def lin(self) -> SkewPoly:
        """The additive part, a twist-1 SkewPoly."""
        return SkewPoly._of(self.field, self._l, 1)

    @property
    def const(self) -> FqElem:
        return FqElem(self.field, self._t.get(0, 0))

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def has_quadratic(self) -> bool:
        return bool(self._q)

    @property
    def degree(self):
        return max(self._t, default=NEG_INF)

    def __eq__(self, other) -> bool:
        return isinstance(other, DOPoly) and self.field == other.field and self._t == other._t

    def __hash__(self) -> int:
        return hash((self.field, frozenset(self._t.items())))

    def __repr__(self) -> str:
        terms = {x: list(self.field._digits(c)) for x, c in sorted(self._t.items())}
        return f"DOPoly(terms={terms})"

    def __add__(self, other: "DOPoly") -> "DOPoly":
        if not isinstance(other, DOPoly):
            raise TypeError(f"expected DOPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise ContextMismatchError("polynomials over different fields")
        return DOPoly._summed(self.field, self._parts() + other._parts())

    def __neg__(self) -> "DOPoly":
        neg = self.field._neg
        parts = [(x, neg(c), idx, k) for x, c, idx, k in self._parts()]
        return DOPoly._summed(self.field, parts)

    def __sub__(self, other: "DOPoly") -> "DOPoly":
        return self + (-other)

    def __call__(self, x: FqElem) -> FqElem:
        """const + sum_i x^(p^i) row_i with row_i = l_i + sum_j c_ij x^(p^j),
        indices taken mod e on the orbit x^(p^k), k < e, read once: one
        product per quadratic term and one per nonzero row, at most
        |quad| + e in all."""
        field, e = self.field, self.field.e
        n = field._index_of(x, "evaluation point")
        mul, add = field._mul, field._add
        orbit = [field._frob(n, k) for k in range(e)]
        lin = [(k % e, c) for k, c in enumerate(self._l) if c]
        rows = _sum_terms(field, lin + [(i % e, mul(c, orbit[j % e])) for i, j, c in self._q])
        acc = self._t.get(0, 0)
        for v in [mul(orbit[i], r) for i, r in rows.items()]:
            acc = add(acc, v) if acc else v
        return FqElem(field, acc)

    def reduce(self) -> "DOPoly":
        """Fold every exponent through X^q = X; the result has degree below q.

        Below degree q folding is the identity, so self is returned.
        Folding keeps the digit sum at most 2: p^i + p^j goes to
        p^(i mod e) + p^(j mod e), except that in characteristic 2 the
        carry 2^(e-1) + 2^(e-1) = q wraps to the additive X.
        """
        if self.degree < self.field.q:
            return self
        return DOPoly._summed(self.field, self._parts(), fold=True)

    def to_fqpoly(self) -> FqPoly:
        """Dense form, one coefficient per exponent."""
        return FqPoly.from_monomials(self.field, self.terms)


def lin_to_dense(L: SkewPoly) -> FqPoly:
    field = L.field
    p = field.p
    return FqPoly.from_monomials(
        field, {p ** (L.twist * i): FqElem(field, c) for i, c in enumerate(L._c) if c}
    )


# ----------------------------------------------------------------------
# difference operator


def difference_poly(t: DOPoly, a: FqElem) -> SkewPoly:
    """Symbolic t(X + a) - t(X) - t(a) as a twist-1 additive polynomial.

    The additive part of t drops out exactly and each quadratic term
    polarises into two additive terms, c a^(p^j) X^(p^i) and
    c a^(p^i) X^(p^j) (for odd p a diagonal gives 2 c a^(p^i) X^(p^i)),
    read off the orbit of a under Frobenius.  A nonzero constant would
    leave the non-additive remainder -const, so it is rejected.
    """
    n = t.field._index_of(a, "shift")
    if 0 in t._t:
        raise ShapeViolationError(
            "difference of a polynomial with a nonzero constant term is not additive"
        )
    field = t.field
    mul, add, frob = field._mul, field._add, field._frob
    top = max([j for _, j, _ in t._q], default=-1)  # i <= j in each triple
    orbit = [frob(n, k) for k in range(top + 1)]  # a^(p^k), k read mod e
    acc = [0] * (top + 1)
    for i, j, c in t._q:
        v, prev = mul(c, orbit[j]), acc[i]
        acc[i] = add(prev, v) if prev else v
        v, prev = mul(c, orbit[i]), acc[j]
        acc[j] = add(prev, v) if prev else v
    return SkewPoly._of(field, acc, 1)


def dense_difference(f: FqPoly, a: FqElem) -> FqPoly:
    """f(X + a) - f(X) - f(a) on dense polynomials, the brute-force route."""
    return f.shift(a) - f - FqPoly.constant(f(a))


# ----------------------------------------------------------------------
# shape recognition


class FailedLinearity(Record):
    """Concrete additivity failure: g(x + y) != g(x) + g(y) for the shift a;
    fields a, x and y (FqElem)."""

    __slots__ = ("a", "x", "y")


class DOShapeResult(Record):
    """Fields ok (bool), value (Optional[DOPoly]), offender (Optional[int])
    and witness (Optional[FailedLinearity])."""

    __slots__ = ("ok", "value", "offender", "witness")


def _do_slots(p: int, e: int) -> dict[int, tuple[int, ...]]:
    """Each exponent below p^e a DO + additive polynomial carries, to its
    indices: (i, j) with i <= j in (i, j) order, then (k,) by k.  For p = 2
    the diagonal 2^i + 2^i = 2^(i+1) is additive and has no (i, i) slot;
    without it, base-p digits give every exponent one slot."""
    slots = {p**i + p**j: (i, j) for i in range(e) for j in range(i, e) if p > 2 or i < j}
    slots.update({p**k: (k,) for k in range(e)})
    return slots


def check_do_shape(f: FqPoly) -> DOShapeResult:
    """Decide whether f is DO + additive + constant, with evidence either way.

    Requires deg f < q.  On success the parsed structure is returned; on
    failure the smallest offending exponent is reported together with a
    pointwise witness (a, x, y) against additivity of the centred
    difference g(x) = f(x+a) - f(x) - f(a) + f(0), which the shape
    characterisation guarantees to exist below degree q.  The search reads
    one table F of f's values, g(x) = F[x + a] - F[x] - F[a] + F[0], and
    tries a, then x, then y in element-index order; F and g are lists by
    element index.
    """
    field = f.field
    q = field.q
    if f.degree != NEG_INF and f.degree >= q:
        raise DegreeTooLargeError(f"shape check needs degree < {q}, got {f.degree}")
    slots = _do_slots(field.p, field.e)
    terms = f.monomials()
    offender = next((x for x in sorted(terms) if x and x not in slots), None)
    if offender is None:
        pairs = [(x, c._n, slots[x] if x else (), 0) for x, c in terms.items()]
        value = DOPoly._summed(field, pairs)
        return DOShapeResult(ok=True, value=value, offender=None, witness=None)
    xs = list(field.elements())
    F = [f(x) for x in xs]
    for a in xs[1:]:
        shift = F[a.as_int()] - F[0]
        g = [F[(x + a).as_int()] - F[n] - shift for n, x in enumerate(xs)]
        for x in xs:
            for y in xs:
                if g[(x + y).as_int()] != g[x.as_int()] + g[y.as_int()]:
                    return DOShapeResult(
                        ok=False,
                        value=None,
                        offender=offender,
                        witness=FailedLinearity(a=a, x=x, y=y),
                    )
    raise InvariantError("structural offender without a pointwise witness")


# ----------------------------------------------------------------------
# composition with additive polynomials


def do_compose_lin(L: SkewPoly, D: DOPoly, side: str, reduce: bool = False) -> DOPoly:
    """Compose an additive polynomial with a DO polynomial, symbolically.

    side='left' gives L(D(X)); side='right' gives D(L(X)).  Both stay in
    DO + additive + constant shape.  With L = sum_k b_k X^(p^k), raising
    to p^k multiplies exponents by p^k, so on the left each term c X^x of
    D becomes sum_k b_k c^(p^k) X^(x p^k), the constant included.  On the
    right each index i of a term's exponent is expanded through the row
    X^(p^i) -> sum_k b_k^(p^i) X^(p^(k+i)), built once per distinct index,
    so c X^(p^i + p^j) becomes sum_(k,m) c b_k^(p^i) b_m^(p^j)
    X^(p^(k+i) + p^(m+j)).  Each exponent's sum starts from its first
    term, and each term carries its indices: on the left those of D's
    term shifted by k, on the right (k+i, m+j).  With reduce=True
    exponents and indices fold through X^q = X as the sums accumulate,
    and the result is reduced.
    """
    if L.field != D.field:
        raise ContextMismatchError("operands over different fields")
    if L.twist != 1:
        raise TwistMismatchError("composition requires a twist-1 additive polynomial")
    field = D.field
    p, mul, frob = field.p, field._mul, field._frob
    terms = [(k, b) for k, b in enumerate(L._c) if b]
    if side == "left":
        pairs = [
            (x * p**k, mul(b, frob(c, k)), idx, k) for x, c, idx, _ in D._parts() for k, b in terms
        ]
    elif side == "right":
        rows: dict[int, list[tuple[int, int, tuple[int]]]] = {}
        pairs = []
        for _, c, idx, _ in D._parts():
            parts = [(0, c, (), 0)]
            for i in idx:
                if i not in rows:
                    rows[i] = [(p ** (k + i), frob(b, i), (k + i,)) for k, b in terms]
                parts = [
                    (y + z, mul(v, w), ix + iz, 0) for y, v, ix, _ in parts for z, w, iz in rows[i]
                ]
            pairs += parts
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return DOPoly._summed(field, pairs, reduce)


# ----------------------------------------------------------------------
# multivariate view


class MultivariateKey(Record):
    """Per-coordinate quadratic forms over Z_p in the basis coordinates.

    Writing X = sum x_s basis_s, coordinate k of E(X) is
    const[k] + sum lin[k][s] x_s + sum quad[k][(s,t)] x_s x_t mod p.
    For p = 2 squares are reduced via x^2 = x, so diagonal pairs vanish.
    Fields p, n_vars, quad (dicts, one per coordinate), lin and const;
    compared by value, unhashable.
    """

    __slots__ = ("p", "n_vars", "quad", "lin", "const")
    __hash__ = None

    @property
    def max_terms(self) -> int:
        return max(
            len(quad) + len(lin) + (1 if c else 0)
            for quad, lin, c in zip(self.quad, self.lin, self.const)
        )

    def evaluate(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(coords)}")
        p = self.p
        xs = [c % p for c in coords]
        out = []
        for k in range(self.n_vars):
            v = self.const[k]
            for s, c in self.lin[k].items():
                v += c * xs[s]
            for (s, t), c in self.quad[k].items():
                v += c * xs[s] * xs[t]
            out.append(v % p)
        return tuple(out)

    def __repr__(self) -> str:
        return f"MultivariateKey(p={self.p}, n_vars={self.n_vars}, max_terms={self.max_terms})"


def to_multivariate(E: DOPoly) -> MultivariateKey:
    """Expand a (reduced) DO polynomial into coordinate quadratic forms.

    With X = sum x_s b_s, x_s x_t has coefficient sum_i b_s^(p^i) G_i(t),
    G_i(t) = sum_j c_ij b_t^(p^j): |quad|·e + e^3 products, not |quad|·e^2.
    """
    E = E.reduce()
    field = E.field
    e, p = field.e, field.p
    mul, add, addmul = field._mul, field._add, field._addmul
    cols = field._frobenius_columns()  # cols[j][t] = b_t^(p^j)
    G: dict[int, list[int]] = {}
    for i, j, c in E._q:
        addmul(G.setdefault(i, [0] * e), c, cols[j], 0)
    qcoef: dict[tuple[int, int], int] = {}
    for i, row in G.items():
        for s in range(e):
            bs = cols[i][s]
            for t in range(e):
                key = (s, t) if s <= t else (t, s)
                v, prev = mul(bs, row[t]), qcoef.get(key)
                qcoef[key] = add(prev, v) if prev else v
    quad_out: list[dict[tuple[int, int], int]] = [dict() for _ in range(e)]
    # row k, column s of the matrix is coordinate k of E.lin(basis_s)
    lin_out = [{s: c for s, c in enumerate(row) if c} for row in E.lin.to_matrix()]
    for (s, t), v in qcoef.items():
        coords = field._coordinates(v)
        for k in range(e):
            d = coords[k]
            if not d:
                continue
            if s == t and p == 2:
                lin_out[k][s] = (lin_out[k].get(s, 0) + d) % p
            else:
                quad_out[k][(s, t)] = d
    const_out = field._coordinates(E._t.get(0, 0))
    lin_out = [{s: c for s, c in d.items() if c} for d in lin_out]
    return MultivariateKey(
        p=p,
        n_vars=e,
        quad=tuple(quad_out),
        lin=tuple(lin_out),
        const=tuple(const_out),
    )


# ----------------------------------------------------------------------
# HFE keys


class HFEPublicKey(Record):
    """Field poly, the public map E (DOPoly); its coordinate forms are
    derived from it on first use and cached in _multivariate, which copies
    leave behind.  Two public keys are equal, and hash alike, when their E
    are equal."""

    __slots__ = ("poly", "_multivariate")

    @property
    def field(self) -> FiniteField:
        return self.poly.field

    @property
    def multivariate(self) -> MultivariateKey:
        return self._cached("_multivariate", lambda: to_multivariate(self.poly))

    def __repr__(self) -> str:
        return f"HFEPublicKey(field={self.field!r}, degree={self.poly.degree})"


class HFESecretKey(Record):
    """Fields field, outer, core, inner and bound: outer . core . inner
    with additive permutations (SkewPoly) around a DO core (DOPoly), all
    three over field, and the core's degree bound (int).  Decryption reads
    Z_p matrices of the inverses of outer and inner and a core table of
    coordinate-vector indices only; the three are cached on first use in
    _outer_inv, _inner_inv and _table, which equality, hashing, copies and
    pickles leave out.
    """

    __slots__ = ("field", "outer", "core", "inner", "bound", "_outer_inv", "_inner_inv", "_table")

    def __init__(
        self, field: FiniteField, outer: SkewPoly, core: DOPoly, inner: SkewPoly, bound: int
    ):
        if any(layer.field != field for layer in (outer, core, inner)):
            raise ContextMismatchError("secret key layers over different fields")
        super().__init__(field, outer, core, inner, bound)

    def outer_inverse(self) -> Matrix:
        return self._cached("_outer_inv", self.outer.inverse_matrix)

    def inner_inverse(self) -> Matrix:
        return self._cached("_inner_inv", self.inner.inverse_matrix)

    def core_table(self, max_q: Optional[int] = None) -> dict[int, list[int]]:
        """The core's preimages by coordinates: the index of an image's
        coordinate vector to the sorted indices of its preimages'
        coordinate vectors (vector n holds the base-p digits of n).

        Built on first use by a modular Gray-code walk of the coordinate
        vectors (_graywalk.preimage_table) through the core's coordinate
        forms over Z_p: one step per element, each a few int operations.
        A field larger than max_q (default POLICY_MAX_Q) is refused, built
        table or not.  The table lives on this key only: a copy or pickle
        of the key starts without it, and decrypt_with_factors builds a
        fresh key, and so a fresh table, per call.
        """
        cap = POLICY_MAX_Q if max_q is None else max_q
        if self.field.q > cap:
            raise PolicyBoundError(f"field size {self.field.q} exceeds decrypt cap {cap}")
        p, e = self.field.p, self.field.e
        return self._cached(
            "_table", lambda: _graywalk.preimage_table(p, e, to_multivariate(self.core).evaluate)
        )

    def __repr__(self) -> str:
        return f"HFESecretKey(field={self.field!r}, bound={self.bound})"


class HFEKeyPair(Record):
    """Fields public (HFEPublicKey) and secret (HFESecretKey), over one
    field; compared by the key material of both halves."""

    __slots__ = ("public", "secret")

    def __init__(self, public: HFEPublicKey, secret: HFESecretKey):
        if public.field != secret.field:
            raise ContextMismatchError("public and secret keys over different fields")
        super().__init__(public, secret)

    def is_consistent(self) -> bool:
        """Whether the secret half composes to the public map: S . D . T = E.

        The secret side is composed as hfe_keygen composes it, and E is
        reduced; two reduced DO polynomials are equal exactly when they
        agree as maps of the field, so this compares the maps.
        """
        return _public_map(self.secret) == self.public.poly.reduce()


def _public_map(secret: HFESecretKey) -> DOPoly:
    """S . D . T, reduced: S and T are reduced first (a key file may hold
    them unreduced or with twist 2), and exponents fold as the sums
    accumulate."""
    inner = do_compose_lin(secret.inner.reduce(), secret.core, "right", reduce=True)
    return do_compose_lin(secret.outer.reduce(), inner, "left", reduce=True)


def _random_permutation_poly(field: FiniteField, rng: random.Random) -> SkewPoly:
    """A uniformly random additive permutation of degree below p^e, drawn
    until one permutes, or InvariantError after 1000 tries."""
    for _ in range(1000):
        L = SkewPoly(field, [field.random_element(rng) for _ in range(field.e)], 1)
        if not L.is_zero and L.is_permutation():
            return L
    raise InvariantError("failed to sample an additive permutation")


def _degree_bound(field: FiniteField, bound: Optional[int]) -> int:
    """The core degree bound: p^4 by default; below p^2 no core is quadratic."""
    p = field.p
    d = p**4 if bound is None else bound
    if d < p * p:
        raise DegreeBoundTooSmallError(f"degree bound {d} is below p^2 = {p * p}")
    return d


def hfe_keygen(
    field: FiniteField, rng: random.Random, degree_bound: Optional[int] = None
) -> HFEKeyPair:
    """Sample a key pair: E = outer . core . inner, reduced, constant-free.

    The core is a uniformly random constant-free DO polynomial supported
    on exponents at most degree_bound (default p^4), resampled until a
    genuinely quadratic term is present.
    """
    e = field.e
    d = _degree_bound(field, degree_bound)
    support = [idx for exp, idx in _do_slots(field.p, e).items() if exp <= d]
    pairs = [idx for idx in support if len(idx) == 2]
    lin_idx = [idx[0] for idx in support if len(idx) == 1]
    if not pairs:
        raise DegreeBoundTooSmallError(
            f"degree bound {d} admits no quadratic exponent for this field"
        )
    zero = field.zero()
    for _ in range(1000):
        quad = {pr: field.random_element(rng) for pr in pairs}
        coeffs = [zero] * e
        for k in lin_idx:
            coeffs[k] = field.random_element(rng)
        core = DOPoly(field, quad, SkewPoly(field, coeffs, 1), zero)
        if core.has_quadratic:
            break
    else:
        raise InvariantError("failed to sample a quadratic core")
    outer = _random_permutation_poly(field, rng)
    inner = _random_permutation_poly(field, rng)
    secret = HFESecretKey(field, outer, core, inner, d)
    E = _public_map(secret)
    if not E.has_quadratic or 0 in E._t:
        raise InvariantError("public key lost its quadratic part or gained a constant")
    return HFEKeyPair(HFEPublicKey(E), secret)


def hfe_encrypt(public: HFEPublicKey, m: FqElem) -> FqElem:
    public.field._index_of(m, "plaintext")
    return public.poly(m)


def hfe_decrypt(
    secret: HFESecretKey, y: FqElem, max_q: Optional[int] = None
) -> list[FqElem]:
    """All plaintexts mapping to y, sorted by element index.

    Everything runs on basis coordinates over Z_p: S^-1 is a matrix
    product, packed once into the index the core table is keyed by; the
    table gives the indices of the core's preimages, each is unpacked
    for T^-1, and only the final combine builds field elements.
    """
    secret.field._index_of(y, "ciphertext")
    field, p = secret.field, secret.field.p
    table = secret.core_table(max_q)
    z = _pack(p, _linalg.matvec(secret.outer_inverse(), field.coordinates(y), p))
    inner_inv = secret.inner_inverse()
    ms = [
        field.combine(_linalg.matvec(inner_inv, field._digits(u), p)) for u in table.get(z, [])
    ]
    return sorted(ms, key=lambda m: m.as_int())


# ----------------------------------------------------------------------
# key recovery


def try_left_factor(L: SkewPoly, E: DOPoly, bound: int) -> Optional[DOPoly]:
    """Peel a permutation L off E: the DO polynomial f with L . f = E (reduced).

    Returns the reduced f, or None when L does not permute the field
    (the zero polynomial included) or deg f exceeds the bound.

    L^-1 comes from L.inverse(), which is also the permutation test: it
    eliminates the basis images of L and interpolates their preimages,
    with no matrix built.  f = L^-1 . E and the recompose check L . f = E
    are left compositions that fold as they accumulate, each term's
    indices taken from the term of E or f it came from.

    A unit is decided by deg E alone: a reduced L of degree 0 is c X with
    c != 0, whose inverse c^-1 X scales each coefficient of the reduced E
    and keeps every exponent, so deg f = deg E and the peel fails exactly
    when deg E exceeds the bound; no inverse or composition is computed
    then.
    """
    if L.field != E.field:
        raise ContextMismatchError("operands over different fields")
    E = E.reduce()
    Lr = L.reduce()
    if Lr.degree == 0 and E.degree > bound:
        return None
    try:
        Lr_inv = Lr.inverse()
    except NotAPermutationError:
        return None
    f = do_compose_lin(Lr_inv, E, "left", reduce=True)
    if f.degree > bound:
        return None
    if do_compose_lin(Lr, f, "left", reduce=True) != E:
        raise InvariantError("left factor and core do not recompose to E")
    return f


def _shuffled_pops(n: int, rng: random.Random) -> Iterator[int]:
    """Yield 1 .. n in the order list.pop() takes them from
    random.shuffle(list(range(1, n + 1))), drawing only what each pop needs.

    A lazy Fisher-Yates (Durstenfeld's Algorithm 235): the m-th pop is step
    i = n - 1 - m of shuffle's loop, one rng.randrange(i + 1) (shuffle's
    _randbelow(i + 1)) while i > 0, with the swapped slots kept in a dict;
    slot k holds moved.get(k, k + 1).
    """
    moved: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        j = rng.randrange(i + 1) if i else 0
        yield moved.get(j, j + 1)
        moved[j] = moved.pop(i, i + 1)


class AttackResult(Record):
    """Fields left (SkewPoly), core (DOPoly) and rounds (int)."""

    __slots__ = ("left", "core", "rounds")


def gcldf_attack(
    E: DOPoly, bound: Optional[int], rng: random.Random, max_rounds: int = 16
) -> AttackResult:
    """Key recovery from common left divisor factors of differences of E.

    Differences of E = S . G share the additive left factor S, so their
    running greatest common left divisor factor L is refined with a fresh
    difference polynomial each round, and the attack tries to peel L off
    E leaving a core within the degree bound.  The peel depends on L
    alone, so it runs only when L has changed; once L is the unit 1 it
    left-divides every difference and stays 1, so the gcld is no longer
    recomputed.  The bound defaults to p^4, as in hfe_keygen.  Raises
    ValueError for max_rounds below 1, DegreeBoundTooSmallError for a
    bound below p^2, as hfe_keygen does, and AttackFailedError after
    max_rounds checks (or when fresh shift points run out).

    Shift points are drawn without replacement, in the order list.pop()
    takes the element indices 1 .. q-1 from after rng.shuffle, but lazily
    (_shuffled_pops): the k-th popped shift costs one rng.randrange(q - k),
    and the last of all q - 1 costs none.  So the attack draws only the
    shifts it uses: rng moves on by one draw per popped shift, not by the
    shuffle's q - 2.
    Shifts with a zero difference are skipped.  The map
    a -> difference_poly(E, a) is Z_p-linear and nonzero on a reduced E
    with a quadratic term, so its kernel is a proper additive subgroup
    and at most q/p - 1 nonzero shifts are skipped.  When
    q - q/p >= max_rounds + 1 the pool cannot run out, and a unit L whose
    peel failed decides the failure at once.
    That peel is itself decided by deg E alone (see try_left_factor): the
    unit c X leaves c^-1 E, of degree deg E, as the core, so an honest
    key whose gcld collapses to 1 costs no inversion, and gcldf hands
    back a unit gcld with no witness division (the attack reads only the
    gcld).  The recovered pair is verified to recompose to E before being
    returned.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    E = E.reduce()
    field = E.field
    p, q = field.p, field.q
    bound = _degree_bound(field, bound)
    if 0 in E._t:
        raise ShapeViolationError("attack input must be constant-free")
    if not E.has_quadratic:
        raise ShapeViolationError("attack input has no quadratic part")
    shifts = _shuffled_pops(q - 1, rng)  # element indices 1 .. q-1
    pool_lasts = q - q // p >= max_rounds + 1

    def next_delta(rounds_so_far: int) -> SkewPoly:
        for a in shifts:
            d = difference_poly(E, field.from_int(a))
            if not d.is_zero:
                return d
        raise AttackFailedError(rounds_so_far, "ran out of fresh shift points")

    L = gcldf(next_delta(0), next_delta(0))[0]
    peeled = None
    for r in range(1, max_rounds + 1):
        Lr = L.reduce()
        if Lr != peeled:
            f = try_left_factor(Lr, E, bound)
            if f is not None:
                return AttackResult(left=Lr, core=f, rounds=r)
            peeled = Lr
        unit = L.degree == 0
        if unit and pool_lasts:
            break
        if r < max_rounds:
            delta = next_delta(r)
            if not unit:
                L = gcldf(L, delta)[0]
    raise AttackFailedError(max_rounds)


def decrypt_with_factors(
    left: SkewPoly, core: DOPoly, y: FqElem, max_q: Optional[int] = None
) -> list[FqElem]:
    """Decrypt using a recovered factorisation E = left . core, as the
    secret key (left, core, 1); its bound, never read, is the core's degree."""
    one = SkewPoly.one(core.field)
    return hfe_decrypt(HFESecretKey(core.field, left, core, one, core.degree), y, max_q)
