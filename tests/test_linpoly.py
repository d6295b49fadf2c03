"""Additive polynomials: evaluation, composition, reduction, matrix view."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlin._linalg as la
from skewlin import FiniteField
from skewlin.errors import (
    ContextMismatchError,
    NotAPermutationError,
    SingularSystemError,
    TwistMismatchError,
)
from skewlin.hfe import lin_to_dense
from skewlin.linpoly import LinPoly
from skewlin.skew import NEG_INF

from oracles import matmul


def random_linpoly(field, rng, max_index, twist=1):
    n = rng.randrange(max_index + 1)
    coeffs = [field.random_element(rng) for _ in range(n + 1)]
    return LinPoly(field, coeffs, twist)


def test_construction_and_views(gf4):
    t = gf4.generator()
    zero = LinPoly.zero(gf4)
    assert zero.is_zero
    assert zero.degree == NEG_INF
    assert lin_to_dense(zero).degree == NEG_INF
    with pytest.raises(ValueError):
        zero.lead
    ident = LinPoly.one(gf4)
    assert ident.degree == 0
    assert lin_to_dense(ident).degree == 1
    mono = LinPoly.monomial(gf4, 2, t)
    assert mono.degree == 2
    assert lin_to_dense(mono).degree == 4  # p^(twist*2)
    assert mono.lead == t
    # trailing zeros are trimmed away
    assert LinPoly(gf4, [gf4.one(), gf4.zero()]).degree == 0


def test_constructor_validation(gf4, gf9):
    with pytest.raises(TwistMismatchError):
        LinPoly(gf4, [gf4.one()], twist=0)
    with pytest.raises(TwistMismatchError):
        LinPoly(gf4, [gf4.one()], twist=-1)
    with pytest.raises(ContextMismatchError):
        LinPoly(gf4, [gf9.one()])


def test_pointwise_additivity(gf16, gf27):
    for field in (gf16, gf27):
        rng = random.Random(20)
        for _ in range(15):
            L = random_linpoly(field, rng, 4)
            x = field.random_element(rng)
            y = field.random_element(rng)
            assert L(x + y) == L(x) + L(y)
            c = field.scalar(rng.randrange(field.p))
            assert L(c * x) == c * L(x)
            assert L(field.zero()) == field.zero()


def test_ring_ops_pointwise(gf8):
    rng = random.Random(21)
    for _ in range(15):
        L = random_linpoly(gf8, rng, 3)
        M = random_linpoly(gf8, rng, 3)
        for x in gf8.elements():
            assert (L + M)(x) == L(x) + M(x)
            assert (L - M)(x) == L(x) - M(x)
            assert (-L)(x) == -L(x)


def test_compose_matches_pointwise(gf8, gf9):
    for field in (gf8, gf9):
        rng = random.Random(22)
        for _ in range(15):
            L = random_linpoly(field, rng, 3)
            M = random_linpoly(field, rng, 3)
            C = L.compose(M)
            for x in field.elements():
                assert C(x) == L(M(x))


def test_compose_hand_values(gf4):
    t = gf4.generator()
    one = gf4.one()
    frob = LinPoly.monomial(gf4, 1, one)  # X^2
    assert frob.compose(frob).coeffs == (gf4.zero(), gf4.zero(), one)  # X^4
    tX = LinPoly(gf4, [t])
    # X^2 after tX picks up a frobenius twist on the inner coefficient
    assert frob.compose(tX) == LinPoly.monomial(gf4, 1, t * t)
    assert tX.compose(frob) == LinPoly.monomial(gf4, 1, t)


def test_identity_neutral(gf9):
    rng = random.Random(23)
    ident = LinPoly.one(gf9)
    for _ in range(10):
        L = random_linpoly(gf9, rng, 3)
        assert L.compose(ident) == L
        assert ident.compose(L) == L


def test_scale_pointwise(gf16):
    rng = random.Random(24)
    for _ in range(10):
        L = random_linpoly(gf16, rng, 3)
        c = gf16.random_element(rng)
        S = L.left_scalar(c)
        x = gf16.random_element(rng)
        assert S(x) == c * L(x)


def test_reduce_hand_value(gf4):
    one = gf4.one()
    zero = gf4.zero()
    # X^4 + X^2 folds through X^4 = X to X + X^2
    L = LinPoly(gf4, [zero, one, one])
    R = L.reduce()
    assert R.coeffs == (one, one)
    assert R.twist == 1


def test_reduce_preserves_function(gf8, gf27):
    for field in (gf8, gf27):
        rng = random.Random(25)
        for _ in range(10):
            L = random_linpoly(field, rng, 6)
            R = L.reduce()
            assert R.degree < field.e or R.is_zero
            assert R.reduce() == R
            for x in field.elements():
                assert R(x) == L(x)


def test_twist2_compose_and_reduce(gf16):
    rng = random.Random(27)
    for _ in range(10):
        L = random_linpoly(gf16, rng, 3, twist=2)
        M = random_linpoly(gf16, rng, 3, twist=2)
        C = L.compose(M)
        assert C.twist == 2
        for x in gf16.elements():
            assert C(x) == L(M(x))
            assert L.reduce()(x) == L(x)


def test_matrix_hand_value(gf4):
    frob = LinPoly.monomial(gf4, 1, gf4.one())  # X^2
    assert frob.to_matrix() == ((1, 1), (0, 1))
    ident = LinPoly.one(gf4)
    assert ident.to_matrix() == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "field",
    [
        FiniteField(2, 4, basis=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))),
        FiniteField(3, 3, basis=((1, 2, 0), (0, 1, 1), (2, 0, 1))),
    ],
    ids=["gf16-basis", "gf27-basis"],
)
def test_matrix_columns_are_basis_images(field):
    # to_matrix reads the cached basis Frobenius table (element indices),
    # never evaluating L
    assert field.basis_frobenius() == tuple(
        tuple(b.frobenius(k).as_int() for k in range(field.e)) for b in field.basis
    )
    rng = random.Random(31)
    for twist in (1, 2):
        for _ in range(8):
            L = random_linpoly(field, rng, 2 * field.e, twist)
            M = L.to_matrix()
            for s, b in enumerate(field.basis):
                assert tuple(row[s] for row in M) == field.coordinates(L(b))


def test_matrix_roundtrip(gf8, gf9):
    for field in (gf8, gf9):
        rng = random.Random(28)
        for _ in range(10):
            L = random_linpoly(field, rng, 4)
            M = L.to_matrix()
            back = LinPoly.from_matrix(field, M)
            assert back == L.reduce()


def test_matrix_of_composition(gf8):
    rng = random.Random(29)
    for _ in range(10):
        L = random_linpoly(gf8, rng, 3)
        M = random_linpoly(gf8, rng, 3)
        prod = matmul(
            [list(r) for r in L.to_matrix()], [list(r) for r in M.to_matrix()], gf8.p
        )
        assert tuple(tuple(r) for r in prod) == L.compose(M).to_matrix()


def _trace(x):
    acc = x
    for k in range(1, x.field.e):
        acc = acc + x.frobenius(k)
    return acc


def _check_matrix_oracle(field, M):
    """from_matrix against the evaluation path (to_matrix) and, for an
    invertible M, inverse() against composition with L."""
    L = LinPoly.from_matrix(field, M)
    assert L.twist == 1 and L.degree < field.e
    assert L.to_matrix() == tuple(tuple(r) for r in M)
    if la.inv(M, field.p) is None:
        with pytest.raises(NotAPermutationError):
            L.inverse()
        return False
    ident = LinPoly.one(field)
    inv = L.inverse()
    assert inv.compose(L).reduce() == ident
    assert L.compose(inv).reduce() == ident
    return True


ORACLE_FIELDS = {
    "gf4": (2, 2, None),
    "gf8": (2, 3, None),
    "gf9": (3, 2, None),
    "gf8-basis": (2, 3, [(1, 1, 0), (0, 1, 1), (1, 1, 1)]),
    "gf9-basis": (3, 2, [(1, 2), (2, 2)]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_from_matrix_inverse_oracle_exhaustive(name):
    p, e, basis = ORACLE_FIELDS[name]
    field = FiniteField(p, e, basis=basis)
    assert field._default_basis == (basis is None)
    dual = [field.from_int(row[0]) for row in field.dual_frobenius()]
    for i, b in enumerate(field.basis):
        for j, d in enumerate(dual):
            assert _trace(b * d) == field.scalar(int(i == j))
    invertible = 0
    for digits in itertools.product(range(p), repeat=e * e):
        M = [list(digits[r * e:(r + 1) * e]) for r in range(e)]
        invertible += _check_matrix_oracle(field, M)
    # |GL_e(Z_p)|: every invertible matrix was reached
    order = 1
    for k in range(e):
        order *= p**e - p**k
    assert invertible == order


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3, 7]), data=st.data())
def test_matrix_inverse_matches_rank(p, data):
    n = data.draw(st.integers(1, 8))
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a = data.draw(st.lists(entries, min_size=n, max_size=n))
    if data.draw(st.booleans()):  # row i a multiple of row j, singular unless i == j
        i, j, c = (data.draw(st.integers(0, m)) for m in (n - 1, n - 1, p - 1))
        a[i] = [c * x % p for x in a[j]]
    rows = [list(r) for r in a]
    b = la.inv(a, p)
    assert a == rows
    assert (b is None) == (la.rank(a, p) < n)
    if b is not None:
        assert matmul(b, a, p) == la.identity(n)
        assert matmul(a, b, p) == la.identity(n)


@pytest.mark.parametrize("p, e, samples", [(2, 8, 4), (3, 6, 4), (2, 20, 2)])
def test_from_matrix_inverse_oracle_sampled(p, e, samples):
    field = FiniteField(p, e)
    rng = random.Random(p * 100 + e)
    dual = [field.from_int(row[0]) for row in field.dual_frobenius()]
    for i in rng.sample(range(e), 3):
        for j in rng.sample(range(e), 3):
            assert _trace(field.basis[i] * dual[j]) == field.scalar(int(i == j))
    invertible = 0
    while invertible < samples:  # singular draws are checked on the way
        M = [[rng.randrange(p) for _ in range(e)] for _ in range(e)]
        invertible += _check_matrix_oracle(field, M)


def test_from_matrix_validation(gf4):
    with pytest.raises(SingularSystemError):
        LinPoly.from_matrix(gf4, [[1, 0]])
    with pytest.raises(SingularSystemError):
        LinPoly.from_matrix(gf4, [[1], [0]])


def test_permutation_detection(gf8, gf9):
    for field in (gf8, gf9):
        rng = random.Random(30)
        for _ in range(20):
            L = random_linpoly(field, rng, 3)
            images = {L(x) for x in field.elements()}
            assert L.is_permutation() == (len(images) == field.q)


def test_inverse(gf8):
    rng = random.Random(31)
    ident = LinPoly.one(gf8)
    found = 0
    for _ in range(40):
        L = random_linpoly(gf8, rng, 3)
        if not L.is_permutation():
            with pytest.raises(NotAPermutationError):
                L.inverse()
            continue
        found += 1
        inv = L.inverse()
        assert inv.compose(L).reduce() == ident
        assert L.compose(inv).reduce() == ident
    assert found > 5


def test_frobenius_inverse(gf16):
    frob = LinPoly.monomial(gf16, 1, gf16.one())
    inv = frob.inverse()
    # the inverse of x -> x^2 is x -> x^8 over GF(16)
    assert inv == LinPoly.monomial(gf16, 3, gf16.one())


def test_kernel_poly_not_permutation(gf4):
    one = gf4.one()
    # X^2 + X kills the prime subfield
    L = LinPoly(gf4, [one, one])
    assert not L.is_permutation()
    assert L(gf4.one()) == gf4.zero()


def test_peer_errors(gf4, gf9):
    L4 = LinPoly.one(gf4)
    L9 = LinPoly.one(gf9)
    with pytest.raises(ContextMismatchError):
        L4 + L9
    with pytest.raises(TypeError):
        L4 + 1
    with pytest.raises(TwistMismatchError):
        LinPoly.one(gf4, twist=1) + LinPoly.one(gf4, twist=2)
    with pytest.raises(ContextMismatchError):
        L4(gf9.one())


def test_eq_hash_immutable(gf4):
    a = LinPoly.one(gf4)
    b = LinPoly.one(gf4)
    assert a == b and hash(a) == hash(b)
    assert a != LinPoly.one(gf4, twist=2)
    with pytest.raises(AttributeError):
        a.twist = 3
