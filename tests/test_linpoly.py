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

import oracles
from oracles import matmul


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


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
    assert (b is None) == (len(oracles.rref(a, p)[1]) < n)
    if b is not None:
        assert matmul(b, a, p) == identity(n)
        assert matmul(a, b, p) == identity(n)


def eliminated_rank(a, p):
    """The rank of a: how many of its columns the eliminator keeps."""
    add = la.eliminator(p)
    return sum(add(col) is None for col in la._columns(a, p))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_linalg_matches_rref_oracle(p, data):
    # rank and inv, on the incremental elimination, against the
    # entry-indexing loop of oracles.rref: non-square shapes, and
    # rank-deficient ones by copying a multiple of one row over another;
    # over F_2 up to 20 columns, the field cap's e, as the packed-int
    # path of the elimination runs there
    top = 20 if p == 2 else 7
    rows_n, cols_n = data.draw(st.integers(1, top)), data.draw(st.integers(1, top))
    entries = st.lists(st.integers(0, p - 1), min_size=cols_n, max_size=cols_n)
    a = data.draw(st.lists(entries, min_size=rows_n, max_size=rows_n))
    if data.draw(st.booleans()):
        i, j, c = (data.draw(st.integers(0, m)) for m in (rows_n - 1, rows_n - 1, p - 1))
        a[i] = [c * x % p for x in a[j]]
    rows = [list(r) for r in a]
    square = a if rows_n == cols_n else [r[:rows_n] + [0] * (rows_n - cols_n) for r in a]
    assert eliminated_rank(a, p) == len(oracles.rref(a, p)[1])
    assert la.inv(square, p) == oracles.inv(square, p)
    assert a == rows


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


INVERSION_FIELDS = {
    "gf2": (2, 1, None),
    "gf16": (2, 4, None),
    "gf256": (2, 8, None),
    "gf9": (3, 2, None),
    "gf729": (3, 6, None),
    "gf25": (5, 2, None),
    "gf7": (7, 1, None),
    "gf16-basis": (2, 4, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))),
    "gf27-basis": (3, 3, ((1, 2, 0), (0, 1, 1), (2, 0, 1))),
}


def inversion_cases(field, rng):
    """Additive polynomials over field, of twist 1 and 2 and up to twice
    the reduced length: random ones, the zero polynomial, and one with a
    kernel, K . A with K = X^p - a^(p-1) X killing a (the zero map when
    e = 1)."""
    p, e = field.p, field.e
    for twist in (1, 2):
        for _ in range(3):
            yield random_linpoly(field, rng, 2 * e - 1, twist)
    yield LinPoly.zero(field)
    a = field.random_element(rng, nonzero=True)
    K = LinPoly(field, [-(a ** (p - 1)), field.one()])
    yield K.compose(random_linpoly(field, rng, e - 1))


@pytest.mark.parametrize("name", sorted(INVERSION_FIELDS))
def test_inverse_against_value_table(name):
    # the inversion on basis images against L tabulated over the field:
    # L^-1(L(x)) = x for every x, is_permutation exactly when L is
    # injective, inverse_matrix the Z_p inverse of to_matrix, and
    # inverse the polynomial that matrix interpolates
    p, e, basis = INVERSION_FIELDS[name]
    field = FiniteField(p, e, basis=basis)
    rng = random.Random(sum(map(ord, name)))
    orbits = oracles.frobenius_orbits(field)
    kinds = set()
    for L in inversion_cases(field, rng):
        table = oracles.additive_table(L, orbits)
        injective = len(set(table)) == field.q
        kinds.add(injective)
        assert L.is_permutation() == injective
        m = la.inv([list(r) for r in L.to_matrix()], p)
        assert (m is not None) == injective
        if not injective:
            with pytest.raises(NotAPermutationError):
                L.inverse()
            with pytest.raises(NotAPermutationError):
                L.inverse_matrix()
            continue
        inv = L.inverse()
        assert inv.twist == 1 and inv.degree < e
        assert inv == LinPoly.from_matrix(field, m)
        assert L.inverse_matrix() == tuple(map(tuple, m))
        back = oracles.additive_table(inv, orbits)
        assert [back[y.as_int()] for y in table] == list(field.elements())
    assert kinds == {False, True}


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
