"""Eigenrings, zero divisors, splitting, complete decomposition."""

import gc
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import skewlin._fppoly as fp
from skewlin import _linalg, decompose, skew
from skewlin.decompose import (
    ORACLE_LIMIT,
    EigenRing,
    Indecomposable,
    Split,
    SplitStats,
    _residue_table,
    _smallest_right_factor,
    _y_rows,
    _zero_divisor_pair,
    decompose_complete,
    eigen_ring,
    estimate_split_success,
    find_zero_divisor,
    minimal_polynomial,
    oracle_decompose,
    split_once,
)
from skewlin.errors import ContextMismatchError, InvariantError, TooLargeError, TwistMismatchError
from skewlin.fields import FiniteField
from skewlin.skew import SkewPoly

from oracles import factor_monic


def all_monic(field, degree, twist=1):
    """Every monic skew polynomial of exact degree, test-local enumeration."""
    for lows in itertools.product(range(field.q), repeat=degree):
        coeffs = [field.from_int(n) for n in lows] + [field.one()]
        yield SkewPoly(field, coeffs, twist)


def random_monic(field, rng, degree, twist=1):
    coeffs = [field.random_element(rng) for _ in range(degree)] + [field.one()]
    return SkewPoly(field, coeffs, twist)


def _eval_fp_poly(poly: list[int], u: SkewPoly, modulus: SkewPoly) -> SkewPoly:
    """Evaluate an F_p polynomial at the residue u, modulo modulus."""
    field = modulus.field
    acc = SkewPoly.zero(field, modulus.twist)
    for c in reversed(poly):
        acc = (acc * u).mod_right(modulus)
        if c:
            acc = acc + SkewPoly.one(field, modulus.twist).left_scalar(field.scalar(c))
    return acc


def times_right(u, modulus):
    """The product-built Krylov step a -> (a u) mod modulus, the oracle of
    the Krylov steps of minimal_polynomial."""
    return lambda a: (a * u).mod_right(modulus)


def eigen_ring_by_products(f):
    """E(f) from product-built columns (f b Y^i) mod f, the oracle of eigen_ring."""
    field = f.field
    n, e, p = len(f.coeffs) - 1, field.e, field.p
    cols = []
    for i in range(n):
        for d in range(e):
            digits = [0] * e
            digits[d] = 1
            u = SkewPoly.monomial(field, i, field.element(tuple(digits)), f.twist)
            cols.append(flat_digits((f * u).mod_right(f), n))
    rows = [[cols[j][r] for j in range(n * e)] for r in range(n * e)]
    basis = []
    for vec in oracles.nullspace(rows, p):
        coeffs = [field.element(tuple(vec[i * e : i * e + e])) for i in range(n)]
        basis.append(SkewPoly(field, coeffs, f.twist))
    return EigenRing(field, f, tuple(basis))


def unpacked(vec, f):
    """The residue modulo f whose F_p-vector minimal_polynomial returned as vec."""
    return SkewPoly._of(f.field, decompose._vectors(f.field, f.degree).unpack(vec), f.twist)


def residue(row, f):
    """The residue modulo f held in the index list row."""
    return SkewPoly._of(f.field, row, f.twist)


def plus_one(row, field):
    """The index list row + 1, a residue with its constant term moved."""
    return [field._add(row[0], 1), *row[1:]] if row else [1]


def flat_digits(u, n):
    """Digits of the residue u, n coefficients of e digits each, test-local."""
    e = u.field.e
    digits = [d for c in u.coeffs for d in c.digits]
    return digits + [0] * (n * e - len(digits))


def test_eigen_ring_dims_frozen(gf2, gf4):
    # E(Y) over GF(4) is the constant field, F_2-dimension 2
    Y4 = SkewPoly.monomial(gf4, 1, gf4.one())
    assert eigen_ring(Y4).dim == 2
    # over GF(2) the ring is plain F_2[Y]; E(Y^2) = F_2[Y]/(Y^2), dimension 2
    Y2sq = SkewPoly.monomial(gf2, 2, gf2.one())
    assert eigen_ring(Y2sq).dim == 2


def test_eigen_ring_membership_exhaustive(gf4):
    rng = random.Random(60)
    for _ in range(6):
        f = random_monic(gf4, rng, 2)
        E = eigen_ring(f)
        # brute-force count of residues u with f*u = 0 mod f
        members = 0
        for lows in itertools.product(range(4), repeat=2):
            u = SkewPoly(gf4, [gf4.from_int(n) for n in lows])
            if (f * u).mod_right(f).is_zero:
                members += 1
        assert members == 2**E.dim
        for b in E.basis:
            assert (f * b).mod_right(f).is_zero
            assert b.is_zero or b.degree < f.degree


def test_eigen_ring_closed_under_multiply(gf9):
    rng = random.Random(61)
    f = random_monic(gf9, rng, 3)
    E = eigen_ring(f)
    for _ in range(10):
        u = E.random_element(rng)
        v = E.random_element(rng)
        w = (u * v).mod_right(f)
        assert (f * w).mod_right(f).is_zero
        assert w.is_zero or w.degree < f.degree


def test_eigen_ring_needs_positive_degree(gf4):
    with pytest.raises(ValueError):
        eigen_ring(SkewPoly.one(gf4))
    with pytest.raises(ValueError):
        eigen_ring(SkewPoly.zero(gf4))


@pytest.mark.parametrize("checks", [True, False])
def test_minimal_polynomial_needs_a_residue_of_its_ring(gf4, gf16, checks, monkeypatch):
    # u must be a residue modulo the modulus, in the modulus's ring.  A u
    # of degree >= deg f has no Krylov rows to combine, so it is refused
    # by name before any step, with the multiply-backs on and off
    monkeypatch.setattr(skew, "CHECK_DIVISION", checks)
    f = random_monic(gf16, random.Random(61), 2)
    assert minimal_polynomial(SkewPoly.zero(gf16), f)[0] == [0, 1]
    for u in (random_monic(gf16, random.Random(62), 3), SkewPoly.monomial(gf16, 2, gf16.one())):
        with pytest.raises(ValueError, match="deg u < deg modulus"):
            minimal_polynomial(u, f)
    for modulus in (SkewPoly.one(gf16), SkewPoly.zero(gf16)):
        with pytest.raises(ValueError, match="deg modulus >= 1"):
            minimal_polynomial(SkewPoly.zero(gf16), modulus)
    with pytest.raises(ContextMismatchError):
        minimal_polynomial(SkewPoly.one(gf4), f)
    with pytest.raises(TwistMismatchError):
        minimal_polynomial(SkewPoly.one(gf16, 2), f)
    with pytest.raises(TypeError):
        minimal_polynomial(gf16.one(), f)


TABLE_FIELDS = ["gf4", "gf8", "gf9", "gf16"]


@pytest.mark.parametrize("twist", [1, 2, 3])
@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_residue_table_rows_match_division(name, twist, request):
    # T[j] = Y^j mod f, each row past deg f multiplied back and counted
    field = request.getfixturevalue(name)
    rng = random.Random(80)
    for degree in (1, 2, 3, 4):
        f = random_monic(field, rng, degree, twist)
        size = 2 * degree + field.e
        before = skew.DIVISION_CHECKS
        table = _residue_table(f, size)
        assert skew.DIVISION_CHECKS - before == size - degree
        assert len(table) == size
        for j, row in enumerate(table):
            # each row is an index list of at most deg f entries
            assert len(row) <= degree
            assert residue(row, f) == SkewPoly.monomial(field, j, field.one(), twist).mod_right(f)


@pytest.mark.parametrize("twist", [1, 2, 3])
@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_krylov_powers_match_products(name, twist, request):
    # for the central u = Y^r and for eigenring draws, the rows Y^i u mod f
    # equal the divisions, and the powers of minimal_polynomial equal the
    # product-built Krylov (a u) mod f
    field = request.getfixturevalue(name)
    r = field.e // math.gcd(twist, field.e)
    rng = random.Random(81)
    for degree in (1, 2, 3):
        f = random_monic(field, rng, degree, twist)
        central = residue(_residue_table(f, r + 1)[r], f)
        assert central == SkewPoly.monomial(field, r, field.one(), twist).mod_right(f)
        residues = [central] + [eigen_ring(f).random_element(rng) for _ in range(2)]
        for u in residues:
            for i, row in enumerate(_y_rows(u._c, f, degree)):
                row = residue(row, f)
                Yi = SkewPoly.monomial(field, i, field.one(), twist)
                assert row == (Yi * u).mod_right(f)
            mu, powers = minimal_polynomial(u, f)
            step, a = times_right(u, f), SkewPoly.one(field, twist)
            for vec in powers:
                assert unpacked(vec, f) == a
                a = step(a)
            assert _eval_fp_poly(mu, u, f).is_zero


@pytest.mark.parametrize("twist", [1, 2, 3])
@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_eigen_ring_matches_product_columns(name, twist, request):
    field = request.getfixturevalue(name)
    rng = random.Random(82)
    inputs = [random_monic(field, rng, d, twist) for d in (1, 2, 3)]
    inputs.append(random_monic(field, rng, 2, twist) * random_monic(field, rng, 1, twist))
    inputs.append(inputs[-1].left_scalar(field.random_element(rng, nonzero=True)))
    for f in inputs:
        E = eigen_ring(f)
        assert E.modulus == f
        assert E.basis == eigen_ring_by_products(f).basis


VECTOR_FIELDS = [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pe=st.sampled_from(VECTOR_FIELDS), data=st.data())
def test_vectors_match_rref_oracle(pe, data):
    # the packed kernel of each characteristic against the digit lists:
    # a residue packs and unpacks to itself, a span is the digit-wise sum,
    # and _linalg.eliminator, fed the packed vectors, finds the nullspace
    # and rank that the entry-indexing oracles.rref finds on the matrix of
    # the vectors as columns; rank-deficient shapes by copying a
    # combination of two vectors over a third
    p, e = pe
    field = FiniteField(p, e)
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    digit = st.integers(0, p - 1)
    vector = st.lists(digit, min_size=n * e, max_size=n * e)
    cols = data.draw(st.lists(vector, min_size=k, max_size=k))
    if k >= 3 and data.draw(st.booleans()):
        i, j, m = (data.draw(st.integers(0, k - 1)) for _ in range(3))
        a, b = data.draw(digit), data.draw(digit)
        cols[i] = [(a * x + b * y) % p for x, y in zip(cols[j], cols[m])]

    def index(digits):
        return [field.element(tuple(digits[c * e : c * e + e])).as_int() for c in range(n)]

    space = decompose._vectors(field, n)
    coeffs = [index(col) for col in cols]
    vecs = [space.pack(cs) for cs in coeffs]
    assert [space.unpack(v) for v in vecs] == coeffs
    scalars = data.draw(st.lists(digit, min_size=k, max_size=k))
    total = [sum(c * col[r] for c, col in zip(scalars, cols)) % p for r in range(n * e)]
    assert space.unpack(space.span(scalars, vecs)) == index(total)
    add = _linalg.eliminator(p)
    deps = [add(v) for v in vecs]
    got = [space.scalars(d, k) for d in deps if d is not None], deps.count(None)
    matrix = [[col[r] for col in cols] for r in range(n * e)]
    assert got == (oracles.nullspace(matrix, p), len(oracles.rref(matrix, p)[1]))


def test_corrupted_table_row_raises(gf8, monkeypatch):
    # the multiply-back of each table step catches a wrong row
    assert skew.CHECK_DIVISION
    real = decompose._times_y

    def corrupted(a, f):
        top, row = real(a, f)
        return top, plus_one(row, gf8)

    monkeypatch.setattr(decompose, "_times_y", corrupted)
    f = random_monic(gf8, random.Random(83), 2, 2)
    with pytest.raises(InvariantError):
        _residue_table(f, 4)
    with pytest.raises(InvariantError):
        split_once(f, random.Random(83))
    with pytest.raises(InvariantError):
        eigen_ring(f)


def test_corrupted_krylov_step_raises(gf8, monkeypatch):
    # the multiply-back of the last Krylov step catches a wrong combination
    assert skew.CHECK_DIVISION
    real = decompose._combine
    monkeypatch.setattr(decompose, "_combine", lambda c, rows, f: plus_one(real(c, rows, f), gf8))
    f = random_monic(gf8, random.Random(85), 3, 2)
    with pytest.raises(InvariantError):
        minimal_polynomial(SkewPoly.monomial(gf8, 1, gf8.one(), 2), f)


def test_wrong_eigen_ring_column_raises(gf16, monkeypatch):
    # a fault in the eigen_ring columns (left instead of right scalars)
    # gives a basis outside E(f); the membership check of the eigenring
    # draws raises instead of sending the search after zero divisors
    # that are not there
    assert skew.CHECK_DIVISION
    rng = random.Random(86)
    needs_search = []
    while len(needs_search) < 3:
        f = random_monic(gf16, rng, 1) * random_monic(gf16, rng, 1)
        mu, _ = minimal_polynomial(residue(_residue_table(f, 5)[4], f), f)
        if f.coeffs[0] and fp.is_irreducible(mu, gf16.p) and len(mu) - 1 != f.degree:
            needs_search.append(f)
    monkeypatch.setattr(SkewPoly, "_right", SkewPoly._left)
    for f in needs_search:
        E = eigen_ring(f)
        assert any(not (f * b).mod_right(f).is_zero for b in E.basis)
        with pytest.raises(InvariantError):
            find_zero_divisor(E, random.Random(87), 1000)
        with pytest.raises(InvariantError):
            split_once(f, random.Random(87))


def test_split_off_checks_the_right_factor(gf16, monkeypatch):
    # a right gcd that hands back f itself is no proper right factor: the
    # central split and the eigenring split both refuse it
    callers = []

    def whole(f, z):
        callers.append(sys._getframe(1).f_code.co_name)
        return f

    monkeypatch.setattr(decompose, "gcd_right", whole)
    rng = random.Random(86)
    while set(callers) != {"_central_split", "_split"}:
        f = random_monic(gf16, rng, 1) * random_monic(gf16, rng, 1)
        if f.coeffs[0]:
            seen = len(callers)
            with pytest.raises(InvariantError, match="no proper right factor"):
                split_once(f, random.Random(87))
            assert len(callers) == seen + 1


def test_witness_checks_the_factor_divides(gf16, monkeypatch):
    # a first factor that does not divide the minimal polynomial (mu with
    # its constant term moved) is refused before any witness is built,
    # through the central split and through an eigenring draw
    callers = []

    def moved(mu, p):
        callers.append(sys._getframe(1).f_code.co_name)
        return [(mu[0] + 1) % p] + mu[1:]

    f = random_monic(gf16, random.Random(88), 1) * random_monic(gf16, random.Random(89), 2)
    E = eigen_ring(f)
    monkeypatch.setattr(fp, "first_factor", moved)
    with pytest.raises(InvariantError, match="does not divide it"):
        split_once(f, random.Random(90))
    with pytest.raises(InvariantError, match="does not divide it"):
        find_zero_divisor(E, random.Random(90), 5)
    assert callers == ["_split", "_zero_divisor_pair"]


def test_redraw_of_scalars_is_bounded(gf16):
    # an eigenring whose basis spans only F_p * 1 draws nothing but
    # scalars: the search redraws 1000 times past its first draw, one
    # randrange per basis vector each, and gives up
    f = random_monic(gf16, random.Random(90), 2)
    one = SkewPoly.one(gf16)
    draws = (1 + 1001) * 2

    class Counting(random.Random):
        def randrange(self, *args, **kwargs):
            seen.append(args)
            assert len(seen) <= draws, "redrew past the bound"
            return super().randrange(*args, **kwargs)

    seen = []
    with pytest.raises(InvariantError, match="nonscalar redraw failed to terminate"):
        find_zero_divisor(EigenRing(gf16, f, (one, one)), Counting(91), 5)
    assert len(seen) == draws


def test_oracle_checks_its_sweep_factor(gf16, monkeypatch):
    # a sweep factor that does not right-divide (Y, against a nonzero
    # constant coefficient) is refused, not peeled
    f = SkewPoly(gf16, [gf16.generator(), gf16.one(), gf16.one()])
    assert oracle_decompose(f).product() == f
    Y = SkewPoly(gf16, [gf16.zero(), gf16.one()])
    monkeypatch.setattr(decompose, "_smallest_right_factor", lambda g: Y)
    with pytest.raises(InvariantError, match="sweep factor does not right-divide"):
        oracle_decompose(f)


@pytest.mark.parametrize("twist", [1, 2, 3])
@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_certified_irreducible_makes_no_division(name, twist, request, monkeypatch):
    # the table, the central Krylov and the fixed-field certificate need
    # no ring division, and neither do their multiply-back checks
    field = request.getfixturevalue(name)
    assert skew.CHECK_DIVISION
    calls = []
    real = SkewPoly.divmod_right
    monkeypatch.setattr(SkewPoly, "divmod_right", lambda a, g: calls.append(g) or real(a, g))
    rng = random.Random(84)
    certified = 0
    for _ in range(40):
        f = random_monic(field, rng, rng.randint(2, 3), twist)
        calls.clear()
        if isinstance(split_once(f, rng), Indecomposable):
            assert calls == []
            certified += 1
    assert certified >= 3


def test_minimal_polynomial_annuls_and_is_minimal(gf4, gf9):
    for field in (gf4, gf9):
        rng = random.Random(62)
        for _ in range(8):
            f = random_monic(field, rng, 2)
            E = eigen_ring(f)
            u = E.random_element(rng)
            m, powers = minimal_polynomial(u, f)
            assert m[-1] == 1
            # powers[i] is the F_p-vector of u^i, one for each i < deg m
            assert len(powers) == len(m) - 1
            power = SkewPoly.one(field)
            for vec in powers:
                assert unpacked(vec, f) == power
                power = (power * u).mod_right(f)
            assert _eval_fp_poly(m, u, f).is_zero
            # dropping any irreducible factor breaks annihilation
            for g, _ in factor_monic(m, field.p):
                smaller, rem = fp.divmod_(m, g, field.p)
                assert not rem
                if fp.degree(smaller) >= 1 or smaller != [1]:
                    assert not _eval_fp_poly(smaller, u, f).is_zero


@pytest.mark.parametrize("twist", [1, 2])
@pytest.mark.parametrize("name", ["gf4", "gf9", "gf16"])
def test_zero_divisor_pair_matches_horner(name, twist, request):
    # one rule for the central residue Y^(e/g) and for eigenring draws:
    # the pair read off the Krylov powers equals nu(u) and (mu/nu)(u)
    # evaluated by Horner, nu the first irreducible factor of mu
    field = request.getfixturevalue(name)
    p = field.p
    r = field.e // math.gcd(twist, field.e)
    rng = random.Random(78)
    seen = {"central": 0, "eigen": 0}
    for _ in range(10):
        f = random_monic(field, rng, 1, twist) * random_monic(field, rng, 2, twist)
        E = eigen_ring(f)
        residues = [("central", SkewPoly.monomial(field, r, field.one(), twist).mod_right(f))]
        residues += [("eigen", E.random_element(rng)) for _ in range(3)]
        for kind, u in residues:
            mu, powers = minimal_polynomial(u, f)
            pair = _zero_divisor_pair(mu, powers, f)
            if fp.is_irreducible(mu, p):
                assert pair is None
                continue
            nu = factor_monic(mu, p)[0][0]
            rest, rem = fp.divmod_(mu, nu, p)
            assert not rem
            assert pair == (_eval_fp_poly(nu, u, f), _eval_fp_poly(rest, u, f))
            seen[kind] += 1
    assert seen["central"] >= 5 and seen["eigen"] >= 10


def test_zero_divisor_pair_refuses_a_non_annihilating_mu(gf4):
    f = random_monic(gf4, random.Random(79), 3)
    u = SkewPoly.monomial(gf4, 1, gf4.one()).mod_right(f)
    _, powers = minimal_polynomial(u, f)
    assert len(powers) >= 3
    # Z (Z + 1) is reducible but does not annihilate u = Y
    with pytest.raises(InvariantError):
        _zero_divisor_pair([0, 1, 1], powers, f)


def test_zero_divisor_gf2_degree2_always_first_try(gf2):
    one = gf2.one()
    zero = gf2.zero()
    decomposables = [
        SkewPoly(gf2, [zero, zero, one]),  # Y^2
        SkewPoly(gf2, [zero, one, one]),  # Y^2 + Y
        SkewPoly(gf2, [one, zero, one]),  # Y^2 + 1 = (Y + 1)^2
    ]
    for f in decomposables:
        for seed in range(10):
            zd = find_zero_divisor(eigen_ring(f), random.Random(seed), max_tries=1)
            assert zd is not None and zd.tries == 1
            assert not zd.element.is_zero and not zd.witness.is_zero
            assert zd.element.degree < 2 and zd.witness.degree < 2
            prod = (zd.element * zd.witness).mod_right(f)
            assert prod.is_zero


def test_zero_divisor_none_for_irreducible(gf2):
    one = gf2.one()
    # Y^2 + Y + 1 is irreducible in F_2[Y]; its eigenring is the field GF(4)
    f = SkewPoly(gf2, [one, one, one])
    assert eigen_ring(f).dim == 2
    assert find_zero_divisor(eigen_ring(f), random.Random(0), max_tries=20) is None


def test_zero_divisor_none_for_small_eigenring(gf4):
    # a degree-1 modulus with nonzero constant has eigenring F_p alone
    f = SkewPoly(gf4, [gf4.generator(), gf4.one()])
    assert eigen_ring(f).dim == 1
    assert find_zero_divisor(eigen_ring(f), random.Random(1), max_tries=4) is None


def test_zero_divisor_gives_proper_factor(gf4, gf9):
    for field in (gf4, gf9):
        rng = random.Random(63)
        hits = 0
        for _ in range(20):
            f = random_monic(field, rng, 1) * random_monic(field, rng, 2)
            zd = find_zero_divisor(eigen_ring(f), rng, max_tries=16)
            if zd is None:
                continue
            hits += 1
            from skewlin.skew import gcd_right

            g = gcd_right(zd.element, f)
            assert 0 < g.degree < f.degree
            assert f.mod_right(g).is_zero
        assert hits >= 10


def test_split_once_validation(gf4):
    rng = random.Random(64)
    with pytest.raises(ValueError):
        split_once(SkewPoly.zero(gf4), rng)
    t = gf4.generator()
    with pytest.raises(ValueError):
        split_once(SkewPoly(gf4, [gf4.one(), t]), rng)  # lead t, not monic
    res = split_once(SkewPoly.monomial(gf4, 1, gf4.one()), rng)
    assert isinstance(res, Indecomposable)


def test_split_once_splits_products(gf4, gf9):
    for field in (gf4, gf9):
        rng = random.Random(65)
        for _ in range(15):
            f = random_monic(field, rng, 1) * random_monic(field, rng, rng.randint(1, 2))
            res = split_once(f, rng)
            assert isinstance(res, Split)
            assert res.left * res.right == f
            assert res.left.is_monic and res.right.is_monic
            assert 0 < res.right.degree < f.degree


def test_split_once_certifies_irreducible(gf4):
    rng = random.Random(66)
    checked = 0
    for f in all_monic(gf4, 2):
        if any(f.mod_right(g).is_zero for g in all_monic(gf4, 1)):
            continue
        res = split_once(f, rng)
        assert isinstance(res, Indecomposable)
        checked += 1
    assert checked > 0


def test_split_once_certified_above_oracle_limit(gf256, monkeypatch):
    # degree 2 over GF(2^8): 2 * 8 = 16 > ORACLE_LIMIT, yet the bound
    # certificate proves every Indecomposable verdict without an eigenring,
    # for gcd(s, e) = 1, 2 and 4 alike
    calls = []
    real = decompose.eigen_ring
    monkeypatch.setattr(decompose, "eigen_ring", lambda f: calls.append(f) or real(f))
    rng = random.Random(67)
    for twist in (1, 2, 4):
        linear = list(all_monic(gf256, 1, twist))
        kinds = set()
        for f in itertools.islice(all_monic(gf256, 2, twist), 0, 65536, 997):
            calls.clear()
            res = split_once(f, rng)
            kinds.add(type(res))
            if isinstance(res, Indecomposable):
                assert calls == []
                assert not any(f.mod_right(g).is_zero for g in linear)
            else:
                assert res.left * res.right == f and res.right.degree == 1
        assert kinds == {Split, Indecomposable}


def _reducible_table(field, degree, twist):
    """Coefficient tuples of every monic product of two positive-degree factors."""
    out = set()
    for i in range(1, degree):
        for a in all_monic(field, degree - i, twist):
            for b in all_monic(field, i, twist):
                out.add((a * b).coeffs)
    return out


@pytest.mark.parametrize(
    "p, e, degrees, twists",
    [
        (2, 2, (2, 3, 4, 5), (1, 2, 3)),
        (2, 3, (2, 3), (1, 2, 3)),
        (3, 2, (2, 3), (1, 2, 3)),
        (2, 4, (2, 3), (1, 3)),
        (2, 4, (2,), (2, 4, 6)),
        (3, 3, (2,), (3,)),
    ],
    ids=["gf4", "gf8", "gf9", "gf16", "gf16-gcd", "gf27"],
)
def test_split_once_certificate_exhaustive(p, e, degrees, twists):
    # every monic f, twists coprime to e and not: a Split must rebuild f,
    # an Indecomposable must be absent from the table of all proper
    # products, the same set _smallest_right_factor decides
    field = FiniteField(p, e)
    rng = random.Random(74)
    mismatches = []
    for degree in degrees:
        for twist in twists:
            reducible = _reducible_table(field, degree, twist)
            if degree == 2:
                for f in all_monic(field, degree, twist):
                    swept = _smallest_right_factor(f) is not None
                    assert swept == (f.coeffs in reducible)
            for f in all_monic(field, degree, twist):
                res = split_once(f, rng)
                if isinstance(res, Indecomposable):
                    ok = f.coeffs not in reducible
                else:
                    ok = res.left * res.right == f and 0 < res.right.degree < degree
                if not ok:
                    mismatches.append((degree, twist, f))
    assert mismatches == []


def test_split_once_never_sweeps(gf16, monkeypatch):
    # one path for every twist: split_once never runs the exhaustive sweep,
    # and builds E(f) only when f is reducible and mu has no proper factor
    calls = []
    for name in ("eigen_ring", "_smallest_right_factor"):
        real = getattr(decompose, name)
        monkeypatch.setattr(decompose, name, lambda f, n=name, r=real: calls.append(n) or r(f))
    rng = random.Random(75)
    for twist in (1, 2, 4):
        reducible = _reducible_table(gf16, 2, twist)
        r = gf16.e // math.gcd(twist, gf16.e)
        searched = 0
        for f in all_monic(gf16, 2, twist):
            calls.clear()
            split_once(f, rng)
            u = SkewPoly.monomial(gf16, r, gf16.one(), twist).mod_right(f)
            needs_search = (
                bool(f.coeffs[0])
                and f.coeffs in reducible
                and fp.is_irreducible(minimal_polynomial(u, f)[0], gf16.p)
            )
            assert calls == (["eigen_ring"] if needs_search else [])
            searched += needs_search
        assert searched > 0


def test_split_once_central_branches(gf4, monkeypatch):
    # over GF(4), twist 1, u = Y^2 mod f.  Y^2 + 1 (mu = Z + 1) and
    # Y^4 + Y^2 + 1 (mu = Z^2 + Z + 1) have an irreducible mu of lower
    # degree, so they are isotypic and only they reach the eigenring;
    # every other degree-2 verdict is settled by mu alone
    calls = []
    real = decompose.eigen_ring
    monkeypatch.setattr(decompose, "eigen_ring", lambda f: calls.append(f) or real(f))
    one, zero = gf4.one(), gf4.zero()
    isotypic = [SkewPoly(gf4, [one, zero, one]), SkewPoly(gf4, [one, zero, one, zero, one])]
    rng = random.Random(76)
    for f in isotypic:
        res = split_once(f, rng)
        assert isinstance(res, Split) and res.left * res.right == f and res.tries >= 1
    assert calls == isotypic
    calls.clear()
    for f in all_monic(gf4, 2):
        if f not in isotypic:
            res = split_once(f, rng)
            assert isinstance(res, Indecomposable) or res.tries == 0
    assert calls == []


def test_split_once_powers_of_y_split_off_y(gf256):
    # f_0 = 0 gives f = (sum f_i Y^(i-1)) * Y for every twist.  E(Y^n) is
    # not semisimple and random draws there rarely give a zero divisor
    c = gf256.from_int(77)
    for twist in (1, 2, 4):
        Y = SkewPoly.monomial(gf256, 1, gf256.one(), twist)
        inputs = [SkewPoly.monomial(gf256, n, gf256.one(), twist) for n in (2, 5, 8)]
        inputs.append(SkewPoly(gf256, [gf256.zero(), c, gf256.one()], twist))
        for f in inputs:
            res = split_once(f, random.Random(f.degree))
            assert isinstance(res, Split) and res.tries == 0
            assert res.right == Y and res.left * Y == f
    gf2_16 = FiniteField(2, 16)
    f = SkewPoly.monomial(gf2_16, 2, gf2_16.one(), 2)
    dec = decompose_complete(f, random.Random(0))
    Y = SkewPoly.monomial(gf2_16, 1, gf2_16.one(), 2)
    assert dec.factors == (Y, Y) and dec.product() == f


def test_split_once_isotypic_needs_nontrivial_eigenring(gf4, monkeypatch):
    f = SkewPoly(gf4, [gf4.one(), gf4.zero(), gf4.one()])  # (Y + 1)^2
    trivial = decompose.EigenRing(gf4, f, (SkewPoly.one(gf4),))
    monkeypatch.setattr(decompose, "eigen_ring", lambda g: trivial)
    with pytest.raises(InvariantError):
        split_once(f, random.Random(77))


def test_decompose_matches_oracle_exhaustively(gf4):
    rng = random.Random(68)
    count = 0
    for deg in (1, 2, 3):
        for f in all_monic(gf4, deg):
            count += 1
            mine = decompose_complete(f, rng)
            ref = oracle_decompose(f)
            assert sorted(mine.degrees()) == sorted(ref.degrees())
            assert all(oracle_decompose(g).factors == (g,) for g in mine.factors)
            assert mine.product() == f
            assert ref.product() == f
            assert all(g.is_monic for g in mine.factors)
            assert f.mod_right(mine.factors[-1]).is_zero
    assert count == 4 + 16 + 64


def _check_against_split_once(f, seed):
    """decompose_complete(f) against oracles.decompose_by_split_once, the
    loop that calls split_once on every part: the same unit, factors and
    rng state afterwards.  For every twist s, every minimal polynomial a
    split hands a part is that of the central Y^r, r = e/gcd(s, e),
    modulo the part, the first factor handed with it is its first
    irreducible factor, and a part it makes a leaf is one split_once
    certifies.  Returns the (part, hint, result) of each step."""
    steps = []
    real = decompose._split

    def spy(h, rng, hint):
        out = real(h, rng, hint)
        steps.append((h, hint, out[0]))
        return out

    mine_rng, ref_rng = random.Random(seed), random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "_split", spy)
        mine = decompose_complete(f, mine_rng)
    ref = oracles.decompose_by_split_once(f, ref_rng)
    assert mine == ref
    assert mine_rng.getstate() == ref_rng.getstate()
    field = f.field
    g = math.gcd(f.twist, field.e)
    for h, hint, res in steps:
        if hint is None:
            continue
        mu, nu = hint
        u = SkewPoly.monomial(field, field.e // g, field.one(), f.twist).mod_right(h)
        assert minimal_polynomial(u, h)[0] == mu
        assert nu is None or nu == fp.first_factor(mu, field.p)
        if isinstance(res, Indecomposable):
            assert math.lcm(g, len(mu) - 1) == g * h.degree
            assert isinstance(split_once(h, random.Random(0)), Indecomposable)
    return steps


@pytest.mark.parametrize("twist", [1, 2])
def test_decompose_matches_split_once_loop_exhaustively(gf4, twist):
    hinted = {"leaf": 0, "split": 0}
    for deg in (1, 2, 3, 4):
        for f in all_monic(gf4, deg, twist):
            for h, hint, res in _check_against_split_once(f, deg):
                if hint is not None:
                    hinted["leaf" if isinstance(res, Indecomposable) else "split"] += 1
    # twist 2 over GF(4) is commutative (g = 2, central Y): its parts
    # inherit too, and the leaves among them are certified by their span
    assert min(hinted.values()) > 0


HINT_FIELDS = [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pe=st.sampled_from(HINT_FIELDS), data=st.data())
def test_decompose_matches_split_once_loop(pe, data):
    p, e = pe
    field = FiniteField(p, e)
    twist = data.draw(st.integers(1, e + 1))
    degrees = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    index = st.integers(0, field.q - 1)
    f = SkewPoly.one(field, twist)
    for d in degrees:
        if data.draw(st.booleans()) and f.degree <= 2:
            f = f * f  # repeated parts: R/Rf need not be semisimple
        cs = data.draw(st.lists(index, min_size=d, max_size=d))
        f = f * SkewPoly(field, [field.from_int(n) for n in cs] + [field.one()], twist)
    _check_against_split_once(f, data.draw(st.integers(0, 99)))


def _irreducible(field, rng, degree):
    return next(
        h for h in (random_monic(field, rng, degree) for _ in range(100))
        if isinstance(split_once(h, rng), Indecomposable)
    )


@pytest.mark.parametrize("order", ["quadratic-first", "cubic-first"])
def test_distinct_bounds_need_two_minimal_polynomials(gf16, order, monkeypatch):
    # over GF(16), twist 1, an irreducible of degree d has an irreducible
    # mu of degree d over F_2, so a quadratic and a cubic have distinct
    # bounds.  The central split hands the right part its nu and the left
    # part mu/nu, so only f runs a Krylov search, not all three
    rng = random.Random(88)
    quad, cubic = _irreducible(gf16, rng, 2), _irreducible(gf16, rng, 3)
    f = quad * cubic if order == "quadratic-first" else cubic * quad
    calls = []
    real = decompose.minimal_polynomial
    monkeypatch.setattr(
        decompose, "minimal_polynomial", lambda u, m: calls.append(m) or real(u, m)
    )
    dec = decompose_complete(f, random.Random(1))
    # nu = Z^2 + Z + 1 comes first, so the right part is the quadratic one
    assert dec.degrees() == (3, 2) and dec.product() == f
    assert calls == [f]


def test_eigenring_split_parts_need_no_krylov(gf16, monkeypatch):
    # quadratic irreducibles over GF(16), twist 1, share mu = Z^2 + Z + 1.
    # Where their product f is semisimple (its mu is still Z^2 + Z + 1,
    # not its square), the eigenring split hands both parts mu, which
    # certifies them, so every Krylov search runs modulo f (the central
    # residue, then the draws)
    rng = random.Random(91)
    y4 = SkewPoly.monomial(gf16, 4, gf16.one())
    while True:
        f = _irreducible(gf16, rng, 2) * _irreducible(gf16, rng, 2)
        if minimal_polynomial(y4.mod_right(f), f)[0] == [1, 1, 1]:
            break
    calls = []
    real = decompose.minimal_polynomial
    monkeypatch.setattr(
        decompose, "minimal_polynomial", lambda u, m: calls.append(m) or real(u, m)
    )
    dec = decompose_complete(f, random.Random(2))
    assert dec.degrees() == (2, 2) and dec.product() == f
    assert len(calls) >= 2 and all(m == f for m in calls)


Z2Z1 = [1, 1, 1]  # Z^2 + Z + 1, the mu of every quadratic irreducible over GF(16), twist 1


def _power_chain(field, rng, k):
    """A product of k quadratic irreducibles over GF(16), twist 1, whose mu
    is (Z^2 + Z + 1)^k: not semisimple, so every split is central."""
    power = [1]
    for _ in range(k):
        power = fp.mul(power, Z2Z1, 2)
    y4 = SkewPoly.monomial(field, 4, field.one())
    while True:
        f = SkewPoly.one(field)
        for _ in range(k):
            f = f * _irreducible(field, rng, 2)
        if minimal_polynomial(y4.mod_right(f), f)[0] == power:
            return f, power


def test_power_chain_needs_one_minimal_polynomial(gf16, monkeypatch):
    # mu = (Z^2 + Z + 1)^3: the root splits off a quadratic through nu and
    # hands the left part (Z^2 + Z + 1)^2 with nu as its first factor, which
    # splits again by nu(Y^4) mod the part, with no Krylov search or eigenring
    f, _ = _power_chain(gf16, random.Random(92), 3)
    calls = []
    for name in ("minimal_polynomial", "eigen_ring"):
        real = getattr(decompose, name)
        monkeypatch.setattr(
            decompose, name, lambda *a, n=name, r=real: calls.append((n, a[-1])) or r(*a)
        )
    dec = decompose_complete(f, random.Random(3))
    assert dec.degrees() == (2, 2, 2) and dec.product() == f
    assert calls == [("minimal_polynomial", f)]


def test_wrong_reducible_hint_raises(gf16):
    # a part with a reducible hint splits with no Krylov search, and the
    # witness check z != 0, w != 0, z w = 0 mod f catches a hint that does
    # not annihilate Y^4 mod f: (Z + 1) mu, whose first factor Z + 1 leaves
    # w = mu(Y^4) = 0, and two other reducible polynomials of mu's degree
    f, mu = _power_chain(gf16, random.Random(93), 2)
    rng = random.Random(4)
    res, left, right = decompose._split(f, rng, (mu, Z2Z1))
    assert isinstance(res, Split) and res.left * res.right == f
    assert left == right == (Z2Z1, Z2Z1)
    state = rng.getstate()
    extra = fp.mul([1, 1], mu, 2)
    other = [fp.mul([1, 1], [1, 1, 0, 1], 2), fp.mul(Z2Z1, [1, 0, 1], 2)]
    assert not fp.mod(extra, mu, 2) and all(fp.mod(h, mu, 2) for h in other)
    for hint in [(extra, None), (extra, [1, 1]), *((h, None) for h in other)]:
        assert len(hint[0]) > 2 and not fp.is_irreducible(hint[0], 2)
        with pytest.raises(InvariantError, match="witness does not annihilate"):
            decompose._split(f, rng, hint)
    assert rng.getstate() == state


# (p, e, degree) with degree * e above ORACLE_LIMIT, where oracle_decompose refuses
ORE_CASES = [(2, 4, 4), (2, 5, 3), (3, 3, 5), (3, 2, 7), (5, 2, 7), (5, 3, 5)]


@pytest.mark.parametrize("p, e, degree", ORE_CASES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_leaves_match_ore_module_oracle(p, e, degree, data):
    # Ore's module view, with no size bound: chi, the characteristic
    # polynomial of the central Y^e on R/Rf, is multiplicative along the
    # factorisation, and for twist coprime to e a leaf h is irreducible
    # exactly when chi_h = nu^e with nu irreducible of degree deg h (its
    # module is simple and Y^e acts on it through a field); for other
    # twists a leaf's chi is still a power of one irreducible
    assert degree * e > ORACLE_LIMIT
    field = FiniteField(p, e)
    twist = data.draw(st.integers(1, e))
    index = st.integers(0, field.q - 1)
    f = SkewPoly.one(field, twist)
    while f.degree < degree:
        d = data.draw(st.integers(1, min(3, degree - f.degree)))
        cs = data.draw(st.lists(index, min_size=d, max_size=d))
        f = f * SkewPoly(field, [field.from_int(n) for n in cs] + [field.one()], twist)
    dec = decompose_complete(f, random.Random(data.draw(st.integers(0, 99))))
    assert dec.product() == f
    chis = [oracles.central_charpoly(h) for h in dec.factors]
    product = chis[0]
    for chi in chis[1:]:
        product = product * chi
    assert product == oracles.central_charpoly(f)
    for h, chi in zip(dec.factors, chis):
        lead, factors = chi.factor_list()
        assert lead == 1 and len(factors) == 1
        (nu, k), = factors
        if math.gcd(twist, e) == 1:
            assert (nu.degree(), k) == (h.degree, e)


def test_decompose_same_with_division_checks_off(monkeypatch):
    rng = random.Random(89)
    cases = []
    for p, e in HINT_FIELDS:
        field = FiniteField(p, e)
        for twist in (1, 2):
            f = SkewPoly.one(field, twist)
            for d in (1, 2, 2):
                f = f * random_monic(field, rng, d, twist)
            cases.append(f)
    results = {}
    for checks in (True, False):
        monkeypatch.setattr(skew, "CHECK_DIVISION", checks)
        before = skew.DIVISION_CHECKS
        out = []
        for i, f in enumerate(cases):
            r = random.Random(i)
            out.append((decompose_complete(f, r), r.getstate()))
        results[checks] = out
        assert (skew.DIVISION_CHECKS > before) == checks
    assert results[True] == results[False]


def test_central_split_divides_from_f(gf16, monkeypatch):
    # gcd_right(f, z): z = nu(u) is a residue, so starting from (z, f)
    # would spend a division just to swap them.  (Y^2 + a Y + b)(Y + c)
    # over GF(16), twist 1, splits centrally
    quad = _irreducible(gf16, random.Random(90), 2)
    lin = SkewPoly(gf16, [gf16.from_int(7), gf16.one()])
    f = quad * lin
    calls = []
    real = skew._rem_right  # every right division and gcd step runs it

    def spy(field, twist, r, g):
        calls.append((len(r) - 1, len(g) - 1))  # before r is reduced in place
        return real(field, twist, r, g)

    monkeypatch.setattr(skew, "_rem_right", spy)
    res = split_once(f, random.Random(0))
    assert isinstance(res, Split) and res.tries == 0
    assert res.right == lin and res.left == quad
    # z w mod f (the zero-divisor check), the gcd's f mod z and z mod
    # (Y + c), then f / (Y + c); no (z, f) step
    assert calls == [(4, 3), (3, 2), (2, 1), (3, 1)]


def test_decompose_factors_are_irreducible(gf4):
    rng = random.Random(69)
    for _ in range(10):
        f = random_monic(gf4, rng, 3)
        dec = decompose_complete(f, rng)
        for g in dec.factors:
            if g.degree < 2:
                continue
            # no monic right factor of any smaller positive degree
            for d in range(1, len(g.coeffs) - 1):
                assert not any(g.mod_right(h).is_zero for h in all_monic(gf4, d))


def test_decompose_leaves_no_reference_cycle(gf16):
    # the splitting walks an explicit stack, so a decomposition leaves
    # nothing that only the cyclic collector frees (a recursive closure
    # kept the rng, the factor list and the split tree alive in a cycle)
    rng = random.Random(31)
    f = SkewPoly.one(gf16)
    for degree in (2, 1, 2, 2):
        f = f * random_monic(gf16, rng, degree)
    gc.collect()
    gc.disable()
    try:
        dec = decompose_complete(f, random.Random(1))
        assert len(dec.factors) >= 4
        del dec
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_decompose_unit_and_nonmonic(gf9):
    rng = random.Random(70)
    for _ in range(10):
        f = random_monic(gf9, rng, 3).left_scalar(gf9.random_element(rng, nonzero=True))
        dec = decompose_complete(f, rng)
        assert dec.unit == f.lead
        assert dec.product() == f
        assert all(g.is_monic for g in dec.factors)


def test_decompose_degree_zero(gf4):
    dec = decompose_complete(SkewPoly(gf4, [gf4.generator()]), random.Random(0))
    assert dec.factors == ()
    assert dec.product() == SkewPoly(gf4, [gf4.generator()])
    with pytest.raises(ValueError):
        decompose_complete(SkewPoly.zero(gf4), random.Random(0))


def test_decompose_requires_rng(gf4):
    # an unseeded default would make the factor list irreproducible
    with pytest.raises(TypeError):
        decompose_complete(SkewPoly(gf4, [gf4.one(), gf4.one()]))


def test_decompose_planted_product(gf4, gf9):
    for field in (gf4, gf9):
        rng = random.Random(71)
        for _ in range(10):
            parts = [random_monic(field, rng, 1) for _ in range(3)]
            f = parts[0] * parts[1] * parts[2]
            dec = decompose_complete(f, rng)
            assert dec.degrees() == (1, 1, 1)
            assert dec.product() == f
            assert oracle_decompose(f).degrees() == (1, 1, 1)


def test_decompose_twist2(gf16):
    rng = random.Random(72)
    for _ in range(6):
        f = random_monic(gf16, rng, 1, twist=2) * random_monic(gf16, rng, 2, twist=2)
        dec = decompose_complete(f, rng)
        ref = oracle_decompose(f)
        assert dec.twist == 2
        assert sorted(dec.degrees()) == sorted(ref.degrees())
        assert dec.product() == f


def test_decompose_linear_wrapper(gf8):
    # the factors of an additive polynomial, composed as maps, rebuild it
    rng = random.Random(73)
    for _ in range(8):
        L = random_monic(gf8, rng, 2)
        dec = decompose_complete(L, rng)
        rebuilt = SkewPoly.one(gf8)
        for part in dec.factors:
            rebuilt = rebuilt.compose(part)
        rebuilt = rebuilt.left_scalar(dec.unit)
        assert rebuilt == L
        for x in gf8.elements():
            assert rebuilt(x) == L(x)


def test_oracle_refuses_large_instances(gf256):
    f = SkewPoly.monomial(gf256, 2, gf256.one())
    with pytest.raises(TooLargeError):
        oracle_decompose(f)
    assert ORACLE_LIMIT == 12


def test_estimate_is_deterministic(gf4):
    a = estimate_split_success(gf4, 3, 30, seed=5)
    b = estimate_split_success(gf4, 3, 30, seed=5)
    assert a == b
    c = estimate_split_success(gf4, 3, 30, seed=6)
    assert isinstance(c, SplitStats)


def test_estimate_stats_sane(gf4):
    s = estimate_split_success(gf4, 3, 40, seed=2)
    assert s.trials == 40 and s.seed == 2
    assert 0 <= s.first_try_successes <= s.trials
    assert s.mean_tries >= 1.0
    lo, hi = s.ci95
    assert 0.0 <= lo <= s.first_try_successes / s.trials <= hi <= 1.0


def test_estimate_validation(gf4):
    with pytest.raises(ValueError):
        estimate_split_success(gf4, 1, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_split_success(gf4, 3, 0, seed=0)
