"""Structured quadratic polynomials and the three-term difference operator."""

import contextlib
import os
import random
import sys

import pytest

import skewlin.hfe as hfe
from skewlin.errors import (
    ContextMismatchError,
    DegreeTooLargeError,
    InvariantError,
    ShapeViolationError,
    TwistMismatchError,
)
from skewlin.fields import FiniteField, FqElem
from skewlin.fqpoly import FqPoly
from skewlin.hfe import (
    DOPoly,
    check_do_shape,
    dense_difference,
    difference_poly,
    do_compose_lin,
    hfe_keygen,
    lin_to_dense,
    to_multivariate,
)
from skewlin.linpoly import LinPoly

import oracles


@contextlib.contextmanager
def spied_kernel(field, name, wrap):
    """Run the block with the field's index kernel name replaced by
    wrap(kernel); the field is immutable, so the slot is set directly."""
    kernel = getattr(field, name)
    object.__setattr__(field, name, wrap(kernel))
    try:
        yield
    finally:
        object.__setattr__(field, name, kernel)


def random_do(field, rng, max_index=None, with_lin=True, with_const=False):
    e = field.e
    top = e - 1 if max_index is None else max_index
    quad = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, top)
        j = rng.randint(0, top)
        quad[(min(i, j), max(i, j))] = field.random_element(rng)
    lin = None
    if with_lin:
        lin = LinPoly(field, [field.random_element(rng) for _ in range(rng.randint(1, e))])
    const = field.random_element(rng) if with_const else None
    return DOPoly(field, quad, lin, const)


def random_linpoly(field, rng, max_index):
    return LinPoly(
        field, [field.random_element(rng) for _ in range(rng.randint(1, max_index + 1))]
    )


def test_char2_diagonal_migrates(gf4):
    t = gf4.generator()
    D = DOPoly(gf4, {(0, 0): t})
    # x^(1+1) = x^2 is additive in characteristic 2
    assert D.quad == {}
    assert D.lin == LinPoly(gf4, [gf4.zero(), t])
    for x in gf4.elements():
        assert D(x) == t * x * x
    one, zero = gf4.one(), gf4.zero()
    cases = [
        # onto a nonzero additive coefficient
        ([t, one], 0, t, [t, one + t]),
        # cancelling the top additive coefficient, which is trimmed
        ([t, one], 0, one, [t]),
        # past the top of the additive part
        ([t], 2, t, [t, zero, zero, t]),
    ]
    for lin, i, c, want in cases:
        L = LinPoly(gf4, lin)
        D = DOPoly(gf4, {(i, i): c}, L)
        assert D.quad == {}
        assert D.lin.coeffs == tuple(want)
        for x in gf4.elements():
            assert D(x) == L(x) + c * x.frobenius(i + 1)


def test_diagonal_stays_quadratic_odd_char(gf9):
    c = gf9.generator()
    D = DOPoly(gf9, {(1, 1): c})
    assert D.quad == {(1, 1): c}
    assert D.lin.is_zero
    for x in gf9.elements():
        assert D(x) == c * x.frobenius(1) * x.frobenius(1)


def test_constructor_validation(gf4, gf9, gf16):
    with pytest.raises(ValueError):
        DOPoly(gf4, {(-1, 0): gf4.one()})
    with pytest.raises(ContextMismatchError):
        DOPoly(gf4, {(0, 1): gf9.one()})
    with pytest.raises(ContextMismatchError):
        DOPoly(gf4, {}, LinPoly.one(gf9))
    with pytest.raises(TwistMismatchError):
        DOPoly(gf16, {}, LinPoly.one(gf16, twist=2))
    # unordered pairs normalise, zero coefficients drop
    t = gf4.generator()
    assert DOPoly(gf4, {(1, 0): t}).quad == {(0, 1): t}
    assert DOPoly(gf4, {(0, 1): gf4.zero()}).is_zero


def test_terms_are_read_only(gf16):
    # item assignment would leave is_zero, degree and quad stale
    D = DOPoly(gf16, {(0, 1): gf16.one()})
    with pytest.raises(TypeError):
        D.terms[3] = gf16.zero()
    with pytest.raises(TypeError):
        del D.terms[3]
    for E in (D + D.reduce(), -D, D.reduce(), do_compose_lin(LinPoly.one(gf16), D, "left")):
        with pytest.raises(TypeError):
            E.terms[3] = gf16.one()
    assert not D.is_zero and D.degree == 3 and D.quad == {(0, 1): gf16.one()}


def test_evaluation_is_monomial_sum(gf16):
    rng = random.Random(80)
    p = gf16.p
    for _ in range(10):
        D = random_do(gf16, rng, with_const=True)
        for x in gf16.elements():
            acc = D.const + D.lin(x)
            for (i, j), c in D.quad.items():
                acc = acc + c * x ** (p**i + p**j)
            assert D(x) == acc


def test_group_ops_pointwise(gf9):
    rng = random.Random(81)
    for _ in range(10):
        A = random_do(gf9, rng, with_const=True)
        B = random_do(gf9, rng, with_const=True)
        x = gf9.random_element(rng)
        assert (A + B)(x) == A(x) + B(x)
        assert (A - B)(x) == A(x) - B(x)
        assert (-A)(x) == -A(x)


def test_reduce_preserves_function(gf16, gf27):
    for field in (gf16, gf27):
        rng = random.Random(82)
        for _ in range(8):
            D = random_do(field, rng, max_index=2 * field.e, with_const=True)
            R = D.reduce()
            assert R.degree < field.q
            assert R.reduce() == R
            for x in field.elements():
                assert R(x) == D(x)


def test_reduced_form_is_canonical(gf16):
    rng = random.Random(83)
    for _ in range(8):
        D = random_do(gf16, rng, max_index=7, with_const=True)
        R = D.reduce()
        # same function and degree < q force equal reduced forms
        S = (D + DOPoly.zero(gf16)).reduce()
        assert S == R


def test_to_fqpoly_pointwise(gf16, gf9):
    for field in (gf16, gf9):
        rng = random.Random(84)
        for _ in range(8):
            D = random_do(field, rng, with_const=True)
            f = D.to_fqpoly()
            assert f.degree == D.degree
            for x in field.elements():
                assert f(x) == D(x)


def test_difference_symbolic_equals_dense(gf16, gf9, gf27):
    for field in (gf16, gf9, gf27):
        rng = random.Random(85)
        for _ in range(10):
            D = random_do(field, rng)
            f = D.to_fqpoly()
            for _ in range(4):
                a = field.random_element(rng)
                sym = difference_poly(D, a)
                assert lin_to_dense(sym) == dense_difference(f, a)


def test_difference_drops_additive_part(gf16):
    rng = random.Random(86)
    quad = {(0, 1): gf16.generator()}
    with_lin = DOPoly(gf16, quad, random_linpoly(gf16, rng, 3))
    without = DOPoly(gf16, quad)
    a = gf16.random_element(rng, nonzero=True)
    assert difference_poly(with_lin, a) == difference_poly(without, a)


def test_difference_additive_in_shift(gf9):
    rng = random.Random(87)
    for _ in range(10):
        D = random_do(gf9, rng)
        a = gf9.random_element(rng)
        b = gf9.random_element(rng)
        assert difference_poly(D, a + b) == difference_poly(D, a) + difference_poly(D, b)


def test_difference_rejects_constant(gf4):
    D = DOPoly(gf4, {(0, 1): gf4.one()}, None, gf4.one())
    with pytest.raises(ShapeViolationError):
        difference_poly(D, gf4.generator())


def test_dense_difference_shows_constant_defect(gf9):
    rng = random.Random(88)
    core = random_do(gf9, rng)
    c = gf9.random_element(rng, nonzero=True)
    shifted = core + DOPoly(gf9, {}, None, c)
    a = gf9.random_element(rng, nonzero=True)
    # t = D + c turns the three-term difference into Delta_D - c
    expect = lin_to_dense(difference_poly(core, a)) - FqPoly.constant(c)
    assert dense_difference(shifted.to_fqpoly(), a) == expect


def test_check_do_shape_accepts_roundtrip(gf16, gf9):
    for field in (gf16, gf9):
        rng = random.Random(89)
        for _ in range(10):
            D = random_do(field, rng, with_const=True).reduce()
            res = check_do_shape(D.to_fqpoly())
            assert res.ok and res.offender is None and res.witness is None
            assert res.value == D


def digit_oracle_accepts(exp, p):
    """DO + additive exponents by their nonzero base-p digits: none, one 1,
    two 1s, or (odd p) one 2."""
    digits = []
    while exp:
        if exp % p:
            digits.append(exp % p)
        exp //= p
    return digits in ([], [1], [1, 1]) or (p > 2 and digits == [2])


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2), (2, 5), (3, 3), (5, 2), (7, 2)])
def test_check_do_shape_offenders_match_digit_oracle(p, e):
    field = FiniteField(p, e)
    bad = {exp for exp in range(field.q) if not digit_oracle_accepts(exp, p)}
    hand = {(2, 4): {7, 11, 13, 14, 15}, (3, 2): {5, 7, 8}}
    if (p, e) in hand:
        assert bad == hand[(p, e)]
    tX = FqPoly.from_monomials(field, {1: field.generator()})
    for exp in range(field.q):
        res = check_do_shape(FqPoly.from_monomials(field, {exp: field.one()}) + tX)
        assert res.ok == (exp not in bad), exp
        assert res.offender == (exp if exp in bad else None), exp


def test_check_do_shape_reports_smallest_offender(gf16):
    f = FqPoly.from_monomials(gf16, {7: gf16.one(), 11: gf16.generator()})
    res = check_do_shape(f)
    assert res.offender == 7


def test_check_do_shape_witness_is_numeric(gf16, gf9):
    for field, exp in ((gf16, 7), (gf9, 5)):
        f = FqPoly.from_monomials(field, {exp: field.one()})
        res = check_do_shape(f)
        w = res.witness
        assert w is not None and w.a
        g = f.shift(w.a) - f - FqPoly.constant(f(w.a)) + FqPoly.constant(f(field.zero()))
        assert g(w.x + w.y) != g(w.x) + g(w.y)


def test_check_do_shape_degree_cap(gf4):
    f = FqPoly.from_monomials(gf4, {4: gf4.one()})
    with pytest.raises(DegreeTooLargeError):
        check_do_shape(f)
    assert check_do_shape(FqPoly.zero(gf4)).ok


def test_check_do_shape_raises_on_offender_without_witness(gf4, monkeypatch):
    # X^3 = X^(1 + 2) is DO over GF(4), so once the slot table forgets
    # exponent 3 the structural check names an offender that no pointwise
    # additivity test can witness, and the check must refuse to answer
    real = hfe._do_slots
    monkeypatch.setattr(
        hfe, "_do_slots", lambda p, e: {x: s for x, s in real(p, e).items() if x != 3}
    )
    with pytest.raises(InvariantError, match="without a pointwise witness"):
        check_do_shape(FqPoly.from_monomials(gf4, {3: gf4.one()}))


def test_compose_left_pointwise(gf16, gf9):
    for field in (gf16, gf9):
        rng = random.Random(90)
        for _ in range(8):
            D = random_do(field, rng, with_const=True)
            L = random_linpoly(field, rng, field.e - 1)
            C = do_compose_lin(L, D, "left")
            for x in field.elements():
                assert C(x) == L(D(x))
            R = do_compose_lin(L, D, "left", reduce=True)
            assert R.degree < field.q
            for x in field.elements():
                assert R(x) == L(D(x))


def test_compose_right_pointwise(gf16, gf9):
    for field in (gf16, gf9):
        rng = random.Random(91)
        for _ in range(8):
            D = random_do(field, rng, with_const=True)
            L = random_linpoly(field, rng, field.e - 1)
            C = do_compose_lin(L, D, "right")
            for x in field.elements():
                assert C(x) == D(L(x))
            assert C.const == D.const


@pytest.mark.parametrize(
    "field",
    [FiniteField(2, 4), FiniteField(3, 2), FiniteField(3, 2, basis=[[1, 2], [2, 2]])],
    ids=["gf16", "gf9", "gf9-basis"],
)
def test_compose_reduce_folds_as_it_accumulates(field):
    # L of degree >= e, so folded indices collide on both sides
    rng = random.Random(93)
    for _ in range(8):
        D = random_do(field, rng, max_index=2 * field.e, with_const=True)
        coeffs = [field.random_element(rng) for _ in range(field.e + 1)]
        L = LinPoly(field, coeffs + [field.random_element(rng, nonzero=True)])
        assert L.degree >= field.e
        for side in ("left", "right"):
            R = do_compose_lin(L, D, side, reduce=True)
            assert R == do_compose_lin(L, D, side).reduce()
            assert R.degree < field.q
        right = do_compose_lin(L, D, "right", reduce=True)
        left = do_compose_lin(L, D, "left", reduce=True)
        for x in field.elements():
            assert right(x) == D(L(x))
            assert left(x) == L(D(x))


def test_sums_start_from_first_term(gf16, gf9, monkeypatch):
    # DOPoly.__add__, SkewPoly.reduce, difference_poly and SkewPoly.__call__
    # never add onto a zero left operand, and their outputs match the oracles.
    # All four sum coefficient indices, so their adds reach the spy on the
    # field's index add kernel; the spy on FqElem.__add__ stays, and sees
    # none of them
    watched = {
        ("hfe.py", "_sum_terms"),
        ("skew.py", "reduce"),
        ("hfe.py", "difference_poly"),
        ("skew.py", "__call__"),
    }
    adds = []
    add = FqElem.__add__

    def record(zero_left):
        code = sys._getframe(2).f_code
        caller = (os.path.basename(code.co_filename), code.co_name)
        if caller in watched:
            adds.append((caller, zero_left))

    def spy(self, other):
        record(not self)
        return add(self, other)

    def kernel_spy(kernel):
        return lambda a, b: record(not a) or kernel(a, b)

    for field in (gf16, gf9):
        rng = random.Random(95)
        p, xs = field.p, list(field.elements())
        for _ in range(6):
            A = random_do(field, rng, with_const=True)
            B = random_do(field, rng, with_const=True)
            D = random_do(field, rng, max_index=2 * field.e)
            L = random_linpoly(field, rng, 2 * field.e)
            shifts = [field.zero()] + [field.random_element(rng) for _ in range(3)]
            with monkeypatch.context() as m, spied_kernel(field, "_add", kernel_spy):
                m.setattr(FqElem, "__add__", spy)
                S = A + B
                R = L.reduce()
                deltas = [difference_poly(D, a) for a in shifts]
                values = [L(x) for x in xs]
            for x, v in zip(xs, values):
                want = field.zero()
                for i, c in enumerate(L.coeffs):
                    want = want + c * x ** (p**i)
                assert v == want
                assert R(x) == v
                assert S(x) == A(x) + B(x)
                for a, delta in zip(shifts, deltas):
                    assert delta(x) == D(x + a) - D(x) - D(a)
            assert R.twist == 1 and R.degree < field.e
    assert {caller for caller, _ in adds} == watched
    assert not [caller for caller, zero_left in adds if zero_left]


def test_compose_side_validation(gf4):
    D = DOPoly(gf4, {(0, 1): gf4.one()})
    with pytest.raises(ValueError):
        do_compose_lin(LinPoly.one(gf4), D, "both")
    with pytest.raises(TwistMismatchError):
        do_compose_lin(LinPoly.one(gf4, twist=2), D, "left")


def test_chain_rule_exact(gf16, gf9):
    # difference of L(D(X)) is L applied to the difference of D, symbolically
    for field in (gf16, gf9):
        rng = random.Random(92)
        for _ in range(12):
            D = random_do(field, rng)
            L = random_linpoly(field, rng, field.e - 1)
            a = field.random_element(rng)
            lhs = difference_poly(do_compose_lin(L, D, "left"), a)
            rhs = L.compose(difference_poly(D, a))
            assert lhs == rhs
            assert lhs.reduce() == rhs.reduce()


def test_multivariate_frozen_square(gf4):
    E = DOPoly(gf4, {}, LinPoly.monomial(gf4, 1, gf4.one()))  # X^2
    mv = to_multivariate(E)
    assert mv.n_vars == 2 and mv.p == 2
    assert mv.quad == ({}, {})
    assert mv.lin == ({0: 1, 1: 1}, {1: 1})
    assert mv.const == (0, 0)


def test_multivariate_pointwise(gf16, gf9):
    # the last two fields have a non-default coordinate basis; over GF(2^4)
    # the char-2 diagonal fold meets the basis-relative columns of to_matrix
    for field in (
        gf16,
        gf9,
        FiniteField(3, 2, basis=[[1, 2], [2, 2]]),
        FiniteField(2, 4, basis=[[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]]),
    ):
        rng = random.Random(93)
        for _ in range(8):
            E = random_do(field, rng, with_const=True)
            mv = to_multivariate(E)
            assert mv.n_vars == field.e
            for x in field.elements():
                got = mv.evaluate(field.coordinates(x))
                assert got == field.coordinates(E(x))


def test_multivariate_no_squares_char2(gf16):
    rng = random.Random(94)
    for _ in range(8):
        E = random_do(gf16, rng, with_const=True)
        mv = to_multivariate(E)
        for k in range(mv.n_vars):
            assert all(s != t for (s, t) in mv.quad[k])


def test_multivariate_term_bound(gf16):
    rng = random.Random(95)
    e = gf16.e
    bound = e * (e + 1) // 2 + e + 1
    for _ in range(8):
        E = random_do(gf16, rng, with_const=True)
        mv = to_multivariate(E)
        assert mv.max_terms <= bound


def test_multivariate_evaluate_validation(gf9):
    mv = to_multivariate(DOPoly(gf9, {(0, 1): gf9.one()}))
    with pytest.raises(ValueError):
        mv.evaluate([1])


def _dense_witness(f):
    """The witness search by dense shifts: f(X + a) - f(X) - f(a) + f(0)
    built per shift a and evaluated at every point."""
    field = f.field
    f0 = f(field.zero())
    for a in field.elements():
        if not a:
            continue
        g = dense_difference(f, a) + FqPoly.constant(f0)
        values = {x.digits: g(x) for x in field.elements()}
        for x in field.elements():
            for y in field.elements():
                if values[(x + y).digits] != values[x.digits] + values[y.digits]:
                    return a, x, y
    return None


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2), (2, 6)])
def test_check_do_shape_witness_matches_dense_route(p, e):
    field = FiniteField(p, e)
    rng = random.Random(96)
    bad = [exp for exp in range(field.q) if not digit_oracle_accepts(exp, p)]
    for exp in rng.sample(bad, min(len(bad), 6)):
        body = random_do(field, rng, with_const=True).reduce().to_fqpoly()
        f = body + FqPoly.from_monomials(field, {exp: field.random_element(rng, nonzero=True)})
        res = check_do_shape(f)
        w = res.witness
        assert not res.ok and res.offender == exp
        assert (w.a, w.x, w.y) == _dense_witness(f)


@pytest.mark.parametrize("p,e", [(2, 4), (2, 1), (3, 1)], ids=["gf16", "gf2", "gf3"])
def test_top_diagonal_reduces_through_the_carry(p, e):
    # for p = 2, X^(2^(e-1) + 2^(e-1)) = X^q, which reduces to the additive
    # X; for odd p the diagonal stays quadratic
    field = FiniteField(p, e)
    c = field.from_int(field.q - 1)
    D = DOPoly(field, {(e - 1, e - 1): c})
    if p == 2:
        assert D.quad == {} and D.lin == LinPoly.monomial(field, e, c) and D.degree == field.q
        want = DOPoly(field, {}, LinPoly(field, [c]))
    else:
        want = D
    one = LinPoly.one(field)
    for R in (
        D.reduce(),
        do_compose_lin(one, D, "left", reduce=True),
        do_compose_lin(one, D, "right", reduce=True),
    ):
        assert R == want
    # the carry also arises inside a composition: X^(p^(e-1)) after X^(1+1)
    L = LinPoly.monomial(field, e - 1, field.one())
    D0 = DOPoly(field, {(0, 0): c})
    for side in ("left", "right"):
        R = do_compose_lin(L, D0, side, reduce=True)
        assert R == do_compose_lin(L, D0, side).reduce()
        assert R.degree < field.q
        assert (R.quad == {}) == (p == 2)
        for x in field.elements():
            assert R(x) == (L(D0(x)) if side == "left" else D0(L(x)))


def test_parts_rebuild_and_equal_inputs_compare_equal(gf16, gf27, gf4):
    for field in (gf16, gf27):
        rng = random.Random(97)
        for _ in range(10):
            D = random_do(field, rng, max_index=2 * field.e, with_const=True)
            assert DOPoly(field, D.quad, D.lin, D.const) == D
            R = D.reduce()
            assert DOPoly(field, R.quad, R.lin, R.const) == R
    e, c, t = gf16.e, gf16.generator(), gf16.from_int(9)
    # unordered pairs
    assert DOPoly(gf16, {(3, 1): c}) == DOPoly(gf16, {(1, 3): c})
    # a p = 2 diagonal is the additive index one up, added onto what is there
    for i in range(2 * e):
        diag = DOPoly(gf16, {(i, i): c}, LinPoly.monomial(gf16, i + 1, t))
        assert diag == DOPoly(gf16, {}, LinPoly.monomial(gf16, i + 1, c + t))
    assert DOPoly(gf16, {(0, 0): c}, LinPoly.monomial(gf16, 1, c)).is_zero
    # indices >= e compare as given, and equal their folded pair once reduced
    high = DOPoly(gf16, {(e + 2, e): c})
    assert high == DOPoly(gf16, {(e, e + 2): c})
    assert high != DOPoly(gf16, {(0, 2): c})
    assert high.reduce() == DOPoly(gf16, {(0, 2): c})
    # for odd p a diagonal stays quadratic
    one = gf27.one()
    assert DOPoly(gf27, {(1, 1): one}) != DOPoly(gf27, {}, LinPoly.monomial(gf27, 2, one))


def test_evaluation_reads_the_frobenius_orbit_once(gf16, gf27):
    # DOPoly.__call__ runs on element indices, so the spy sits on the
    # field's index Frobenius kernel
    calls = []

    def frob_spy(frob):
        return lambda a, k: calls.append(k) or frob(a, k)

    for field in (gf16, gf27):
        with spied_kernel(field, "_frob", frob_spy):
            rng = random.Random(98)
            for _ in range(4):
                D = random_do(field, rng, max_index=2 * field.e, with_const=True)
                for x in field.elements():
                    calls.clear()
                    D(x)
                    assert len(calls) == field.e


def _frobenius_rows(D, x):
    """row_i = l_i + sum_j c_ij x^(p^j), indices mod e, so that
    D(x) = const + sum_i x^(p^i) row_i."""
    field = D.field
    p, e = field.p, field.e
    rows = [field.zero()] * e
    for k, c in enumerate(D.lin.coeffs):
        rows[k % e] = rows[k % e] + c
    for (i, j), c in D.quad.items():
        rows[i % e] = rows[i % e] + c * x ** (p**j)
    return rows


@pytest.mark.parametrize(
    "p,e", [(2, 4), (3, 3), (7, 1), (3, 6)], ids=["gf16", "gf27", "gf7", "gf729"]
)
def test_evaluation_takes_one_product_per_term_and_row(p, e):
    # DOPoly.__call__ sums x^(p^i) row_i: the spy on the field's index
    # product sees one call per quadratic triple and one per nonzero row
    field = FiniteField(p, e)
    rng = random.Random(99)
    c, d = (field.random_element(rng, nonzero=True) for _ in range(2))
    zero = field.zero()
    polys = [hfe_keygen(field, random.Random(s)).public.poly for s in range(2)]
    polys += [random_do(field, rng, max_index=2 * e, with_const=True) for _ in range(4)]
    # additive terms at k and k + e share row k; the first pair cancels
    for a, b in ((c, -c), (d, c)):
        lin = [zero] * (2 * e)
        lin[e - 1], lin[2 * e - 1] = a, b
        polys.append(DOPoly(field, {(0, e): d}, LinPoly(field, lin)))
    # in characteristic 2 the top diagonal carries to the additive X^q
    polys.append(DOPoly(field, {(e - 1, e - 1): c, (0, 1): d}))
    xs = list(field.elements())
    if field.q > 100:
        xs = xs[:2] + rng.sample(xs[2:], 40)
    calls = []

    def mul_spy(mul):
        return lambda a, b: calls.append(None) or mul(a, b)

    for D in polys:
        with spied_kernel(field, "_mul", mul_spy):
            values = []
            for x in xs:
                calls.clear()
                values.append((D(x), len(calls)))
        for x, (v, count) in zip(xs, values):
            rows = _frobenius_rows(D, x)
            assert count == len(D._q) + sum(1 for r in rows if r)
            assert count <= len(D._q) + e
            assert v == oracles.do_eval(D, x)
            assert v == sum((x ** (p**i) * r for i, r in enumerate(rows)), D.const)
    if (p, e) == (3, 6):
        # the seeded public key: 21 quadratic terms and 6 rows, not 2 * 21 + 6
        D = polys[0]
        with spied_kernel(field, "_mul", mul_spy):
            calls.clear()
            D(field.generator())
        assert (len(D._q), len(calls)) == (21, 27)
