"""Finite field construction and arithmetic."""

import inspect
import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import GF, Poly, symbols

import skewlin.fields as fields
from skewlin import _fppoly
from skewlin.decompose import decompose_complete
from skewlin.errors import (
    ContextMismatchError,
    DegreeMismatchError,
    InvariantError,
    NonPrimeError,
    PolicyBoundError,
    ReducibleModulusError,
)
from skewlin.fields import MAX_FIELD_SIZE, TABLE_MAX_Q, FiniteField
from skewlin.fqpoly import FqPoly
from skewlin.hfe import DOPoly, HFEPublicKey, difference_poly, hfe_encrypt
from skewlin.skew import SkewPoly

ALL_FIELDS = ["gf2", "gf4", "gf8", "gf9", "gf16", "gf27", "gf64", "gf256"]

X = symbols("x")


def test_default_moduli_frozen():
    assert FiniteField(2, 2).modulus == (1, 1, 1)
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)
    assert FiniteField(2, 4).modulus == (1, 1, 0, 0, 1)
    assert FiniteField(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert FiniteField(3, 2).modulus == (1, 0, 1)
    assert FiniteField(3, 3).modulus == (1, 2, 0, 1)
    assert FiniteField(5, 1).modulus == (0, 1)


def test_construction_errors():
    with pytest.raises(NonPrimeError):
        FiniteField(4, 2)
    with pytest.raises(NonPrimeError):
        FiniteField(1, 3)
    with pytest.raises(DegreeMismatchError):
        FiniteField(2, 0)
    with pytest.raises(PolicyBoundError):
        FiniteField(2, 21)
    assert MAX_FIELD_SIZE == 1 << 20
    FiniteField(2, 20)  # exactly at the cap is allowed
    with pytest.raises(ReducibleModulusError):
        FiniteField(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(DegreeMismatchError):
        FiniteField(2, 2, modulus=[1, 1, 2])  # not monic
    with pytest.raises(DegreeMismatchError):
        FiniteField(2, 2, modulus=[1, 1, 1, 1])  # wrong length


def test_cap_before_primality_and_power(monkeypatch):
    # a prime p = 2^61 - 1 would need about 10^9 trial divisions, and
    # 3^(10^8) a 160-million-bit power: the cap refuses both first
    def no_trial_division(n):
        raise AssertionError("primality test ran before the cap")

    monkeypatch.setattr(fields, "_is_prime", no_trial_division)
    start = time.perf_counter()
    with pytest.raises(PolicyBoundError):
        FiniteField(2**61 - 1, 1)
    monkeypatch.undo()
    with pytest.raises(PolicyBoundError):
        FiniteField(3, 10**8)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NonPrimeError):
        FiniteField(4, 2)
    with pytest.raises(NonPrimeError):
        FiniteField(1, 3)


def test_element_validation(gf9):
    with pytest.raises(DegreeMismatchError):
        gf9.element([1])
    with pytest.raises(DegreeMismatchError):
        gf9.element([1, 3])
    with pytest.raises(DegreeMismatchError):
        gf9.from_int(9)
    with pytest.raises(DegreeMismatchError):
        gf9.from_int(-1)


NON_INTEGERS = {
    "from_int": lambda field: field.from_int(3.0),
    "scalar": lambda field: field.scalar(1.0),
    "element": lambda field: field.element([1.7] + [0] * (field.e - 1)),
    "combine": lambda field: field.combine([1.5] + [0] * (field.e - 1)),
    "modulus": lambda field: FiniteField(field.p, field.e, [float(c) for c in field.modulus]),
    "basis": lambda field: FiniteField(
        field.p, field.e, field.modulus, [[1.0] + list(b.digits[1:]) for b in field.basis]
    ),
}


@pytest.mark.parametrize("entry", NON_INTEGERS)
@pytest.mark.parametrize("p, e", [(2, 4), (3, 2), (2, 16)])
def test_non_integers_are_rejected_at_the_call(p, e, entry):
    # each would pass the range checks and become an index that a kernel
    # or repr rejects later, or a digit truncated by int()
    field = FiniteField(p, e)
    with pytest.raises(DegreeMismatchError, match="must be integers"):
        NON_INTEGERS[entry](field)


def test_from_int_roundtrip(gf8, gf27):
    for field in (gf8, gf27):
        seen = set()
        for n in range(field.q):
            x = field.from_int(n)
            assert x.as_int() == n
            seen.add(x.digits)
        assert len(seen) == field.q


def test_gf4_hand_table(gf4):
    t = gf4.generator()
    one = gf4.one()
    # modulus t^2 + t + 1 = 0, so t^2 = t + 1
    assert t * t == t + one
    assert t * (t + one) == one
    assert (t + one) * (t + one) == t
    assert t.inv() == t + one


def sympy_product(field, a, b):
    """Digits of a * b from sympy: the digit polynomials multiplied over
    GF(p) and reduced modulo the field modulus."""

    def poly(digits):
        return Poly(list(reversed(digits)), X, domain=GF(field.p))

    rem = (poly(a.digits) * poly(b.digits)).rem(poly(field.modulus))
    digits = [int(c) % field.p for c in reversed(rem.all_coeffs())]
    return tuple(digits + [0] * (field.e - len(digits)))


@pytest.mark.parametrize(
    "p, e, modulus, samples",
    [
        (2, 4, None, None),
        (3, 3, None, None),
        (5, 2, None, None),
        (2, 4, [1, 1, 1, 1, 1], None),
        (2, 8, None, 300),
        (3, 6, None, 300),
        (7, 3, None, 300),
        (2, 16, None, 300),
    ],
    ids=["gf16", "gf27", "gf25", "gf16-m11111", "gf256", "gf729", "gf343", "gf65536"],
)
def test_mul_matches_sympy(p, e, modulus, samples):
    # every pair when samples is None, else that many random pairs
    field = FiniteField(p, e, modulus)
    if samples is None:
        pairs = [(a, b) for a in field.elements() for b in field.elements()]
    else:
        rng = random.Random(p * 100 + e)
        pairs = [(field.random_element(rng), field.random_element(rng)) for _ in range(samples)]
    for a, b in pairs:
        assert (a * b).digits == sympy_product(field, a, b), (a, b)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_field_axioms(name, request):
    field = request.getfixturevalue(name)
    rng = random.Random(7)
    zero, one = field.zero(), field.one()
    for _ in range(40):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a + (-a) == zero
        if a:
            assert a * a.inv() == one
            assert a / a == one


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_frobenius_is_p_power(name, request):
    field = request.getfixturevalue(name)
    rng = random.Random(8)
    for _ in range(25):
        a = field.random_element(rng)
        b = field.random_element(rng)
        assert a.frobenius(1) == a ** field.p
        assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
        assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)
        assert a.frobenius(field.e) == a
        k = rng.randrange(2 * field.e)
        assert a.frobenius(k) == a ** (field.p ** (k % field.e))
        assert a.frobenius(-1).frobenius(1) == a


def test_pow_and_unit_group(gf9):
    rng = random.Random(9)
    one = gf9.one()
    for _ in range(20):
        a = gf9.random_element(rng, nonzero=True)
        assert a ** (gf9.q - 1) == one
        assert a**0 == one
        assert a**-1 == a.inv()
        assert a**5 * a**3 == a**8


def test_zero_division(gf4):
    with pytest.raises(ZeroDivisionError):
        gf4.zero().inv()
    with pytest.raises(ZeroDivisionError):
        gf4.one() / gf4.zero()


def test_context_mismatch(gf4, gf9):
    with pytest.raises(ContextMismatchError):
        gf4.one() + gf9.one()
    other_gf4 = FiniteField(2, 2, basis=[[1, 1], [0, 1]])
    with pytest.raises(ContextMismatchError):
        gf4.one() + other_gf4.one()
    with pytest.raises(TypeError):
        gf4.one() + 1


# a plain int where an element belongs: each raises TypeError at the call
NON_ELEMENT_OPERANDS = {
    "x*2": lambda F, L, D: F.one() * 2,
    "x+2": lambda F, L, D: F.one() + 2,
    "x/2": lambda F, L, D: F.one() / 2,
    "L*3": lambda F, L, D: L * 3,
    "L.left_scalar(3)": lambda F, L, D: L.left_scalar(3),
    "L(3)": lambda F, L, D: L(3),
    "D(3)": lambda F, L, D: D(3),
    "difference_poly(D,3)": lambda F, L, D: difference_poly(D, 3),
    "F.coordinates(3)": lambda F, L, D: F.coordinates(3),
    "dense(3)": lambda F, L, D: D.to_fqpoly()(3),
    "dense.shift(3)": lambda F, L, D: D.to_fqpoly().shift(3),
    "encrypt(3)": lambda F, L, D: hfe_encrypt(HFEPublicKey(D), 3),
}


@pytest.mark.parametrize("name", list(NON_ELEMENT_OPERANDS))
def test_non_element_operand_raises_type_error(gf16, name):
    L = SkewPoly(gf16, [gf16.generator(), gf16.one()])
    D = DOPoly(gf16, {(0, 1): gf16.one()}, L)
    with pytest.raises(TypeError, match=r"expected (FqElem|SkewPoly), got int"):
        NON_ELEMENT_OPERANDS[name](gf16, L, D)


def test_equality_and_hash(gf4):
    assert FiniteField(2, 2) == gf4
    assert hash(FiniteField(2, 2)) == hash(gf4)
    assert FiniteField(2, 3) != gf4
    a = gf4.from_int(3)
    assert a == FiniteField(2, 2).from_int(3)
    assert len({a, FiniteField(2, 2).from_int(3)}) == 1


def test_immutability(gf4):
    with pytest.raises(AttributeError):
        gf4.p = 3
    with pytest.raises(AttributeError):
        gf4.one().digits = (0, 0)


def test_custom_basis_coordinates():
    # normal-ish basis for GF(4): {t, t^2} = {t, t+1}
    field = FiniteField(2, 2, basis=[[0, 1], [1, 1]])
    for n in range(4):
        x = field.from_int(n)
        coords = field.coordinates(x)
        assert field.combine(coords) == x
    # t has coordinates (1, 0) in this basis
    assert field.coordinates(field.element([0, 1])) == (1, 0)
    # 1 = t + t^2 has coordinates (1, 1)
    assert field.coordinates(field.one()) == (1, 1)
    with pytest.raises(DegreeMismatchError):
        FiniteField(2, 2, basis=[[1, 1], [1, 1]])  # dependent
    with pytest.raises(DegreeMismatchError):
        field.combine([1])


def test_default_basis_coordinates(gf8):
    rng = random.Random(10)
    for _ in range(10):
        x = gf8.random_element(rng)
        assert gf8.coordinates(x) == x.digits
        assert gf8.combine(x.digits) == x


def test_elements_iterator(gf9):
    elems = list(gf9.elements())
    assert len(elems) == 9
    assert len(set(elems)) == 9
    assert elems[0] == gf9.zero()
    assert elems[1] == gf9.one()


def test_random_element_uniform(gf8):
    # 10^4 draws over 8 cells: expect 1250 per cell, tolerance 5 sigma (~165)
    rng = random.Random(11)
    counts = [0] * 8
    for _ in range(10_000):
        counts[gf8.random_element(rng).as_int()] += 1
    assert all(abs(c - 1250) <= 165 for c in counts), counts


def test_random_nonzero(gf2):
    rng = random.Random(12)
    for _ in range(50):
        assert gf2.random_element(rng, nonzero=True) == gf2.one()


def test_prime_field_behaves(gf2):
    one = gf2.one()
    assert one + one == gf2.zero()
    assert gf2.scalar(7) == one
    assert one.frobenius(1) == one


def test_repr(gf4, gf2):
    assert repr(gf4) == "GF(2^2)"
    assert repr(gf2) == "GF(2)"


# ----------------------------------------------------------------------
# the index kernels against the digit convolution


def base_p_digits(n, p, e):
    out = []
    for _ in range(e):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def digit_power(field, d, n):
    """d^n by square and multiply on digit tuples with the digit convolution."""
    result = base_p_digits(1, field.p, field.e)
    while n:
        if n & 1:
            result = field._mul_digits(result, d)
        d = field._mul_digits(d, d)
        n >>= 1
    return result


def check_unary(field, x):
    """-x, x^-1, x^(p^k) for every k, and a few powers of x, against the
    digit tuples and the digit convolution; and x's index and digits."""
    p, e, q = field.p, field.e, field.q
    n = x.as_int()
    d = base_p_digits(n, p, e)
    assert x.digits == d
    assert field.from_int(n) == x and field.element(d).as_int() == n
    assert (-x).digits == tuple((-c) % p for c in d)
    for k in range(-1, e + 1):
        assert x.frobenius(k).digits == digit_power(field, d, p ** (k % e)), (x, k)
    for m in (0, 1, 2, 3, q - 2, q - 1, q):
        assert (x**m).digits == digit_power(field, d, m), (x, m)
    if n:
        inv = x.inv()
        assert field._mul_digits(d, inv.digits) == base_p_digits(1, p, e)
        assert (x**-1) == inv and (x ** -(q - 2)) == x


def check_binary(field, x, y):
    p = field.p
    a, b = x.digits, y.digits
    assert (x + y).digits == tuple((u + v) % p for u, v in zip(a, b)), (x, y)
    assert (x - y).digits == tuple((u - v) % p for u, v in zip(a, b)), (x, y)
    assert (x * y).digits == field._mul_digits(a, b), (x, y)


# beside the fixture fields: a modulus whose root t is not primitive, a
# non-default basis, and a prime field
ORACLE_FIELDS = {
    "gf16-m11111": (2, 4, [1, 1, 1, 1, 1], None),
    "gf9-basis": (3, 2, None, [(1, 2), (2, 2)]),
    "gf7": (7, 1, None, None),
}


@pytest.mark.parametrize("name", ALL_FIELDS + list(ORACLE_FIELDS))
def test_index_kernels_match_digit_oracle_exhaustively(name, request):
    if name in ORACLE_FIELDS:
        field = FiniteField(*ORACLE_FIELDS[name])
    else:
        field = request.getfixturevalue(name)
    elems = list(field.elements())
    for x in elems:
        check_unary(field, x)
        for y in elems:
            check_binary(field, x, y)


def irreducible_field():
    """GF(p^e) with q <= 2^13 on a random irreducible modulus: characteristic
    2 on both sides of TABLE_MAX_Q, and odd characteristic."""
    shapes = [(p, e) for p in (2, 3, 5, 7, 13) for e in range(1, 14) if p**e <= 1 << 13]
    # half of the draws sit at the bound: GF(2^12) on tables, GF(2^13) without
    near_bound = st.sampled_from([(2, 12), (2, 13)])

    @st.composite
    def build(draw):
        p, e = draw(st.one_of(st.sampled_from(shapes), near_bound))
        low = draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e))
        modulus = low + [1]
        assume(_fppoly.is_irreducible(modulus, p))
        return FiniteField(p, e, modulus)

    return build()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(field=irreducible_field(), data=st.data())
def test_index_kernels_match_digit_oracle_on_random_moduli(field, data):
    index = st.integers(0, field.q - 1)
    xs = [field.from_int(data.draw(index)) for _ in range(4)]
    for x in xs:
        check_unary(field, x)
        for y in xs:
            check_binary(field, x, y)
    assert (field._exp is not None) == (field.p == 2 and field.q <= TABLE_MAX_Q)


@pytest.mark.parametrize("p, e", [(2, 1), (2, 4), (2, 12), (2, 13), (2, 20), (3, 1), (3, 6)])
def test_tables_are_built_at_construction(p, e):
    assert TABLE_MAX_Q == 1 << 12
    field = FiniteField(p, e)
    if p == 2 and field.q <= TABLE_MAX_Q:
        assert len(field._exp) == 4 * (field.q - 1) + 1 and len(field._log) == field.q
    else:
        # above the bound the bit kernels run and for odd p the digit
        # kernels, neither with a table
        assert field._exp is None and field._log is None


# the bit kernels of characteristic 2 above TABLE_MAX_Q, on each default
# modulus and on one dense modulus (its bits as an integer)
BIT_FIELDS = [(13, None), (13, 0x2807), (16, None), (16, 0x15A7D), (20, None), (20, 0x12E43B)]


@pytest.mark.parametrize("e, bits", BIT_FIELDS)
def test_bit_kernels_match_digit_oracle(e, bits):
    modulus = None if bits is None else [(bits >> i) & 1 for i in range(e + 1)]
    field = FiniteField(2, e, modulus)
    assert field.q > TABLE_MAX_Q
    rng = random.Random(e)
    xs = [field.zero(), field.one()] + [field.from_int(rng.randrange(1, field.q)) for _ in range(4)]
    for x in xs:
        check_unary(field, x)
        for y in xs:
            check_binary(field, x, y)
            if y:
                assert (x / y).digits == field._mul_digits(x.digits, y.inv().digits)
                assert (x / y) * y == x
    assert field._exp is None


def test_bit_kernel_inverse_of_every_element_of_gf8192():
    field = FiniteField(2, 13)
    one = field.one()
    for x in itertools.islice(field.elements(), 1, None):
        assert x * x.inv() == one, x


# tables (up to GF(2^12), the largest table field), bit kernels, digit
# kernels and a prime field
ROW_FIELDS = [(2, 4), (2, 8), (2, 12), (2, 13), (3, 6), (7, 1)]


@pytest.mark.parametrize("p, e", ROW_FIELDS)
def test_row_kernels_match_elementwise_kernels(p, e):
    field = FiniteField(p, e)
    q, mul, add, frob = field.q, field._mul, field._add, field._frob
    rng = random.Random(q)
    samples = [0, 1, q - 1] + [rng.randrange(2, q) for _ in range(6)]
    # zero entries inside and at both ends of the row
    row = [0, *samples, 0]
    for c in samples:  # a zero scalar, one, and others
        for start in (0, 1, 5):
            out = [rng.randrange(q) for _ in range(start + len(row) + 2)]
            want = list(out)
            for j, t in enumerate(row, start):
                want[j] = add(want[j], mul(c, t))
            assert field._addmul(out, c, row, start) is None
            assert out == want, (c, start)
    for k in range(e):
        got = field._frob_row(row, k)
        assert got == [frob(x, k) for x in row] and got is not row, k
        # k is read mod e, as by _frob
        assert field._frob_row(row, k + e) == got == field._frob_row(row, k - e)


@pytest.mark.parametrize("e", [4, 12])
def test_table_frobenius_rows_are_built_on_first_use(e):
    field = FiniteField(2, e)
    rows = inspect.getclosurevars(field._frob_row).nonlocals["frob_rows"]
    assert rows == {}
    field._frob_row([1, 2], 0)
    assert rows == {}
    field._frob_row([1, 2], 1)
    assert list(rows) == [1] and len(rows[1]) == field.q
    assert rows[1] == [field._frob(x, 1) for x in range(field.q)]


def test_degenerate_trace_form_raises(monkeypatch):
    # no default-basis construction inverts a matrix, so a fresh field
    # meets the patched inverse first in its trace form
    field = FiniteField(2, 3)
    monkeypatch.setattr(fields._linalg, "inv", lambda a, p: None)
    with pytest.raises(InvariantError, match="trace form of the field basis is degenerate"):
        field.dual_frobenius()
    assert field._dual_frob is None
    monkeypatch.undo()
    assert len(field.dual_frobenius()) == field.e and field._dual_frob is not None


@pytest.mark.parametrize("e", [8, 12, 16])
def test_char2_decomposition_runs_no_digit_kernel(monkeypatch, e):
    # the digit kernels are module functions, which the odd-p kernels look
    # up at call time: spying on the module catches any call to them
    calls = []
    for name in ("_mul_digits", "_inv_digits", "_frob_digits"):
        original = getattr(fields, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(fields, name, spy)
    # built under the spy, so that the table build is covered too
    field = FiniteField(2, e)
    rng = random.Random(5)
    f = SkewPoly.one(field)
    for _ in range(3):
        f = f * SkewPoly(field, [field.random_element(rng), field.one()])
    dec = decompose_complete(f, rng=random.Random(1))
    acc = SkewPoly.one(field)
    for g in dec.factors:
        acc = acc * g
    assert acc.left_scalar(dec.unit) == f and len(dec.factors) == 3
    assert calls == []
    # the spy does see the digit kernels where they run
    t = FiniteField(3, 2).generator()
    assert t * t.frobenius(1) == t**4
    assert calls[:2] == ["_frob_digits", "_mul_digits"]


def smallest_primitive_index(field):
    """By brute force: the least index whose powers reach every nonzero element."""
    for n in range(1, field.q):
        x, seen = field.from_int(n), set()
        y = x
        while y not in seen:
            seen.add(y)
            y = y * x
        if len(seen) == field.q - 1:
            return n


@pytest.mark.parametrize(
    "p, e, modulus",
    [(2, 1, None), (2, 4, None), (2, 4, [1, 1, 1, 1, 1]), (2, 6, None), (2, 8, None)],
)
def test_generator_is_smallest_primitive_index(p, e, modulus):
    field = FiniteField(p, e, modulus)
    g = field._exp[1]
    assert g == smallest_primitive_index(field)
    if modulus == [1, 1, 1, 1, 1]:
        # the modulus root t (index 2) has order 5 here, so it is not the generator
        assert g == 3 and field.generator() ** 5 == field.one()


GENERATOR_FIELDS = [
    *[(p, 1, [m, 1]) for p in (2, 3, 5, 7) for m in range(p)],
    *[(p, e, None) for p, e in ((2, 1), (7, 1), (2, 4), (2, 8), (2, 16), (3, 6), (5, 2), (7, 3))],
    (2, 4, [1, 1, 1, 1, 1]),
    (3, 2, [2, 2, 1]),
]


@pytest.mark.parametrize("p, e, modulus", GENERATOR_FIELDS)
def test_modulus_vanishes_at_generator(p, e, modulus):
    field = FiniteField(p, e, modulus)
    t = field.generator()
    assert FqPoly(field, [field.scalar(c) for c in field.modulus])(t) == field.zero()
    # t has digits (0, 1) above degree 1; the default modulus of degree 1 is X
    assert t.as_int() == (p if e > 1 else -field.modulus[0] % p)
    if e == 1 and modulus is None:
        assert t == field.zero()


@pytest.mark.parametrize(
    "modulus",
    [
        [0, 0, 1],  # t^2: the walk of t reaches zero at its last power
        [0, 0, 0, 0, 1],  # t^4: t is nilpotent
        [1, 0, 1, 0, 1],  # (t^2 + t + 1)^2
        [1, 0, 1, 1, 1],  # (t + 1)(t^3 + t + 1): units of order at most 7
    ],
    ids=["t2", "t4", "square", "coprime"],
)
def test_table_build_rejects_a_field_without_generator(monkeypatch, modulus):
    # a reducible modulus admitted past the irreducibility test
    monkeypatch.setattr(_fppoly, "is_irreducible", lambda m, p: True)
    with pytest.raises(InvariantError, match="no element of order"):
        FiniteField(2, len(modulus) - 1, modulus)
