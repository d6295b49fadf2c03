"""Finite field construction and arithmetic."""

import random
import time

import pytest

import skewlin.fields as fields
from skewlin.errors import (
    ContextMismatchError,
    DegreeMismatchError,
    NonPrimeError,
    PolicyBoundError,
    ReducibleModulusError,
)
from skewlin.fields import MAX_FIELD_SIZE, FiniteField, field_create

ALL_FIELDS = ["gf2", "gf4", "gf8", "gf9", "gf16", "gf27", "gf64", "gf256"]


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


def test_equality_and_hash(gf4):
    assert FiniteField(2, 2) == gf4
    assert hash(FiniteField(2, 2)) == hash(gf4)
    assert FiniteField(2, 3) != gf4
    assert field_create(2, 2) == gf4
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
