"""Twisted polynomial ring: product, two-sided division, gcds, gcldf."""

import random

import pytest

import oracles
import skewlin.linpoly as linpoly
import skewlin.serialize as ser
import skewlin.skew as skew
from skewlin.errors import (
    BothZeroError,
    ContextMismatchError,
    DegreeMismatchError,
    InvariantError,
    TwistMismatchError,
)
from skewlin.skew import SkewPoly, gcd_left, gcd_right, gcldf


def random_skew(field, rng, max_deg, twist=1, monic=False):
    n = rng.randrange(max_deg + 1)
    coeffs = [field.random_element(rng) for _ in range(n)]
    coeffs.append(
        field.one() if monic else field.random_element(rng, nonzero=True)
    )
    return SkewPoly(field, coeffs, twist)


def test_commutation_rule(gf4):
    # Y * a = sigma(a) * Y with sigma(a) = a^2
    t = gf4.generator()
    Y = SkewPoly.monomial(gf4, 1, gf4.one())
    a = SkewPoly(gf4, [t])
    assert Y * a == SkewPoly(gf4, [gf4.zero(), t * t])
    assert a * Y == SkewPoly.monomial(gf4, 1, t)


def test_product_matches_composition(gf8, gf9):
    for field in (gf8, gf9):
        rng = random.Random(40)
        for _ in range(15):
            f = random_skew(field, rng, 3)
            g = random_skew(field, rng, 3)
            assert f * g == f.compose(g)


def test_ring_axioms(gf9):
    rng = random.Random(41)
    one = SkewPoly.one(gf9)
    for _ in range(12):
        f = random_skew(gf9, rng, 3)
        g = random_skew(gf9, rng, 3)
        h = random_skew(gf9, rng, 3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert f * one == f and one * f == f
        assert (f * g).degree == f.degree + g.degree


def test_noncommutative(gf4):
    t = gf4.generator()
    Y = SkewPoly.monomial(gf4, 1, gf4.one())
    a = SkewPoly(gf4, [t])
    assert Y * a != a * Y


def test_division_hand_value(gf4):
    t = gf4.generator()
    one = gf4.one()
    zero = gf4.zero()
    # (Y^2 + Y) / (Y + t): quotient Y + t, remainder t + 1
    f = SkewPoly(gf4, [zero, one, one])
    g = SkewPoly(gf4, [t, one])
    q, r = f.divmod_right(g)
    assert q == SkewPoly(gf4, [t, one])
    assert r == SkewPoly(gf4, [t + one])
    assert q * g + r == f


def test_divmod_right_properties(gf8, gf9, gf16):
    for field in (gf8, gf9, gf16):
        rng = random.Random(42)
        for _ in range(20):
            f = random_skew(field, rng, 5)
            g = random_skew(field, rng, 3)
            q, r = f.divmod_right(g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


def test_divmod_left_properties(gf8, gf9, gf16):
    for field in (gf8, gf9, gf16):
        rng = random.Random(43)
        for _ in range(20):
            f = random_skew(field, rng, 5)
            g = random_skew(field, rng, 3)
            q, r = f.divmod_left(g)
            assert g * q + r == f
            assert r.is_zero or r.degree < g.degree


def test_divide_by_zero(gf4):
    f = SkewPoly.one(gf4)
    with pytest.raises(ZeroDivisionError):
        f.divmod_right(SkewPoly.zero(gf4))
    with pytest.raises(ZeroDivisionError):
        f.divmod_left(SkewPoly.zero(gf4))


def test_division_checks_counter(gf4):
    # conftest turns the multiply-back verification on for the whole session
    assert skew.CHECK_DIVISION
    before = skew.DIVISION_CHECKS
    f = SkewPoly(gf4, [gf4.one(), gf4.one(), gf4.one()])
    g = SkewPoly(gf4, [gf4.generator(), gf4.one()])
    f.divmod_right(g)
    f.divmod_left(g)
    assert skew.DIVISION_CHECKS == before + 2


def test_unchecked_division_makes_no_product(gf16, monkeypatch):
    # with the multiply-back off, neither division builds a ring product
    # (every product, plain, fused or a multiply-back, runs the list core
    # skew._product), counts a check, or inverts the lead of a monic divisor
    monkeypatch.setattr(skew, "CHECK_DIVISION", False)
    rng = random.Random(45)
    products, inversions = [], []
    real_product, real_inv = skew._product, type(gf16.one()).inv

    def spy(field, twist, a, b, addend=()):
        products.append(b)
        return real_product(field, twist, a, b, addend)

    monkeypatch.setattr(skew, "_product", spy)
    f = SkewPoly(gf16, [gf16.random_element(rng) for _ in range(6)] + [gf16.generator()])
    g = SkewPoly(gf16, [gf16.random_element(rng) for _ in range(3)] + [gf16.one()])
    before = skew.DIVISION_CHECKS
    monkeypatch.setattr(type(gf16.one()), "inv", lambda a: inversions.append(a) or real_inv(a))
    qr, rr = f.divmod_right(g)
    ql, rl = f.divmod_left(g)
    assert products == [] and inversions == []
    assert skew.DIVISION_CHECKS == before
    fused = lambda x, y, z: SkewPoly._of(gf16, skew._product(gf16, 1, x._c, y._c, z._c), 1)
    assert fused(qr, g, rr) == f and fused(g, ql, rl) == f
    # the spy sees the fused product where one runs
    assert products == [g._c, ql._c]
    products.clear()
    qr * g
    assert products == [g._c]


def test_tampered_division_raises_invariant_error(gf4, monkeypatch):
    # with the multiply-back check on, a product core that no longer
    # rebuilds the dividend is reported as a broken invariant
    assert skew.CHECK_DIVISION
    f = SkewPoly(gf4, [gf4.one(), gf4.one(), gf4.one()])
    g = SkewPoly(gf4, [gf4.generator(), gf4.one()])
    zero = lambda field, twist, a, b, addend=(): []
    monkeypatch.setattr(skew, "_product", zero)
    with pytest.raises(InvariantError):
        f.divmod_right(g)
    with pytest.raises(InvariantError):
        f.divmod_left(g)
    # and inside a Euclid step of either gcd, which divides no other way
    with pytest.raises(InvariantError):
        gcd_left(f, g)
    with pytest.raises(InvariantError):
        gcd_right(f, g)


def test_every_euclid_step_is_checked(gf16, gf27):
    # each step of both Euclid loops is one checked division; gcldf adds
    # its two witness divisions, except for a unit gcld, whose cofactors
    # are the inputs themselves
    assert skew.CHECK_DIVISION
    units = {False: 0, True: 0}
    for field in (gf16, gf27):
        rng = random.Random(47)
        for twist in (1, 2):
            for _ in range(5):
                c = random_skew(field, rng, 2, twist)
                f = c * random_skew(field, rng, 4, twist)
                g = c * random_skew(field, rng, 4, twist)
                gcd, left = oracles.euclid(f, g, oracles.divmod_left)
                right = oracles.euclid(f, g, oracles.divmod_right)[1]
                assert left and right
                unit = gcd.degree == 0
                units[unit] += 1
                witnesses = 0 if unit else 2
                for run, steps in ((gcd_left, left), (gcd_right, right), (gcldf, left + witnesses)):
                    before = skew.DIVISION_CHECKS
                    run(f, g)
                    assert skew.DIVISION_CHECKS - before == steps, (field, run.__name__)
    assert units[False] and units[True]


def test_monic_normalisations(gf9):
    rng = random.Random(44)
    for _ in range(15):
        f = random_skew(gf9, rng, 4)
        ml = f.monic_left()
        mr = f.monic_right()
        assert ml.is_monic and mr.is_monic
        assert ml.degree == f.degree == mr.degree
        assert ml == f.left_scalar(f.lead.inv())
        # monic_left preserves the left ideal, monic_right the right ideal
        assert f.mod_right(ml).is_zero and ml.mod_right(f).is_zero
        assert f.mod_left(mr).is_zero and mr.mod_left(f).is_zero


def test_scalar_sides(gf16):
    rng = random.Random(45)
    for _ in range(10):
        f = random_skew(gf16, rng, 3)
        c = gf16.random_element(rng, nonzero=True)
        cs = SkewPoly(gf16, [c])
        assert f.left_scalar(c) == cs * f
        assert f.right_scalar(c) == f * cs


def test_gcd_right_properties(gf8, gf9):
    for field in (gf8, gf9):
        rng = random.Random(46)
        for _ in range(25):
            f = random_skew(field, rng, 4)
            g = random_skew(field, rng, 4)
            d = gcd_right(f, g)
            assert d.is_monic
            assert f.mod_right(d).is_zero and g.mod_right(d).is_zero
            # a planted common right factor divides the gcd
            h = random_skew(field, rng, 2, monic=True)
            d2 = gcd_right(f * h, g * h)
            assert d2.mod_right(h).is_zero


def test_gcd_left_properties(gf8, gf9):
    for field in (gf8, gf9):
        rng = random.Random(47)
        for _ in range(25):
            f = random_skew(field, rng, 4)
            g = random_skew(field, rng, 4)
            d = gcd_left(f, g)
            assert d.is_monic
            assert f.mod_left(d).is_zero and g.mod_left(d).is_zero
            h = random_skew(field, rng, 2, monic=True)
            d2 = gcd_left(h * f, h * g)
            assert d2.mod_left(h).is_zero


def test_gcd_with_zero(gf4):
    f = SkewPoly(gf4, [gf4.generator(), gf4.one()])
    z = SkewPoly.zero(gf4)
    assert gcd_right(f, z) == f.monic_left()
    assert gcd_right(z, f) == f.monic_left()
    assert gcd_left(f, z) == f.monic_right()
    with pytest.raises(BothZeroError):
        gcd_right(z, z)
    with pytest.raises(BothZeroError):
        gcd_left(z, z)


def test_twist2_ring(gf16):
    rng = random.Random(48)
    for _ in range(15):
        f = random_skew(gf16, rng, 3, twist=2)
        g = random_skew(gf16, rng, 3, twist=2)
        assert f * g == f.compose(g)
        q, r = f.divmod_right(g)
        assert q * g + r == f
        d = gcd_right(f, g)
        assert f.mod_right(d).is_zero and g.mod_right(d).is_zero


def test_conversion_roundtrip(gf9):
    # the additive and the skew encodings read back to the same polynomial,
    # and the polynomial evaluates as sum c_i x^(p^i)
    rng = random.Random(49)
    for _ in range(10):
        f = random_skew(gf9, rng, 4)
        text = ser.dumps(ser.linpoly_to_obj(f))
        assert ser.skewpoly_from_obj(gf9, ser.parse_text(text)) == f
        text = ser.dumps(ser.skewpoly_to_obj(f))
        assert ser.linpoly_from_obj(gf9, ser.parse_text(text)) == f
        for x in gf9.elements():
            acc = gf9.zero()
            for i, c in enumerate(f.coeffs):
                acc = acc + c * x ** (gf9.p ** i)
            assert f(x) == acc


def test_one_type_for_ore_correspondence(gf9, gf16):
    # additive and skew polynomials are one class; the ring product is
    # composition of the induced maps, checked at every point
    assert linpoly.LinPoly is SkewPoly
    for field in (gf9, gf16):
        for twist in (1, 2):
            rng = random.Random(49)
            for _ in range(6):
                f = random_skew(field, rng, 3, twist=twist)
                g = random_skew(field, rng, 3, twist=twist)
                fg = f * g
                for x in field.elements():
                    assert fg(x) == f(g(x))
                assert ser.dumps(ser.linpoly_to_obj(f)) == ser.dumps(ser.skewpoly_to_obj(f))


def test_gcldf_witnesses(gf8, gf9, gf16):
    for field in (gf8, gf9, gf16):
        rng = random.Random(50)
        for _ in range(20):
            L1 = random_skew(field, rng, 4)
            L2 = random_skew(field, rng, 4)
            G, A, B = gcldf(L1, L2)
            assert G.is_monic
            # witnesses are exact symbolic compositions, no reduction
            assert G.compose(A) == L1
            assert G.compose(B) == L2


def test_gcldf_planted_left_factor(gf8):
    rng = random.Random(51)
    for _ in range(20):
        G0 = random_skew(gf8, rng, 3, monic=True)
        A0 = random_skew(gf8, rng, 2)
        B0 = random_skew(gf8, rng, 2)
        L1 = G0 * A0
        L2 = G0 * B0
        G, _, _ = gcldf(L1, L2)
        # the planted factor left-divides the reported gcd
        assert G.mod_left(G0).is_zero


def test_gcldf_zero_cases(gf4):
    L = SkewPoly(gf4, [gf4.generator(), gf4.one()])
    Z = SkewPoly.zero(gf4)
    G, A, B = gcldf(L, Z)
    assert G.compose(A) == L and B.is_zero
    with pytest.raises(BothZeroError):
        gcldf(Z, Z)


def test_gcldf_checks_its_gcd_divides(gf8, monkeypatch):
    # a gcd that left-divides neither input is caught, not returned
    rng = random.Random(52)
    L1, L2 = random_skew(gf8, rng, 3), random_skew(gf8, rng, 3)
    monkeypatch.setattr(skew, "gcd_left", lambda f, g: SkewPoly.monomial(gf8, 5, gf8.one()))
    with pytest.raises(InvariantError, match="does not left-divide its inputs"):
        gcldf(L1, L2)


def _counting_rem_left(monkeypatch):
    """Count the calls of skew._rem_left, the left remainder core."""
    calls = []
    real = skew._rem_left

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(skew, "_rem_left", counted)
    return calls


def test_gcldf_unit_returns_its_inputs_undivided(gf8, gf9, monkeypatch):
    # 1 . L = L exactly: a unit gcld hands back the inputs themselves,
    # after its Euclid loop and no left division more
    calls = _counting_rem_left(monkeypatch)
    seen = 0
    for field in (gf8, gf9):
        rng = random.Random(53)
        for twist in (1, 2):
            for _ in range(20):
                L1, L2 = random_skew(field, rng, 4, twist), random_skew(field, rng, 4, twist)
                gcd, steps = oracles.euclid(L1, L2, oracles.divmod_left)
                if gcd.degree != 0:
                    continue
                seen += 1
                calls.clear()
                G, A, B = gcldf(L1, L2)
                assert G == SkewPoly.one(field, twist)
                assert A is L1 and B is L2
                assert len(calls) == steps
    assert seen >= 20


def test_gcldf_non_unit_runs_both_witness_divisions(gf8, gf9, monkeypatch):
    calls = _counting_rem_left(monkeypatch)
    for field in (gf8, gf9):
        rng = random.Random(54)
        for twist in (1, 2):
            for _ in range(10):
                c = random_skew(field, rng, 3, twist, monic=True)
                if c.degree == 0:
                    continue
                L1 = c * random_skew(field, rng, 3, twist)
                L2 = c * random_skew(field, rng, 3, twist)
                steps = oracles.euclid(L1, L2, oracles.divmod_left)[1]
                calls.clear()
                G, A, B = gcldf(L1, L2)
                assert G.degree >= c.degree
                assert len(calls) == steps + 2
                # the two witness divisions divide the inputs by G
                assert calls[-2:] == [G._c, G._c]
                assert G * A == L1 and G * B == L2


def test_peer_errors(gf4, gf9):
    f4 = SkewPoly.one(gf4)
    f9 = SkewPoly.one(gf9)
    with pytest.raises(ContextMismatchError):
        f4 * f9
    with pytest.raises(TypeError):
        f4 + 1
    with pytest.raises(TwistMismatchError):
        SkewPoly.one(gf4, twist=1) * SkewPoly.one(gf4, twist=2)


def test_monomial_index_is_a_nonnegative_integer(gf16):
    t = gf16.generator()
    assert SkewPoly.monomial(gf16, 2, t).coeffs == (gf16.zero(), gf16.zero(), t)
    assert SkewPoly.monomial(gf16, 0, t) == SkewPoly(gf16, [t])
    for index in (-2, -1, 1.5, 2.0, "1"):
        with pytest.raises(DegreeMismatchError):
            SkewPoly.monomial(gf16, index, t)


def test_eq_hash_immutable(gf4):
    a = SkewPoly.one(gf4)
    b = SkewPoly.one(gf4)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.coeffs = ()
