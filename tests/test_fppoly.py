"""Prime-field polynomial kernel, checked against sympy where it overlaps."""

import random

import pytest
from sympy import GF, Poly, symbols

import skewlin._fppoly as fp

X = symbols("x")


def to_sympy(coeffs, p):
    return Poly(list(reversed(coeffs)) or [0], X, domain=GF(p))


def random_poly(rng, p, max_deg):
    return fp.trim([rng.randrange(p) for _ in range(max_deg + 1)])


def test_degree_and_trim():
    assert fp.degree([]) == -1
    assert fp.degree(fp.trim([0, 0])) == -1
    assert fp.trim([1, 2, 0, 0]) == [1, 2]
    assert fp.degree([3, 0, 1]) == 2


def test_arithmetic_matches_sympy():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(60):
            a = random_poly(rng, p, 5)
            b = random_poly(rng, p, 5)
            assert to_sympy(fp.add(a, b, p), p) == to_sympy(a, p) + to_sympy(b, p)
            assert to_sympy(fp.mul(a, b, p), p) == to_sympy(a, p) * to_sympy(b, p)
            assert to_sympy(fp.sub(a, b, p), p) == to_sympy(a, p) - to_sympy(b, p)


def test_divmod_rebuilds():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(80):
            a = random_poly(rng, p, 6)
            b = random_poly(rng, p, 3)
            if not b:
                continue
            q, r = fp.divmod_(a, b, p)
            assert fp.degree(r) < fp.degree(b)
            assert fp.add(fp.mul(q, b, p), r, p) == a


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        fp.divmod_([1, 1], [], 2)


def test_gcd_and_bezout():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(60):
            a = random_poly(rng, p, 5)
            b = random_poly(rng, p, 5)
            if not a and not b:
                continue
            g, u, v = fp.ext_gcd(a, b, p)
            assert g == fp.gcd(a, b, p)
            assert fp.add(fp.mul(u, a, p), fp.mul(v, b, p), p) == g
            if g:
                assert g[-1] == 1  # monic
                assert not fp.mod(a, g, p) and not fp.mod(b, g, p)


def test_inv_mod():
    rng = random.Random(4)
    m = [1, 1, 0, 1]  # x^3 + x + 1, irreducible over GF(2)
    for _ in range(30):
        a = fp.mod(random_poly(rng, 2, 5), m, 2)
        if not a:
            continue
        inv = fp.inv_mod(a, m, 2)
        assert fp.mod(fp.mul(a, inv, 2), m, 2) == [1]
    with pytest.raises(ZeroDivisionError):
        fp.inv_mod([], m, 2)


def test_irreducibility_matches_sympy():
    for p, max_deg in ((2, 6), (3, 4), (5, 3)):
        for deg in range(1, max_deg + 1):
            for m in fp.iter_monic(p, deg):
                assert fp.is_irreducible(m, p) == to_sympy(m, p).is_irreducible, (p, m)


def test_first_irreducible_frozen():
    # smallest monic irreducible by the low-digit-first counter, checked by hand
    assert fp.first_irreducible(2, 2) == [1, 1, 1]
    assert fp.first_irreducible(2, 3) == [1, 1, 0, 1]
    assert fp.first_irreducible(2, 4) == [1, 1, 0, 0, 1]
    assert fp.first_irreducible(2, 6) == [1, 1, 0, 0, 0, 0, 1]
    assert fp.first_irreducible(3, 2) == [1, 0, 1]
    assert fp.first_irreducible(3, 3) == [1, 2, 0, 1]
    assert fp.first_irreducible(2, 1) == [0, 1]
    assert fp.first_irreducible(5, 1) == [0, 1]


def test_factor_monic():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(40):
            a = random_poly(rng, p, 6)
            if fp.degree(a) < 1:
                continue
            a = fp.monic(a, p)
            parts = fp.factor_monic(a, p)
            rebuilt = [1]
            for g, k in parts:
                assert fp.is_irreducible(g, p)
                assert g[-1] == 1
                for _ in range(k):
                    rebuilt = fp.mul(rebuilt, g, p)
            assert rebuilt == a
            # agreement with sympy's factorisation
            _, sy = to_sympy(a, p).factor_list()
            sy_parts = sorted(
                (tuple(int(c) % p for c in reversed(f.all_coeffs())), k) for f, k in sy
            )
            assert sorted((tuple(g), k) for g, k in parts) == sy_parts


def test_first_factor_matches_factor_monic():
    # the distinct-degree search returns the first factor of factor_monic;
    # products of two factors of one degree make the candidate scan run
    rng = random.Random(7)
    kinds = {"irreducible": 0, "equal_degree": 0}
    for p in (2, 3, 5):
        for i in range(400):
            if i % 4:
                a = fp.monic(random_poly(rng, p, 6), p)
            else:
                k = rng.randint(1, 3)
                b, c = (fp.monic(random_poly(rng, p, k), p) for _ in range(2))
                a = fp.mul(b, c, p)
            if fp.degree(a) < 1:
                continue
            parts = fp.factor_monic(a, p)
            nu = fp.first_factor(a, p)
            assert nu == parts[0][0], (p, a)
            kinds["irreducible"] += parts == [(a, 1)]
            k = fp.degree(nu)
            kinds["equal_degree"] += sum(fp.degree(g) == k for g, _ in parts) > 1
    assert kinds["irreducible"] >= 50 and kinds["equal_degree"] >= 100


def test_first_factor_divides_far_less_than_full_factorisation(monkeypatch):
    # the degree-30 minimal polynomial of the central Y modulo a product of
    # random monic factors of degrees 1 and 2 over GF(2^10), twist 10: its
    # first factor has degree 10, which trial division reaches only after
    # every candidate of lower degree.  Counting Z_p divisions keeps the
    # comparison deterministic.
    from skewlin.decompose import minimal_polynomial
    from skewlin.fields import FiniteField
    from skewlin.skew import SkewPoly

    field = FiniteField(2, 10)
    rng = random.Random(1)
    parts = [
        SkewPoly(field, [field.random_element(rng) for _ in range(d)] + [field.one()], 10)
        for d in (1, 2)
    ]
    f = parts[0] * parts[1]
    mu, _ = minimal_polynomial(SkewPoly.monomial(field, 1, field.one(), 10), f)
    assert fp.degree(mu) == 30
    calls = []
    real = fp.divmod_
    monkeypatch.setattr(fp, "divmod_", lambda a, b, p: calls.append(b) or real(a, b, p))
    nu = fp.first_factor(mu, 2)
    searched = len(calls)
    calls.clear()
    full = fp.factor_monic(mu, 2)
    assert nu == full[0][0] and fp.degree(nu) == 10
    assert 4 * searched < len(calls)


def test_pow_mod():
    rng = random.Random(6)
    m = [1, 0, 1]  # x^2 + 1 over GF(3), irreducible
    assert fp.is_irreducible(m, 3)
    for _ in range(20):
        a = fp.mod(random_poly(rng, 3, 4), m, 3)
        n = rng.randrange(1, 60)
        naive = [1]
        for _ in range(n):
            naive = fp.mod(fp.mul(naive, a, 3), m, 3)
        assert fp.pow_mod(a, n, m, 3) == naive

