"""Prime-field polynomial kernel, checked against sympy where it overlaps."""

import random

import pytest
from sympy import GF, Poly, symbols

import skewlin._fppoly as fp
from skewlin.errors import InvariantError

from oracles import factor_monic

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
            g = fp.gcd(a, b, p)
            assert to_sympy(g, p) == to_sympy(a, p).gcd(to_sympy(b, p))
            if g:
                assert g[-1] == 1  # monic
                assert not fp.mod(a, g, p) and not fp.mod(b, g, p)


def residues(p, deg):
    """Every polynomial of degree below deg over Z_p, trimmed."""
    for n in range(p**deg):
        yield fp.trim([(n // p**i) % p for i in range(deg)])


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
    # exhaustively over irreducible moduli for odd p: every nonzero residue
    # has a reduced inverse, and an unreduced a inverts like its residue
    for p, m in ((3, [1, 2, 0, 1]), (5, [2, 0, 1])):
        assert fp.is_irreducible(m, p)
        for a in residues(p, fp.degree(m)):
            if not a:
                with pytest.raises(ZeroDivisionError):
                    fp.inv_mod(a, m, p)
                continue
            inv = fp.inv_mod(a, m, p)
            assert fp.degree(inv) < fp.degree(m)
            assert fp.mod(fp.mul(a, inv, p), m, p) == [1]
            assert fp.inv_mod(fp.add(a, fp.mul([1, 2], m, p), p), m, p) == inv
    # modulo a reducible m, a inverts exactly when it is coprime to m
    for p, m in ((3, [1, 1, 1, 1]), (5, [4, 0, 1])):  # (x+1)(x^2+1), (x-1)(x+1)
        assert not fp.is_irreducible(m, p)
        for a in residues(p, fp.degree(m)):
            if fp.gcd(a, m, p) != [1]:
                with pytest.raises(ZeroDivisionError):
                    fp.inv_mod(a, m, p)
            else:
                assert fp.mod(fp.mul(a, fp.inv_mod(a, m, p), p), m, p) == [1]
    with pytest.raises(ZeroDivisionError):
        fp.inv_mod([1, 1], [1, 1, 1, 1], 3)  # x + 1 divides the modulus


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


# first_irreducible(2, e) at e = 1 .. 20, the default modulus of every
# GF(2^e), little-endian
FIRST_IRREDUCIBLE_F2 = {
    1: [0, 1],
    2: [1, 1, 1],
    3: [1, 1, 0, 1],
    4: [1, 1, 0, 0, 1],
    5: [1, 0, 1, 0, 0, 1],
    6: [1, 1, 0, 0, 0, 0, 1],
    7: [1, 1, 0, 0, 0, 0, 0, 1],
    8: [1, 1, 0, 1, 1, 0, 0, 0, 1],
    9: [1, 1, 0, 0, 0, 0, 0, 0, 0, 1],
    10: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
    11: [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    12: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    13: [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    14: [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    15: [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    16: [1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    17: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    18: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    19: [1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    20: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
}


def test_f2_search_matches_factor_monic_exhaustively():
    # every monic polynomial over F_2 of degree 1 .. 12 against the trial
    # division oracle: the first factor is the oracle's first (least
    # degree, then first in iter_monic order, which equal-degree products
    # pin down), and the irreducibility verdict is the oracle's; and the
    # default moduli of GF(2^e), e <= 20, are the pinned ones
    equal_degree = 0
    for d in range(1, 13):
        for m in fp.iter_monic(2, d):
            parts = factor_monic(m, 2)
            nu = fp.first_factor(m, 2)
            assert nu == parts[0][0], m
            assert fp.is_irreducible(m, 2) == (parts == [(m, 1)]), m
            k = fp.degree(nu)
            equal_degree += sum(fp.degree(g) == k for g, _ in parts) > 1
    assert equal_degree > 1000
    for e, m in FIRST_IRREDUCIBLE_F2.items():
        assert fp.first_irreducible(2, e) == m, e


@pytest.mark.parametrize("p", [2, 3])
def test_first_irreducible_raises_when_no_candidate_qualifies(p, monkeypatch):
    # a gcd that hands back the modulus makes every candidate look
    # reducible, on the int search over F_2 and on the list search for
    # odd p alike; the scan then runs dry and raises instead of returning
    if p == 2:
        monkeypatch.setattr(fp, "_gcd2", lambda a, b: a)
    else:
        monkeypatch.setattr(fp, "gcd", lambda a, m, p: fp.monic(m, p))
    # x^3 + x + 1 over F_2 and x^3 + 2x + 1 over F_3 are irreducible, yet
    # the faulty search calls them reducible
    cubic = {2: [1, 1, 0, 1], 3: [1, 2, 0, 1]}[p]
    assert not fp.is_irreducible(cubic, p)
    with pytest.raises(InvariantError, match="irreducibles exist in every degree"):
        fp.first_irreducible(p, 3)


def test_factor_monic():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(40):
            a = random_poly(rng, p, 6)
            if fp.degree(a) < 1:
                continue
            a = fp.monic(a, p)
            parts = factor_monic(a, p)
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
            parts = factor_monic(a, p)
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
    # every candidate of lower degree.  Counting reductions keeps the
    # comparison deterministic: over F_2 the search reduces on ints, each
    # one _mod2 call (a square modulo mu, a gcd step or a candidate tried),
    # and factor_monic divides through fp.divmod_.
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
    calls, reductions = [], []
    real, real_mod2 = fp.divmod_, fp._mod2
    monkeypatch.setattr(fp, "divmod_", lambda a, b, p: calls.append(b) or real(a, b, p))
    monkeypatch.setattr(fp, "_mod2", lambda a, m: reductions.append(m) or real_mod2(a, m))
    nu = fp.first_factor(mu, 2)
    searched = len(reductions)
    assert searched and not calls  # the F_2 search makes no list division
    full = factor_monic(mu, 2)
    assert nu == full[0][0] and fp.degree(nu) == 10
    assert 4 * searched < len(calls)


def test_pow_mod(monkeypatch):
    rng = random.Random(6)
    for p in (2, 3, 5):
        m = fp.first_irreducible(p, 3)
        for a in ([], [1], [0, 1], *(random_poly(rng, p, 5) for _ in range(4))):
            naive = [1]
            for n in range(41):
                assert fp.pow_mod(a, n, m, p) == naive, (p, a, n)
                naive = fp.mod(fp.mul(naive, a, p), m, p)
    # x^p for p = 2 is one square
    a, m = [0, 1, 1], [1, 1, 0, 1]
    square = fp.mod(fp.mul(a, a, 2), m, 2)
    calls = []
    real = fp.mul
    monkeypatch.setattr(fp, "mul", lambda a, b, q: calls.append((a, b)) or real(a, b, q))
    assert fp.pow_mod(a, 2, m, 2) == square == [0, 1]
    assert calls == [(a, a)]
