"""Keygen, encryption, decryption, and left-factor key recovery."""

import hashlib
import json
import random

import pytest

import skewlin.hfe as hfe
from skewlin import serialize as ser
from skewlin.errors import (
    AttackFailedError,
    ContextMismatchError,
    DegreeBoundTooSmallError,
    InvariantError,
    NotAPermutationError,
    ParseError,
    PolicyBoundError,
    ShapeViolationError,
)
from skewlin.fields import FiniteField, FqElem
from skewlin.hfe import (
    AttackResult,
    DOPoly,
    HFEKeyPair,
    HFEPublicKey,
    HFESecretKey,
    decrypt_with_factors,
    difference_poly,
    do_compose_lin,
    gcldf_attack,
    hfe_decrypt,
    hfe_encrypt,
    hfe_keygen,
    to_multivariate,
    try_left_factor,
)
from skewlin.linpoly import LinPoly
from skewlin.skew import SkewPoly, gcldf

from oracles import keypair_consistent_by_differences, matmul


def foldfree_instance(field):
    """A composed public key whose left factor survives reduction exactly."""
    t = field.generator()
    core = DOPoly(
        field,
        {(0, 1): t, (0, 2): field.from_int(77)},
        LinPoly(field, [field.from_int(9), field.from_int(140)]),
        field.zero(),
    )
    rng = random.Random(3)
    while True:
        outer = LinPoly(field, [field.random_element(rng) for _ in range(3)])
        if not outer.is_zero and outer.is_permutation():
            break
    return outer, core, do_compose_lin(outer, core, "left")


def test_keygen_structure(gf256, gf9):
    for field in (gf256, gf9):
        kp = hfe_keygen(field, random.Random(42))
        E = kp.public.poly
        sec = kp.secret
        assert E.has_quadratic and not E.const
        assert E.degree < field.q
        assert sec.bound == field.p**4
        assert sec.outer.is_permutation() and sec.inner.is_permutation()
        assert sec.core.degree <= sec.bound and not sec.core.const
        rebuilt = do_compose_lin(
            sec.outer, do_compose_lin(sec.inner, sec.core, "right"), "left"
        ).reduce()
        assert rebuilt == E


def test_keygen_checks_the_public_map(gf16, monkeypatch):
    # a public map with a constant term, or with no quadratic term, is refused
    real = hfe._public_map
    broken = (
        lambda secret: real(secret) + DOPoly(gf16, {}, None, gf16.one()),
        lambda secret: DOPoly(gf16, {}, secret.outer.reduce()),
    )
    for public_map in broken:
        monkeypatch.setattr(hfe, "_public_map", public_map)
        with pytest.raises(InvariantError, match="lost its quadratic part or gained a constant"):
            hfe_keygen(gf16, random.Random(0))
    monkeypatch.setattr(hfe, "_public_map", real)
    assert hfe_keygen(gf16, random.Random(0)).is_consistent()


def test_keygen_checks_its_core_sampling(gf16):
    # an rng that draws nothing but zeros never yields a quadratic core:
    # key generation gives up after its 1000 tries, each of which draws the
    # e digits of four coefficients (X^3's, and the additive X's, X^2's and
    # X^4's), and draws nothing more
    tries = 1000 * 4 * gf16.e

    class Zeros(random.Random):
        def randrange(self, *args, **kwargs):
            draws.append(args)
            assert len(draws) <= tries, "drew past the core's tries"
            return 0

    draws = []
    with pytest.raises(InvariantError, match="failed to sample a quadratic core"):
        hfe_keygen(gf16, Zeros(0), degree_bound=4)
    assert len(draws) == tries


def test_keygen_checks_its_permutation_sampling(gf16):
    # an rng that draws ones for the core (a quadratic one, at the first
    # try) and zeros after it never yields a permutation: key generation
    # gives up after 1000 tries of the outer map, each of which draws the
    # e digits of e coefficients, and draws nothing more
    core = 4 * gf16.e
    tries = core + 1000 * gf16.e * gf16.e

    class OnesThenZeros(random.Random):
        def randrange(self, *args, **kwargs):
            draws.append(args)
            assert len(draws) <= tries, "drew past the permutation's tries"
            return int(len(draws) <= core)

    draws = []
    with pytest.raises(InvariantError, match="failed to sample an additive permutation"):
        hfe_keygen(gf16, OnesThenZeros(0), degree_bound=4)
    assert len(draws) == tries


def test_keygen_bound_validation(gf4):
    with pytest.raises(DegreeBoundTooSmallError):
        hfe_keygen(gf4, random.Random(0), degree_bound=3)
    kp = hfe_keygen(gf4, random.Random(0), degree_bound=4)
    assert kp.secret.core.degree <= 4


def test_keygen_multivariate_agrees(gf256):
    kp = hfe_keygen(gf256, random.Random(42))
    field, E, mv = kp.public.field, kp.public.poly, kp.public.multivariate
    rng = random.Random(1)
    for _ in range(30):
        x = field.random_element(rng)
        assert mv.evaluate(field.coordinates(x)) == field.coordinates(E(x))


def test_public_key_derives_forms_once(gf256, monkeypatch):
    calls = []

    def counting(E):
        calls.append(E)
        return to_multivariate(E)

    monkeypatch.setattr(hfe, "to_multivariate", counting)
    kp = hfe_keygen(gf256, random.Random(42))
    assert calls == []  # keygen derives no forms
    assert kp.public.field is gf256
    mv = kp.public.multivariate
    assert kp.public.multivariate is mv
    assert calls == [kp.public.poly]
    assert mv == to_multivariate(kp.public.poly)


def monomial(field, x, c=1):
    """c X^x as a DOPoly, for an exponent x of base-p digit sum at most 2
    and a coefficient index c."""
    return DOPoly._of(field, [(x, c)])


def with_core(secret, core):
    return HFESecretKey(secret.field, secret.outer, core, secret.inner, secret.bound)


def test_keypair_check_sees_every_degree_two_difference(gf16, gf27):
    # a DO monomial, the constant included, added to E or to the core
    # changes one side of S . D . T = E as a map, since S and T permute
    for field, seed in ((gf16, 5), (gf27, 6)):
        kp = hfe_keygen(field, random.Random(seed))
        assert kp.is_consistent()
        for x in [0, *hfe._do_slots(field.p, field.e)]:
            m = monomial(field, x)
            for pair in (
                HFEKeyPair(HFEPublicKey(kp.public.poly + m), kp.secret),
                HFEKeyPair(kp.public, with_core(kp.secret, kp.secret.core + m)),
            ):
                assert not pair.is_consistent(), x
                assert not keypair_consistent_by_differences(pair), x


def test_keypair_check_composes_instead_of_walking(gf256, monkeypatch):
    kp = hfe_keygen(gf256, random.Random(3))
    bad = HFEKeyPair(kp.public, with_core(kp.secret, kp.secret.core + monomial(gf256, 3)))

    def refuse(*args):
        raise AssertionError("coordinate route")

    monkeypatch.setattr(hfe._graywalk, "differences", refuse)
    monkeypatch.setattr(hfe, "to_multivariate", refuse)
    monkeypatch.setattr(SkewPoly, "to_matrix", refuse)
    assert kp.is_consistent()
    assert not bad.is_consistent()


CHECK_FIELDS = [(2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (3, 6), (5, 2), (7, 2)]


def same_map(L, rng):
    """L as another additive polynomial with the same map: of twist 2 when
    e is odd (2 is then invertible mod e), else of twist 1, with each
    coefficient at an index that folds to its own, some of them beyond e."""
    field, e = L.field, L.field.e
    twist = 2 if e % 2 else 1
    inv = pow(twist, -1, e)
    at = {k * inv % e + e * rng.randrange(2): c for k, c in enumerate(L.reduce().coeffs)}
    out = SkewPoly(field, [at.get(i, field.zero()) for i in range(max(at) + 1)], twist)
    assert out.reduce() == L.reduce()
    return out


def tampered_pairs():
    """40 key pairs over each of CHECK_FIELDS, cycling through five kinds:
    intact; one E term and one core term shifted by a random coefficient
    (zero included); one inner coefficient redrawn; and outer and inner
    written as the same maps, unreduced or of twist 2, beside E unreduced."""
    for p, e in CHECK_FIELDS:
        field = FiniteField(p, e)
        exps = [0, *hfe._do_slots(p, e)]
        for i in range(40):
            rng = random.Random(1000 * p + 10 * e + i)
            kp = hfe_keygen(field, rng)
            pub, sec = kp.public, kp.secret
            kind = i % 5
            shift = monomial(field, rng.choice(exps), rng.randrange(field.q))
            if kind == 1:
                pub = HFEPublicKey(pub.poly + shift)
            elif kind == 2:
                sec = with_core(sec, sec.core + shift)
            elif kind == 3:
                cs = list(sec.inner.reduce().coeffs) + [field.zero()] * e
                cs[rng.randrange(e)] = field.random_element(rng)
                sec = HFESecretKey(field, sec.outer, sec.core, SkewPoly(field, cs), sec.bound)
            elif kind == 4:
                outer, inner = same_map(sec.outer, rng), same_map(sec.inner, rng)
                sec = HFESecretKey(field, outer, sec.core, inner, sec.bound)
                # X^(x q) = X^x on the field: E unreduced, the same map
                terms = [(x * field.q, c) for x, c in pub.poly._t.items()]
                pub = HFEPublicKey(DOPoly._of(field, terms))
            yield HFEKeyPair(pub, sec)


def test_keypair_check_matches_difference_oracle():
    verdicts = []
    for pair in tampered_pairs():
        want = keypair_consistent_by_differences(pair)
        assert pair.is_consistent() == want, pair
        text = ser.dumps(ser.keypair_to_obj(pair))
        if want:
            assert ser.keypair_from_obj(json.loads(text)).is_consistent()
        else:
            with pytest.raises(ParseError, match="does not compose"):
                ser.keypair_from_obj(json.loads(text))
        verdicts.append(want)
    assert len(verdicts) == 320
    assert 150 < verdicts.count(False) < 250


def test_encrypt_decrypt_roundtrip(gf256, gf9):
    for field in (gf256, gf9):
        kp = hfe_keygen(field, random.Random(7))
        rng = random.Random(8)
        for _ in range(20):
            m = field.random_element(rng)
            y = hfe_encrypt(kp.public, m)
            pre = kp.secret
            ms = hfe_decrypt(pre, y)
            assert m in ms
            for m2 in ms:
                assert hfe_encrypt(kp.public, m2) == y
            assert ms == sorted(ms, key=lambda v: v.as_int())


# sha256 of repr([hfe_encrypt(public, m).as_int() for m in field.elements()])
# under hfe_keygen(field, random.Random(seed)), as term-by-term evaluation
# of the public polynomial gave them
PINNED_ENCRYPTIONS = {
    (2, 4): (
        "67426baa37a7d417bb207823f817409b2c6dbfeda6ea25f90b4cfdd002efb596",
        "e608c2959b41591cd64926b0248b0002b158b84562616989c927ee39682fdb15",
    ),
    (2, 8): (
        "44de328386f0079a745eab8945c1756687c1fbdc4bef834840d44410df4520f6",
        "76423c0ab77d2e5c96094337e77c59a3036ff7f38d224c57d79dba501d76ad2c",
    ),
    (3, 3): (
        "5ceec2ed45c67bc5eca312bb5831b9f6701463a3bcfa650d6ab7df916796676f",
        "e36c1a18b3fc617356a367a3e5e2ee5092b06bd61ec810dd74efb183b8e247b4",
    ),
    (3, 6): (
        "eee6b441fbebaa1aed98a4563d02ecabeb3738db5b392e932f0788e5f80f40f6",
        "ba0ff3e115f232eefeb0a9ccc18d414f1e6f68d439e8d46694c15f7a671ecc48",
    ),
    (5, 2): (
        "b3039ccab6722df95eb050e107c9a9edef3055c2033045d2afca10143f794240",
        "a330c8a7d0ca74fd5930a06899eff31bf1b2ddc1e0d29776dd4ac7f07c215664",
    ),
    (7, 1): (
        "b2029208ab329b2ff6d0f74adad809024532cfc4dd538d950e8ff7d7ce7999f9",
        "6ac28b0f3d05bf11839c27f8b9fadf0e8d28a7b0c2ff86831895a1c7e6bce834",
    ),
}


@pytest.mark.parametrize(
    "p,e", sorted(PINNED_ENCRYPTIONS), ids=[f"gf{p**e}" for p, e in sorted(PINNED_ENCRYPTIONS)]
)
def test_encrypt_bytes_are_pinned(p, e):
    field = FiniteField(p, e)
    for seed, want in enumerate(PINNED_ENCRYPTIONS[(p, e)]):
        kp = hfe_keygen(field, random.Random(seed))
        values = [hfe_encrypt(kp.public, m).as_int() for m in field.elements()]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == want, seed


def test_decrypt_lists_all_preimages(gf9):
    # GF(3^3) and GF(2^4) with bases whose coordinates differ from the digits
    gf27_basis = FiniteField(3, 3, basis=((1, 2, 0), (0, 1, 1), (2, 0, 1)))
    gf16_basis = FiniteField(2, 4, basis=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    for field in (gf27_basis, gf16_basis):
        assert field.coordinates(field.from_int(5)) != field.from_int(5).digits
    for field in (gf9, FiniteField(3, 5), gf27_basis, gf16_basis):
        kp = hfe_keygen(field, random.Random(11))
        E = kp.public.poly
        expect = {y: [] for y in field.elements()}
        for x in field.elements():
            expect[E(x)].append(x)
        for y, xs in expect.items():
            assert hfe_decrypt(kp.secret, y) == xs


@pytest.mark.parametrize(
    "field",
    [
        FiniteField(2, 4),
        FiniteField(2, 8),
        FiniteField(3, 3, basis=((1, 2, 0), (0, 1, 1), (2, 0, 1))),
    ],
    ids=["gf16", "gf256", "gf27-basis"],
)
def test_inverse_matrices_invert_the_layers(field):
    p, e = field.p, field.e
    ident = [[int(i == j) for j in range(e)] for i in range(e)]
    for seed in range(3):
        sec = hfe_keygen(field, random.Random(seed)).secret
        for inv, layer in ((sec.outer_inverse(), sec.outer), (sec.inner_inverse(), sec.inner)):
            assert matmul(inv, layer.to_matrix(), p) == ident
            assert matmul(layer.to_matrix(), inv, p) == ident


@pytest.mark.parametrize(
    "field",
    [FiniteField(2, 8), FiniteField(3, 3, basis=((1, 2, 0), (0, 1, 1), (2, 0, 1)))],
    ids=["gf256", "gf27-basis"],
)
def test_decrypt_makes_no_field_arithmetic(field, monkeypatch):
    # once the table and the inverses are built, a ciphertext is decrypted
    # on Z_p coordinates: no field product, Frobenius power or evaluation
    kp = hfe_keygen(field, random.Random(4))
    sec = kp.secret
    sec.core_table()
    sec.outer_inverse()
    sec.inner_inverse()
    ms = [field.from_int(i) for i in (0, 1, 5, field.q - 1)]
    ys = [hfe_encrypt(kp.public, m) for m in ms]
    calls = []

    def spy(cls, name):
        real = getattr(cls, name)

        def counted(*args):
            calls.append(f"{cls.__name__}.{name}")
            return real(*args)

        monkeypatch.setattr(cls, name, counted)

    spy(FqElem, "__mul__")
    spy(FqElem, "frobenius")
    spy(SkewPoly, "__call__")
    got = [hfe_decrypt(sec, y) for y in ys]
    assert calls == []
    monkeypatch.undo()
    for m, y, xs in zip(ms, ys, got):
        assert m in xs and all(hfe_encrypt(kp.public, x) == y for x in xs)


def test_decrypt_rejects_a_layer_that_is_no_permutation(gf16):
    # X^2 + X sends 0 and 1 to 0, so it permutes nothing
    bad = LinPoly(gf16, [gf16.one(), gf16.one()])
    one = LinPoly.one(gf16)
    core = DOPoly(gf16, {(0, 1): gf16.generator()})
    for outer, inner in ((bad, one), (one, bad)):
        sec = HFESecretKey(gf16, outer, core, inner, 3)
        with pytest.raises(NotAPermutationError):
            hfe_decrypt(sec, gf16.one())


def test_permutation_core_gives_singletons(gf8):
    # x^3 = x^(2^0 + 2^1) permutes GF(8) since gcd(3, 7) = 1
    core = DOPoly(gf8, {(0, 1): gf8.one()})
    ident = LinPoly.one(gf8)
    sec = HFESecretKey(gf8, ident, core, ident, bound=4)
    for x in gf8.elements():
        got = hfe_decrypt(sec, core(x))
        assert got == [x]


def test_encrypt_context_mismatch(gf9, gf4):
    kp = hfe_keygen(gf9, random.Random(2))
    with pytest.raises(ContextMismatchError):
        hfe_encrypt(kp.public, gf4.one())
    with pytest.raises(ContextMismatchError):
        hfe_decrypt(kp.secret, gf4.one())


def test_keys_reject_layers_over_another_field():
    # one size, two moduli: different fields, which no key may mix
    f1 = FiniteField(2, 4, modulus=[1, 1, 0, 0, 1])
    f2 = FiniteField(2, 4, modulus=[1, 0, 0, 1, 1])
    one1, one2 = LinPoly.one(f1), LinPoly.one(f2)
    core = DOPoly(f2, {(0, 1): f2.generator()})
    with pytest.raises(ContextMismatchError):
        decrypt_with_factors(one1, core, f2.one())
    for outer, inner in ((one1, one2), (one2, one1)):
        with pytest.raises(ContextMismatchError):
            HFESecretKey(f2, outer, core, inner, 3)
    with pytest.raises(ContextMismatchError):
        HFESecretKey(f1, one1, core, one1, 3)
    kp1, kp2 = hfe_keygen(f1, random.Random(1)), hfe_keygen(f2, random.Random(1))
    with pytest.raises(ContextMismatchError):
        HFEKeyPair(kp1.public, kp2.secret)
    assert HFEKeyPair(kp2.public, kp2.secret).is_consistent()


def test_decrypt_policy_cap(gf16):
    kp = hfe_keygen(gf16, random.Random(3))
    y = hfe_encrypt(kp.public, gf16.from_int(5))
    assert hfe_decrypt(kp.secret, y, max_q=16)
    with pytest.raises(PolicyBoundError):
        hfe_decrypt(kp.secret, y, max_q=8)
    with pytest.raises(PolicyBoundError):
        decrypt_with_factors(LinPoly.one(gf16), kp.secret.core, y, max_q=8)


def test_decrypt_with_factors_unit_left_bruteforce(gf16):
    rng = random.Random(4)
    one = LinPoly.one(gf16)
    D = DOPoly(gf16, {(0, 1): gf16.generator()}, one)
    for _ in range(5):
        z = gf16.random_element(rng)
        pre = decrypt_with_factors(one, D, z)
        assert pre == [x for x in gf16.elements() if D(x) == z]
    # a nonzero constant and an unreduced index: X^(2 + 2^5) acts as X^4 on GF(2^4)
    D = DOPoly(
        gf16,
        {(1, gf16.e + 1): gf16.from_int(6), (0, 2): gf16.generator()},
        LinPoly(gf16, [gf16.from_int(3), gf16.zero(), gf16.one()]),
        gf16.from_int(11),
    )
    values = [D(x) for x in gf16.elements()]
    for z in gf16.elements():
        assert decrypt_with_factors(one, D, z) == [
            x for x, v in zip(gf16.elements(), values) if v == z
        ]


@pytest.mark.parametrize(
    "field",
    [FiniteField(2, 4), FiniteField(3, 3, basis=((1, 2, 0), (0, 1, 1), (2, 0, 1)))],
    ids=["gf16", "gf27-basis"],
)
def test_decrypt_with_factors_matches_bruteforce(field):
    # a random permutation left factor that is not 1, over a core with a constant
    rng = random.Random(12)
    one = LinPoly.one(field)
    while True:
        L = LinPoly(field, [field.random_element(rng) for _ in range(field.e)])
        if L.reduce() != one.reduce() and L.is_permutation():
            break
    D = DOPoly(
        field,
        {(0, 1): field.generator(), (1, 2): field.from_int(5)},
        LinPoly(field, [field.from_int(2), field.one()]),
        field.from_int(7),
    )
    images = [L(D(x)) for x in field.elements()]
    for y in field.elements():
        want = [x for x, v in zip(field.elements(), images) if v == y]
        assert decrypt_with_factors(L, D, y) == want


def test_decrypt_with_factors_checks_cap_before_inverting(gf16):
    # the cap is checked first, so a left factor that is no permutation
    # is never inverted
    D = DOPoly(gf16, {(0, 1): gf16.generator()})
    with pytest.raises(PolicyBoundError):
        decrypt_with_factors(LinPoly.zero(gf16), D, gf16.one(), max_q=8)


def test_core_table_enforces_cap(gf16, monkeypatch):
    # over the default cap the walk never starts
    big = FiniteField(2, 17)
    one = LinPoly.one(big)
    key = HFESecretKey(big, one, DOPoly(big, {(0, 1): big.one()}), one, 3)

    def refuse(D):
        raise AssertionError("core walk started")

    with monkeypatch.context() as m:
        m.setattr(hfe, "to_multivariate", refuse)
        with pytest.raises(PolicyBoundError, match="exceeds decrypt cap 65536"):
            key.core_table()
    # a table already built is refused all the same
    one = LinPoly.one(gf16)
    key = HFESecretKey(gf16, one, DOPoly(gf16, {(0, 1): gf16.one()}), one, 3)
    assert key.core_table()
    with pytest.raises(PolicyBoundError, match="exceeds decrypt cap 8"):
        key.core_table(max_q=8)


def test_core_walk_reads_coordinate_forms(gf9, monkeypatch):
    kp = hfe_keygen(gf9, random.Random(11))
    D = kp.secret.core
    z = D(gf9.from_int(4))
    pre = [x for x in gf9.elements() if D(x) == z]
    y = kp.public.poly(gf9.from_int(4))
    plain = [x for x in gf9.elements() if kp.public.poly(x) == y]

    def refuse(self, x):
        raise AssertionError("per-point DOPoly evaluation")

    monkeypatch.setattr(DOPoly, "__call__", refuse)
    table = kp.secret.core_table()
    assert table[vector_index(gf9.coordinates(z), 3)] == [
        vector_index(gf9.coordinates(x), 3) for x in pre
    ]
    assert decrypt_with_factors(LinPoly.one(gf9), D, z) == pre
    assert hfe_decrypt(kp.secret, y) == plain


def vector_index(v, p):
    """The index of a coordinate vector: the base-p number with digits v, low first."""
    return sum(c * p**i for i, c in enumerate(v))


def per_point_core_table(field, core):
    """The oracle: the core's coordinate forms at the coordinates of every
    element, by vector index, each preimage list sorted."""
    evaluate = to_multivariate(core).evaluate
    table = {}
    for x in field.elements():
        xs = field.coordinates(x)
        table.setdefault(vector_index(evaluate(xs), field.p), []).append(vector_index(xs, field.p))
    return {y: sorted(ns) for y, ns in table.items()}


@pytest.mark.parametrize(
    "field",
    [
        FiniteField(2, 4),
        FiniteField(2, 8),
        FiniteField(3, 5),
        FiniteField(3, 3, basis=((1, 2, 0), (0, 1, 1), (2, 0, 1))),
    ],
    ids=["gf16", "gf256", "gf243", "gf27-basis"],
)
def test_core_walk_matches_per_point_loop(field):
    # every entry: the same keys, and the same coordinate vectors in the same order
    cores = [hfe_keygen(field, random.Random(seed)).secret.core for seed in range(3)]
    # a constant, an additive part and an unreduced index as well
    cores.append(
        DOPoly(
            field,
            {(0, 1): field.generator(), (1, field.e + 1): field.from_int(5)},
            LinPoly(field, [field.from_int(2), field.one()]),
            field.from_int(7),
        )
    )
    one = LinPoly.one(field)
    for core in cores:
        table = HFESecretKey(field, one, core, one, core.degree).core_table()
        assert table == per_point_core_table(field, core)


def test_try_left_factor_permutation_branch(gf16):
    rng = random.Random(5)
    for _ in range(10):
        L = LinPoly(gf16, [gf16.random_element(rng) for _ in range(4)])
        if not L.is_permutation():
            continue
        D = DOPoly(
            gf16,
            {(0, 1): gf16.random_element(rng, nonzero=True)},
            LinPoly(gf16, [gf16.random_element(rng)]),
        )
        E = do_compose_lin(L, D, "left").reduce()
        f = try_left_factor(L, E, 2 * gf16.q)
        assert f == D.reduce()


def test_try_left_factor_identity_peels_everything(gf16):
    E = DOPoly(gf16, {(0, 1): gf16.generator()}, LinPoly.one(gf16))
    f = try_left_factor(LinPoly.one(gf16), E, 2 * gf16.q)
    assert f == E.reduce()


def test_try_left_factor_respects_bound(gf16):
    # quad slot (2, 3) has exponent 12; a bound of 5 must reject it
    E = DOPoly(gf16, {(2, 3): gf16.one(), (0, 1): gf16.one()})
    ident = LinPoly.one(gf16)
    assert try_left_factor(ident, E, 5) is None
    assert try_left_factor(ident, E, 12) == E.reduce()


def test_try_left_factor_zero_left(gf16):
    E = DOPoly(gf16, {(0, 1): gf16.one()})
    assert try_left_factor(LinPoly.zero(gf16), E, 16) is None
    # a left factor that does not permute the field is not peeled either
    one = gf16.one()
    assert try_left_factor(LinPoly(gf16, [one, one]), E, 2 * gf16.q) is None


def full_peel(L, E, bound):
    """The peel by inversion and composition, for any permutation L."""
    f = do_compose_lin(L.reduce().inverse(), E.reduce(), "left", reduce=True)
    return f if f.degree <= bound else None


def unit_candidates(field, rng):
    """Left factors that reduce to a unit c X: c X itself, and the
    non-units c0 X + c1 X^(p^e) at twists 1 and e, whose reduce() folds
    to (c0 + c1) X."""
    e = field.e
    for _ in range(4):
        c = field.random_element(rng, nonzero=True)
        c0 = field.random_element(rng)
        c1 = c - c0
        if not c1:
            continue
        yield SkewPoly(field, [c])
        yield SkewPoly(field, [c0] + [field.zero()] * (e - 1) + [c1])
        yield SkewPoly(field, [c0, c1], twist=e)


@pytest.mark.parametrize("p, e", [(2, 4), (3, 3), (5, 2)])
def test_try_left_factor_unit_decided_by_degree(p, e, monkeypatch):
    # a unit c X peels to c^-1 E, of degree deg E: above the bound it is
    # refused with no matrix and no composition, at or below it the full
    # path runs, recompose check included
    field = FiniteField(p, e)
    rng = random.Random(10 * p + e)
    calls = []
    real_matrix, real_inverse, real_compose = SkewPoly.to_matrix, SkewPoly.inverse, do_compose_lin

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    for seed in range(2):
        E = hfe_keygen(field, random.Random(seed)).public.poly
        deg = E.reduce().degree
        for L in unit_candidates(field, rng):
            assert L.reduce().degree == 0
            for bound in (deg - 1, deg):
                expected = full_peel(L, E, bound)
                assert (expected is None) == (bound < deg)
                with monkeypatch.context() as m:
                    m.setattr(SkewPoly, "to_matrix", spy("to_matrix", real_matrix))
                    m.setattr(SkewPoly, "inverse", spy("inverse", real_inverse))
                    m.setattr(hfe, "do_compose_lin", spy("do_compose_lin", real_compose))
                    calls.clear()
                    got = try_left_factor(L, E, bound)
                assert got == expected
                if bound < deg:
                    assert calls == []
                else:
                    # inverse, its matrix, the peel and the recompose check
                    assert calls == ["inverse", "to_matrix", "do_compose_lin", "do_compose_lin"]
                    assert got.degree == deg


def test_attack_recovers_foldfree_composition(gf256):
    outer, core, E = foldfree_instance(gf256)
    res = gcldf_attack(E, 16, random.Random(123), max_rounds=8)
    assert res.rounds == 2
    assert res.left.is_permutation()
    assert do_compose_lin(res.left, res.core, "left", reduce=True) == E.reduce()
    assert res.core.degree <= 16


def test_attack_builds_one_matrix_per_round(gf256, monkeypatch):
    # inverse() is the one permutation test: each round that reaches
    # try_left_factor builds the matrix of its candidate at most once;
    # none for a unit decided by degree
    import skewlin.hfe as hfe

    counts = {"matrix": 0, "peel": 0}
    real_matrix, real_peel = LinPoly.to_matrix, hfe.try_left_factor

    def to_matrix(self):
        counts["matrix"] += 1
        return real_matrix(self)

    def peel(L, E, bound):
        counts["peel"] += 1
        return real_peel(L, E, bound)

    _, _, E = foldfree_instance(gf256)
    monkeypatch.setattr(LinPoly, "to_matrix", to_matrix)
    monkeypatch.setattr(hfe, "try_left_factor", peel)
    res = gcldf_attack(E, 16, random.Random(123), max_rounds=8)
    assert counts["peel"] == res.rounds == 2
    assert counts["matrix"] == counts["peel"]


def test_attack_recovery_decrypts(gf256):
    _, _, E = foldfree_instance(gf256)
    res = gcldf_attack(E, 16, random.Random(123), max_rounds=8)
    for m_int in (5, 99, 201):
        m = gf256.from_int(m_int)
        y = E(m)
        pre = decrypt_with_factors(res.left, res.core, y)
        assert m in pre
        assert pre == [x for x in gf256.elements() if E(x) == y]


def test_attack_fails_on_honest_keys(gf256):
    # reduction folds the outer factor, so exact left division breaks down
    for seed in (0, 1, 2):
        kp = hfe_keygen(gf256, random.Random(seed))
        with pytest.raises(AttackFailedError) as exc:
            gcldf_attack(
                kp.public.poly, kp.secret.bound, random.Random(seed + 100), max_rounds=1
            )
        assert exc.value.rounds_used == 1


def test_attack_input_validation(gf16):
    with_const = DOPoly(gf16, {(0, 1): gf16.one()}, None, gf16.one())
    with pytest.raises(ShapeViolationError):
        gcldf_attack(with_const, 16, random.Random(0))
    no_quad = DOPoly(gf16, {}, LinPoly.one(gf16))
    with pytest.raises(ShapeViolationError):
        gcldf_attack(no_quad, 16, random.Random(0))
    # a bound below p^2 admits no quadratic core, as in hfe_keygen
    E = hfe_keygen(gf16, random.Random(4)).public.poly
    for bound in (0, 3):
        with pytest.raises(DegreeBoundTooSmallError):
            gcldf_attack(E, bound, random.Random(0))


def test_attack_default_bound_is_p4(gf16, gf9):
    for field in (gf16, gf9):
        E = hfe_keygen(field, random.Random(9)).public.poly
        outcomes = []
        for bound in (None, field.p**4):
            rng = random.Random(0)
            try:
                res = gcldf_attack(E, bound, rng, max_rounds=4)
            except AttackFailedError as exc:
                outcomes.append(("failed", exc.rounds_used, rng.getstate()))
            else:
                outcomes.append((res.left, res.core, res.rounds, rng.getstate()))
        assert outcomes[0] == outcomes[1]


def test_attack_failure_reports_rounds(gf256):
    kp = hfe_keygen(gf256, random.Random(4))
    with pytest.raises(AttackFailedError) as exc:
        gcldf_attack(kp.public.poly, kp.secret.bound, random.Random(9), max_rounds=2)
    # GF(2^8) has at most 127 shifts with a zero difference, so the pool
    # cannot run out in two rounds
    assert exc.value.rounds_used == 2


def test_decrypt_with_factors_policy_cap(gf256):
    _, _, E = foldfree_instance(gf256)
    res = gcldf_attack(E, 16, random.Random(123), max_rounds=8)
    with pytest.raises(PolicyBoundError):
        decrypt_with_factors(res.left, res.core, gf256.one(), max_q=64)


def reference_attack(E, bound, rng, max_rounds):
    """The attack loop without its shortcuts: a peel and a gcldf every round.

    The shift order is rng.shuffle's, popped from the end.  The attack
    draws its shifts lazily, one rng.randrange(i + 1) per popped shift for
    i = q - 2, q - 3, ... while i > 0, so afterwards rng is set to the
    state those draws leave on a fresh copy of its starting state.  The
    attack pops the shifts this loop pops, but for one shortcut: once the
    running gcld is a unit whose peel failed and the pool cannot run out
    (q - q/p >= max_rounds + 1), the failure is decided and it pops no more.
    """
    E = E.reduce()
    field = E.field
    start = rng.getstate()
    pool = [x for x in field.elements() if x]
    n = len(pool)
    rng.shuffle(pool)
    pool_lasts = field.q - field.q // field.p >= max_rounds + 1
    unpopped = None  # the pool's size once the failure is decided

    def next_delta(rounds_so_far):
        while pool:
            d = difference_poly(E, pool.pop())
            if not d.is_zero:
                return d
        raise AttackFailedError(rounds_so_far, "ran out of fresh shift points")

    try:
        L = gcldf(next_delta(0), next_delta(0))[0]
        for r in range(1, max_rounds + 1):
            Lr = L.reduce()
            f = try_left_factor(Lr, E, bound)
            if f is not None:
                return AttackResult(left=Lr, core=f, rounds=r)
            if Lr.degree == 0 and pool_lasts and unpopped is None:
                unpopped = len(pool)
            if r < max_rounds:
                L = gcldf(L, next_delta(r))[0]
        raise AttackFailedError(max_rounds)
    finally:
        if unpopped is None:
            unpopped = len(pool)
        replay = random.Random()
        replay.setstate(start)
        for i in range(n - 1, unpopped - 1, -1):
            if i:
                replay.randrange(i + 1)
        rng.setstate(replay.getstate())


def attack_outcome(attack, E, bound, seed, max_rounds):
    rng = random.Random(seed)
    try:
        res = attack(E, bound, rng, max_rounds)
    except AttackFailedError as exc:
        return ("failed", exc.rounds_used, str(exc), rng.getstate())
    return ("ok", res.left, res.core, res.rounds, rng.getstate())


def test_attack_rejects_nonpositive_max_rounds(gf16, monkeypatch):
    import skewlin.hfe as hfe

    E = hfe_keygen(gf16, random.Random(4)).public.poly
    calls = []
    monkeypatch.setattr(hfe, "difference_poly", lambda *a: calls.append(a))
    for max_rounds in (0, -3):
        with pytest.raises(ValueError, match="max_rounds"):
            gcldf_attack(E, 16, random.Random(0), max_rounds=max_rounds)
    assert calls == []


def test_attack_matches_reference_loop():
    outcomes = {}
    for p, e in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)):
        field = FiniteField(p, e)
        for seed in range(3):
            for degree_bound in (None, p * p):
                kp = hfe_keygen(field, random.Random(seed), degree_bound=degree_bound)
                E, bound = kp.public.poly, kp.secret.bound
                for max_rounds in (1, 2, 3, 8, 16, 40):
                    case = (field.q, seed, degree_bound, max_rounds)
                    got = attack_outcome(gcldf_attack, E, bound, seed, max_rounds)
                    assert got == attack_outcome(reference_attack, E, bound, seed, max_rounds), case
                    outcomes[case] = got
    # every outcome kind is covered: recovery, failure after max_rounds,
    # and a pool that runs out of shifts with a nonzero difference
    failures = {o[2].split(" after ")[0] for o in outcomes.values() if o[0] == "failed"}
    assert failures == {"attack failed", "ran out of fresh shift points"}
    assert any(o[0] == "ok" for o in outcomes.values())
    # GF(4) has three shifts, and three rounds need four differences
    assert outcomes[(4, 0, 4, 3)][:3] == ("failed", 2, "ran out of fresh shift points")


def test_attack_peels_each_running_factor_once(monkeypatch):
    # the criterion 09 batch: the running gcld is 1 after two or three
    # differences, and a unit whose peel failed ends the attack
    import skewlin.hfe as hfe

    field = FiniteField(2, 8)
    counts = {"peel": 0, "gcldf": 0, "difference": 0}

    def spy(name, real):
        def wrapped(*args):
            counts[name] += 1
            return real(*args)

        return wrapped

    monkeypatch.setattr(hfe, "try_left_factor", spy("peel", hfe.try_left_factor))
    monkeypatch.setattr(hfe, "gcldf", spy("gcldf", hfe.gcldf))
    monkeypatch.setattr(hfe, "difference_poly", spy("difference", hfe.difference_poly))
    for i in range(20):
        rng = random.Random(1 * 1_000_003 + i)
        kp = hfe_keygen(field, rng)
        with pytest.raises(AttackFailedError) as exc:
            gcldf_attack(kp.public.poly, kp.secret.bound, rng, max_rounds=16)
        assert exc.value.rounds_used == 16
    assert counts == {"peel": 21, "gcldf": 21, "difference": 41}


# key seed: outcome, the popped shift indices in order, and the sha256
# prefix of repr(rng.getstate()) after the attack (shift seed: key seed +
# 100).  The outcomes are the ones the attack gave while DOPoly still held
# FqElem coefficients; the state is the one left by one rng.randrange per
# popped shift (the lazy shuffle), where a shuffle of all q - 1 shift
# indices left another.  The state counts only the words drawn, so (2, 8, 0)
# and (5, 2, 0), two pops each, hash alike; the shifts pin the values
PINNED_ATTACKS = {
    (2, 8, 0): (
        ("failed", 16, "attack failed after 16 round(s)"),
        [38, 118],
        "70fc4abbdf62a1c8",
    ),
    (2, 4, 0): (
        (
            "ok",
            2,
            (1,),
            [(1, 8), (2, 8), (3, 4), (4, 13), (5, 7), (6, 14), (8, 15), (9, 6), (10, 4), (12, 1)],
        ),
        [3, 8, 14],
        "17d2000b61e887c8",
    ),
    (3, 2, 2): (
        ("ok", 1, (8, 1), [(1, 6), (2, 3), (3, 2), (4, 5), (6, 7)]),
        [3, 6],
        "0f116eb7497b02d5",
    ),
    (5, 2, 0): (
        ("ok", 1, (9, 1), [(1, 20), (2, 16), (5, 17), (6, 22), (10, 11)]),
        [5, 15],
        "70fc4abbdf62a1c8",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_ATTACKS))
def test_attack_on_a_reduced_key_decodes_no_exponent(case, monkeypatch):
    # E's parts were decoded when it was built, reduce() of a reduced E is
    # E itself, and the attack's compositions read the slot table: no
    # exponent goes through the digit decode, and the outcome, the shifts
    # the attack popped and the rng state afterwards are the pinned ones
    p, e, seed = case
    field = FiniteField(p, e)
    E = hfe_keygen(field, random.Random(seed)).public.poly
    assert E.reduce() is E
    decoded, shifts = [], []
    real, difference = hfe._indices, hfe.difference_poly
    monkeypatch.setattr(hfe, "_indices", lambda x, p: decoded.append(x) or real(x, p))
    monkeypatch.setattr(
        hfe, "difference_poly", lambda t, a: shifts.append(a.as_int()) or difference(t, a)
    )
    rng = random.Random(seed + 100)
    try:
        res = gcldf_attack(E, None, rng)
        core = sorted((x, c.as_int()) for x, c in res.core.terms.items())
        got = ("ok", res.rounds, res.left._c, core)
    except AttackFailedError as exc:
        got = ("failed", exc.rounds_used, str(exc))
    state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]
    assert decoded == []
    assert (got, shifts, state) == PINNED_ATTACKS[case]


def test_zero_difference_shifts_form_a_small_subgroup():
    # the premise of the attack's early exit: a -> difference_poly(E, a)
    # is additive and nonzero, so its kernel is a proper subgroup
    nontrivial = 0
    for p, e in ((2, 2), (2, 3), (3, 2), (2, 4)):
        field = FiniteField(p, e)
        for seed in range(24):
            for degree_bound in (None, p * p, p * p + 1):
                kp = hfe_keygen(field, random.Random(seed), degree_bound=degree_bound)
                E = kp.public.poly
                kernel = {a for a in field.elements() if difference_poly(E, a).is_zero}
                assert field.zero() in kernel
                assert all(a + b in kernel for a in kernel for b in kernel)
                assert len(kernel) <= field.q // p
                nontrivial += len(kernel) > 1
    # GF(8) keys of seeds 5 and 20 and GF(9) keys of seeds 8 and 19
    assert nontrivial == 8


def test_lazy_shift_draw_pops_the_shuffles_order():
    # the attack's shifts are random.shuffle's, popped from the end, but
    # each pop makes only its own step of the shuffle's loop: the k-th pop
    # of n draws one randrange(n - k + 1), and the last pop draws nothing
    for n in [*range(1, 301), 2**16]:
        for seed in range(3) if n > 300 else range(10):
            shuffled = list(range(1, n + 1))
            shuffler = random.Random(seed)
            shuffler.shuffle(shuffled)
            rng = random.Random(seed)
            pops = hfe._shuffled_pops(n, rng)
            head = min(n, 5)
            got = [next(pops) for _ in range(head)]
            replay = random.Random(seed)
            for i in range(n - 1, n - 1 - head, -1):
                if i:
                    replay.randrange(i + 1)
            assert rng.getstate() == replay.getstate(), (n, seed)
            got += pops
            assert got == shuffled[::-1], (n, seed)
            assert rng.getstate() == shuffler.getstate(), (n, seed)


def _composed_public(field, rng):
    """outer . core with a low-degree core and a random permutation outer of
    degree p^2, unreduced, as perfbench's foldfree_public builds them."""
    core = DOPoly(
        field,
        {(0, 1): field.generator()},
        LinPoly(field, [field.random_element(rng), field.random_element(rng)]),
        field.zero(),
    )
    while True:
        outer = LinPoly(field, [field.random_element(rng) for _ in range(3)])
        if not outer.is_zero and outer.is_permutation():
            return do_compose_lin(outer, core, "left")


def _running_gclds(E, shifts):
    """The running gcld after each shift: gcldf over the nonzero differences."""
    L = SkewPoly.zero(E.field)
    for a in shifts:
        d = difference_poly(E, a)
        if not d.is_zero:
            L = gcldf(L, d)[0]
        yield L


def test_basis_differences_decide_the_attacks_gcld():
    # a -> difference_poly(E, a) is Z_p-linear and F_p scalars commute with
    # Y, so the gcld of the differences at a basis of F_q over F_p is the
    # gcld of all q - 1 nonzero differences: the limit of the attack's
    # running gcld.  Every running gcld is a left multiple of it, and it is
    # reached at the first shift whose prefix spans F_q, whatever the order
    degrees = set()
    for p, e in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        field = FiniteField(p, e)
        basis = [field.from_int(p**k) for k in range(e)]
        nonzero = [a for a in field.elements() if a]
        for seed in range(3):
            keys = (
                hfe_keygen(field, random.Random(seed)).public.poly,
                _composed_public(field, random.Random(seed)),
            )
            for E in keys:
                E = E.reduce()
                G = list(_running_gclds(E, basis))[-1]
                assert list(_running_gclds(E, nonzero))[-1] == G
                degrees.add(G.degree)
                for order_seed in range(3):
                    shifts = nonzero[:]
                    random.Random(order_seed).shuffle(shifts)
                    span = {field.zero()}
                    for a, L in zip(shifts, _running_gclds(E, shifts)):
                        span = {s + field.from_int(k) * a for s in span for k in range(p)}
                        assert L.mod_left(G).is_zero
                        if len(span) == field.q:
                            assert L == G
    # units, and left factors of degree 1 and 2, all occur
    assert degrees == {0, 1, 2}


def test_try_left_factor_checks_the_recomposition(gf256, monkeypatch):
    # the peel is verified by composing back; a recomposition that misses E
    # by one term raises instead of returning a wrong core
    outer, core, E = foldfree_instance(gf256)
    assert try_left_factor(outer, E, 16) == core.reduce()
    real = hfe.do_compose_lin
    calls = []

    def compose(L, D, side, reduce=False):
        calls.append(side)
        got = real(L, D, side, reduce)
        return got + DOPoly(gf256, {}, SkewPoly.one(gf256)) if len(calls) == 2 else got

    monkeypatch.setattr(hfe, "do_compose_lin", compose)
    with pytest.raises(InvariantError, match="do not recompose to E"):
        try_left_factor(outer, E, 16)
    assert calls == ["left", "left"]
