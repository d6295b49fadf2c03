"""Keygen, encryption, decryption, and left-factor key recovery."""

import random

import pytest

import skewlin.hfe as hfe
from skewlin import _linalg
from skewlin.errors import (
    AttackFailedError,
    ContextMismatchError,
    DegreeBoundTooSmallError,
    NotAPermutationError,
    PolicyBoundError,
    ShapeViolationError,
)
from skewlin.fields import FiniteField, FqElem
from skewlin.hfe import (
    AttackResult,
    DOPoly,
    HFEKeyPair,
    HFESecretKey,
    MultivariateKey,
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

from oracles import matmul


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


def test_keypair_check_sees_every_degree_two_difference(gf16, gf27):
    # differences that vanish at 0 and at every unit vector: x_s x_t, seen
    # only at u_s + u_t; and, for odd p, x_s^2 - x_s, seen only at 2 u_s
    for field, seed in ((gf16, 5), (gf27, 6)):
        p, e = field.p, field.e
        kp = hfe_keygen(field, random.Random(seed))
        assert kp.is_consistent()
        mv = kp.public.multivariate
        diffs = [({(s, t): 1}, {}) for s in range(e) for t in range(s + 1, e)]
        if p > 2:
            diffs += [({(s, s): 1}, {s: p - 1}) for s in range(e)]
        for quad, lin in diffs:
            for k in range(e):
                q = [dict(d) for d in mv.quad]
                q[k].update({st: (q[k].get(st, 0) + c) % p for st, c in quad.items()})
                ln = [dict(d) for d in mv.lin]
                ln[k].update({s: (ln[k].get(s, 0) + c) % p for s, c in lin.items()})
                kp.public._multivariate = MultivariateKey(p, e, tuple(q), tuple(ln), mv.const)
                assert not kp.is_consistent(), (quad, lin, k)


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
    ident = _linalg.identity(e)
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


def test_attack_recovers_foldfree_composition(gf256):
    outer, core, E = foldfree_instance(gf256)
    res = gcldf_attack(E, 16, random.Random(123), max_rounds=8)
    assert res.rounds == 2
    assert res.left.is_permutation()
    assert do_compose_lin(res.left, res.core, "left", reduce=True) == E.reduce()
    assert res.core.degree <= 16


def test_attack_builds_one_matrix_per_round(gf256, monkeypatch):
    # inverse() is the one permutation test: each round that reaches
    # try_left_factor builds the matrix of its candidate exactly once
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
    """The attack loop without its shortcuts: a peel and a gcldf every round."""
    E = E.reduce()
    pool = [x for x in E.field.elements() if x]
    rng.shuffle(pool)

    def next_delta(rounds_so_far):
        while pool:
            d = difference_poly(E, pool.pop())
            if not d.is_zero:
                return d
        raise AttackFailedError(rounds_so_far, "ran out of fresh shift points")

    L = gcldf(next_delta(0), next_delta(0))[0]
    for r in range(1, max_rounds + 1):
        Lr = L.reduce()
        f = try_left_factor(Lr, E, bound)
        if f is not None:
            return AttackResult(left=Lr, core=f, rounds=r)
        if r < max_rounds:
            L = gcldf(L, next_delta(r))[0]
    raise AttackFailedError(max_rounds)


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
