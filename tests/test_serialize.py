"""JSON object mapping: roundtrips, canonical bytes, strict parsing."""

import json
import random

import pytest

import skewlin.serialize as ser
from skewlin.decompose import decompose_complete, estimate_split_success
from skewlin.errors import ParseError
from skewlin.fields import FiniteField
from skewlin.hfe import (
    DOPoly,
    HFEKeyPair,
    HFEPublicKey,
    HFESecretKey,
    do_compose_lin,
    hfe_decrypt,
    hfe_keygen,
    to_multivariate,
)
from skewlin.linpoly import LinPoly
from skewlin.skew import SkewPoly


def test_dumps_is_canonical():
    a = ser.dumps({"b": 1, "a": [2, 3]})
    b = ser.dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a == '{"a": [2, 3], "b": 1}\n'


def test_parse_text_error_position():
    with pytest.raises(ParseError) as exc:
        ser.parse_text('{"a": 1,\n  broken}')
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_field_roundtrip(gf9):
    obj = ser.field_to_obj(gf9)
    assert set(obj) == {"p", "e", "modulus"}
    assert ser.field_from_obj(obj) == gf9
    custom = FiniteField(2, 2, basis=[[0, 1], [1, 1]])
    obj2 = ser.field_to_obj(custom)
    assert "basis" in obj2
    back = ser.field_from_obj(obj2)
    assert back == custom
    assert back.basis == custom.basis


def test_field_parse_errors():
    with pytest.raises(ParseError):
        ser.field_from_obj([])
    with pytest.raises(ParseError):
        ser.field_from_obj({"p": 2, "e": 2})
    with pytest.raises(ParseError):
        ser.field_from_obj({"p": 2, "e": 2, "modulus": [1, 1, 1], "x": 0})
    with pytest.raises(ParseError):
        ser.field_from_obj({"p": True, "e": 2, "modulus": [1, 1, 1]})
    with pytest.raises(ParseError):
        ser.field_from_obj({"p": 2, "e": 2, "modulus": "111"})


def test_element_roundtrip(gf27):
    rng = random.Random(100)
    for _ in range(10):
        x = gf27.random_element(rng)
        assert ser.element_from_obj(gf27, ser.element_to_obj(x)) == x


def test_element_parse_errors(gf9):
    with pytest.raises(ParseError):
        ser.element_from_obj(gf9, [1])
    with pytest.raises(ParseError):
        ser.element_from_obj(gf9, [1, 3])
    with pytest.raises(ParseError):
        ser.element_from_obj(gf9, [1, -1])
    with pytest.raises(ParseError):
        ser.element_from_obj(gf9, {"0": 1})
    with pytest.raises(ParseError):
        ser.element_from_obj(gf9, [1, True])


def test_linpoly_and_skew_roundtrip(gf16):
    rng = random.Random(101)
    for twist in (1, 2):
        L = LinPoly(gf16, [gf16.random_element(rng) for _ in range(3)], twist)
        obj = ser.linpoly_to_obj(L)
        assert set(obj) == {"s", "coeffs"} and obj["s"] == twist
        assert ser.linpoly_from_obj(gf16, obj) == L
        f = SkewPoly(gf16, [gf16.random_element(rng) for _ in range(3)], twist)
        assert ser.skewpoly_from_obj(gf16, ser.skewpoly_to_obj(f)) == f


def test_twisted_parse_errors(gf4):
    with pytest.raises(ParseError):
        ser.linpoly_from_obj(gf4, {"s": 0, "coeffs": []})
    with pytest.raises(ParseError):
        ser.linpoly_from_obj(gf4, {"coeffs": []})
    with pytest.raises(ParseError):
        ser.skewpoly_from_obj(gf4, {"s": 1, "coeffs": [[1, 0]], "extra": 1})


def test_dopoly_roundtrip(gf16, gf9):
    rng = random.Random(102)
    for field in (gf16, gf9):
        for _ in range(8):
            D = DOPoly(
                field,
                {(0, 1): field.random_element(rng), (1, 2): field.random_element(rng)},
                LinPoly(field, [field.random_element(rng) for _ in range(2)]),
                field.random_element(rng),
            )
            obj = ser.dopoly_to_obj(D)
            assert set(obj) == {"quad", "lin", "const"}
            assert obj["quad"] == sorted(obj["quad"])
            assert ser.dopoly_from_obj(field, obj) == D


def test_dopoly_zero_lin_is_null(gf4):
    D = DOPoly(gf4, {(0, 1): gf4.one()})
    obj = ser.dopoly_to_obj(D)
    assert obj["lin"] is None
    assert ser.dopoly_from_obj(gf4, obj) == D


def test_dopoly_parse_errors(gf9):
    good = {"quad": [[0, 1, [1, 0]]], "lin": None, "const": [0, 0]}
    assert ser.dopoly_from_obj(gf9, good)
    with pytest.raises(ParseError):
        ser.dopoly_from_obj(gf9, {**good, "quad": [[0, 1, [1, 0]], [1, 0, [2, 0]]]})
    with pytest.raises(ParseError):
        ser.dopoly_from_obj(gf9, {**good, "quad": [[0, [1, 0]]]})
    with pytest.raises(ParseError):
        ser.dopoly_from_obj(gf9, {**good, "quad": [[-1, 0, [1, 0]]]})
    with pytest.raises(ParseError):
        ser.dopoly_from_obj(gf9, {**good, "lin": {"s": 2, "coeffs": [[1, 0]]}})
    with pytest.raises(ParseError):
        ser.dopoly_from_obj(gf9, {"quad": [], "lin": None})


def test_multivariate_roundtrip(gf16):
    rng = random.Random(103)
    D = DOPoly(
        gf16,
        {(0, 1): gf16.random_element(rng, nonzero=True)},
        LinPoly(gf16, [gf16.random_element(rng)]),
        gf16.random_element(rng),
    )
    mv = to_multivariate(D)
    obj = ser.public_to_obj(HFEPublicKey(D))
    assert set(obj["multivariate"]) == {"p", "n_vars", "quad", "lin", "const"}
    assert obj["multivariate"] == ser.multivariate_to_obj(mv)
    assert ser.public_from_obj(obj).multivariate == mv


def test_multivariate_parse_errors(gf2):
    # the forms of the zero map on GF(2); every variant below disagrees with E
    base = {"p": 2, "n_vars": 1, "quad": [[]], "lin": [[]], "const": [0]}
    public = {
        "field": ser.field_to_obj(gf2),
        "E": ser.dopoly_to_obj(DOPoly.zero(gf2)),
        "multivariate": base,
    }
    assert ser.public_from_obj(public)
    for bad in (
        {**base, "quad": []},
        {**base, "quad": [[[0, 0]]]},
        {**base, "lin": [[[0]]]},
        {**base, "const": [0], "n_vars": 2},
        # the comparison is on canonical text: no spelling of zero but 0 passes
        {**base, "const": [False]},
        {**base, "const": [0.0]},
        {**base, "lin": [[[0, 0]]]},
        None,
    ):
        with pytest.raises(ParseError):
            ser.public_from_obj({**public, "multivariate": bad})


def tampered(mv_obj: dict, p: int) -> dict:
    """Same shape, another map: one term dropped (p = 2) or its coefficient changed."""
    out = json.loads(json.dumps(mv_obj))
    row = out["quad"][0]
    if p == 2:
        row.pop()
    else:
        row[0][2] = row[0][2] % (p - 1) + 1
    return out


def test_tampered_forms_rejected(gf16, gf27):
    for field, seed in ((gf16, 9), (gf27, 4)):
        kp = hfe_keygen(field, random.Random(seed))
        obj = ser.keypair_to_obj(kp)
        assert ser.keypair_from_obj(obj).public.poly == kp.public.poly
        bad_mv = tampered(obj["public"]["multivariate"], field.p)
        assert bad_mv != obj["public"]["multivariate"]
        bad_public = {**obj["public"], "multivariate": bad_mv}
        with pytest.raises(ParseError):
            ser.public_from_obj(bad_public)
        with pytest.raises(ParseError):
            ser.keypair_from_obj({**obj, "public": bad_public})


def test_keypair_roundtrip_bytes(gf9):
    kp = hfe_keygen(gf9, random.Random(42))
    obj = ser.keypair_to_obj(kp)
    text = ser.dumps(obj)
    back = ser.keypair_from_obj(ser.parse_text(text))
    assert ser.dumps(ser.keypair_to_obj(back)) == text
    assert back.public.poly == kp.public.poly
    assert back.public.multivariate == kp.public.multivariate
    assert back.secret.outer == kp.secret.outer
    assert back.secret.core == kp.secret.core
    assert back.secret.inner == kp.secret.inner
    assert back.secret.bound == kp.secret.bound


def flip_digit(digits, rng, p):
    k = rng.randrange(len(digits))
    digits[k] = (digits[k] + 1) % p


def test_keypair_check_agrees_with_symbolic_rebuild():
    # the symbolic S . D . T stays the oracle: a tampered copy is rejected
    # exactly when its rebuilt public map differs from E
    rejected = 0
    for p, e in ((2, 4), (3, 3), (5, 2)):
        field = FiniteField(p, e)
        rng = random.Random(100 * p + e)
        for _ in range(22):
            kp = hfe_keygen(field, rng)
            obj = ser.keypair_to_obj(kp)
            assert ser.keypair_from_obj(obj).is_consistent()
            for part in ("S", "D", "T"):
                bad = json.loads(ser.dumps(obj))
                sec_obj = bad["secret"][part]
                if part == "D":
                    flip_digit(rng.choice(sec_obj["quad"])[2], rng, p)
                else:
                    flip_digit(rng.choice(sec_obj["coeffs"]), rng, p)
                sec = ser.secret_from_obj(field, bad["secret"])
                rebuilt = do_compose_lin(
                    sec.outer, do_compose_lin(sec.inner, sec.core, "right"), "left"
                ).reduce()
                if rebuilt != kp.public.poly.reduce():
                    rejected += 1
                    with pytest.raises(ParseError, match="compose to the public map E"):
                        ser.keypair_from_obj(bad)
                else:
                    assert ser.keypair_from_obj(bad).is_consistent()
    assert rejected > 0


def test_keypair_check_compares_maps_not_text():
    # (S . cX, c^-1 . D) is another secret file for the same map
    for field, seed in ((FiniteField(2, 4), 9), (FiniteField(3, 3), 4)):
        kp = hfe_keygen(field, random.Random(seed))
        c = field.generator()
        sec = kp.secret
        other = HFESecretKey(
            field,
            sec.outer * LinPoly(field, [c]),
            do_compose_lin(LinPoly(field, [c.inv()]), sec.core, "left"),
            sec.inner,
            sec.bound,
        )
        text = ser.dumps(ser.keypair_to_obj(HFEKeyPair(kp.public, other)))
        assert text != ser.dumps(ser.keypair_to_obj(kp))
        back = ser.keypair_from_obj(ser.parse_text(text))
        for y in field.elements():
            assert hfe_decrypt(back.secret, y) == hfe_decrypt(sec, y)


def test_public_shape_cross_check(gf9, gf4):
    kp = hfe_keygen(gf9, random.Random(1))
    obj = ser.public_to_obj(kp.public)
    assert set(obj) == {"field", "E", "multivariate"}
    bad = dict(obj)
    bad["multivariate"] = ser.multivariate_to_obj(
        to_multivariate(DOPoly(gf4, {(0, 1): gf4.one()}))
    )
    with pytest.raises(ParseError):
        ser.public_from_obj(bad)


def test_secret_roundtrip(gf9):
    kp = hfe_keygen(gf9, random.Random(2))
    obj = ser.secret_to_obj(kp.secret)
    assert set(obj) == {"S", "D", "T", "d"}
    back = ser.secret_from_obj(gf9, obj)
    assert back.outer == kp.secret.outer and back.bound == kp.secret.bound
    with pytest.raises(ParseError):
        ser.secret_from_obj(gf9, {"S": obj["S"], "D": obj["D"], "T": obj["T"]})


def test_stats_obj_keys(gf4):
    st = estimate_split_success(gf4, 2, 5, seed=3)
    obj = ser.stats_to_obj(st)
    assert set(obj) == {"trials", "first_try_successes", "mean_tries", "ci95", "seed"}
    assert obj["trials"] == 5 and obj["seed"] == 3
    assert len(obj["ci95"]) == 2


def test_decomposition_obj(gf4):
    f = SkewPoly(gf4, [gf4.one(), gf4.zero(), gf4.one()])
    dec = decompose_complete(f, random.Random(4))
    obj = ser.decomposition_to_obj(dec)
    assert set(obj) == {"unit", "factors", "certified"}
    assert obj["certified"] is True
    rebuilt = [ser.skewpoly_from_obj(gf4, g) for g in obj["factors"]]
    acc = SkewPoly.one(gf4)
    for g in rebuilt:
        acc = acc * g
    assert acc.left_scalar(ser.element_from_obj(gf4, obj["unit"])) == f
