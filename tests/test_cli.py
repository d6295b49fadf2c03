"""Command-line interface: verbs, exit codes, canonical output."""

import json
import random

import pytest

import skewlin.cli as cli
import skewlin.serialize as ser
from skewlin.cli import main
from skewlin.decompose import estimate_split_success
from skewlin.errors import InvariantError
from skewlin.fields import FiniteField
from skewlin.hfe import (
    POLICY_MAX_Q,
    DOPoly,
    HFEPublicKey,
    HFESecretKey,
    do_compose_lin,
    to_multivariate,
)
from skewlin.linpoly import LinPoly
from skewlin.skew import SkewPoly


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def foldfree_public_obj():
    field = FiniteField(2, 8)
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
    E = do_compose_lin(outer, core, "left")
    return ser.public_to_obj(HFEPublicKey(field, E, to_multivariate(E))), field, E


def test_field_verb(capsys):
    code, out, err = run(capsys, "field", "--p", "2", "--e", "4")
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == {"p": 2, "e": 4, "modulus": [1, 1, 0, 0, 1]}
    code2, out2, _ = run(capsys, "field", "--p", "2", "--e", "4")
    assert (code2, out2) == (code, out)


def test_field_over_cap_exits_1(capsys):
    # refused by the cap before primality of p or the size p^e is computed
    for p, e in (("2305843009213693951", "1"), ("3", "100000000")):
        code, out, err = run(capsys, "field", "--p", p, "--e", e)
        assert code == 1 and out == "" and "exceeds the policy cap of 2^20" in err


def test_field_custom_modulus(capsys):
    code, out, _ = run(capsys, "field", "--p", "2", "--e", "3", "--modulus", "1,1,0,1")
    assert code == 0
    assert json.loads(out)["modulus"] == [1, 1, 0, 1]
    code, _, err = run(capsys, "field", "--p", "2", "--e", "2", "--modulus", "1,0,1")
    assert code == 1 and "reducible" in err


def test_argparse_failures_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--p", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["field", "--p", "2", "--e", "2", "--modulus", "1,x,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_decompose_verb(capsys, tmp_path):
    field = FiniteField(2, 2)
    f = SkewPoly(field, [field.zero(), field.zero(), field.one()])  # Y^2
    path = tmp_path / "poly.json"
    payload = ser.dumps(
        {"field": ser.field_to_obj(field), "poly": ser.skewpoly_to_obj(f)}
    )
    path.write_text(payload)
    code, out, err = run(capsys, "decompose", "--in", str(path), "--seed", "3")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"unit", "factors", "certified"}
    assert obj["certified"] is True
    parts = [ser.skewpoly_from_obj(field, g) for g in obj["factors"]]
    acc = SkewPoly.one(field)
    for g in parts:
        acc = acc * g
    assert acc.left_scalar(ser.element_from_obj(field, obj["unit"])) == f
    # the input file is not modified, reruns are byte-identical
    assert path.read_text() == payload
    code2, out2, _ = run(capsys, "decompose", "--in", str(path), "--seed", "3")
    assert (code2, out2) == (code, out)


def test_invariant_failure_exits_1(capsys, tmp_path, monkeypatch):
    field = FiniteField(2, 2)
    path = tmp_path / "poly.json"
    path.write_text(
        ser.dumps(
            {"field": ser.field_to_obj(field), "poly": ser.skewpoly_to_obj(SkewPoly.one(field))}
        )
    )

    def broken(*args, **kwargs):
        raise InvariantError("check failed")

    monkeypatch.setattr(cli, "decompose_complete", broken)
    code, out, err = run(capsys, "decompose", "--in", str(path))
    assert (code, out, err) == (1, "", "skewlin: check failed\n")


def test_decompose_input_validation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(ser.dumps({"field": {"p": 2, "e": 2, "modulus": [1, 1, 1]}}))
    code, _, err = run(capsys, "decompose", "--in", str(path))
    assert code == 2 and "poly" in err
    path.write_text('{"field": broken\n')
    code, _, err = run(capsys, "decompose", "--in", str(path))
    assert code == 2
    zero = tmp_path / "zero.json"
    zero.write_text(
        ser.dumps(
            {
                "field": {"p": 2, "e": 2, "modulus": [1, 1, 1]},
                "poly": {"s": 1, "coeffs": []},
            }
        )
    )
    code, _, err = run(capsys, "decompose", "--in", str(zero))
    assert code == 1  # zero polynomial is a domain error, not a parse error


def test_unreadable_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", "--in", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err


def test_gcldf_verb(capsys, tmp_path):
    field = FiniteField(2, 3)
    rng = random.Random(5)
    G0 = SkewPoly(field, [field.random_element(rng), field.one()])
    A0 = SkewPoly(field, [field.random_element(rng), field.one()])
    B0 = SkewPoly(field, [field.one()])
    f, g = G0.compose(A0), G0.compose(B0)
    path = tmp_path / "pair.json"
    path.write_text(
        ser.dumps(
            {
                "field": ser.field_to_obj(field),
                "f": ser.linpoly_to_obj(f),
                "g": ser.linpoly_to_obj(g),
            }
        )
    )
    code, out, err = run(capsys, "gcldf", "--in", str(path))
    assert code == 0 and err == ""
    obj = json.loads(out)
    G = ser.linpoly_from_obj(field, obj["G"])
    A = ser.linpoly_from_obj(field, obj["A"])
    B = ser.linpoly_from_obj(field, obj["B"])
    assert G.compose(A) == f and G.compose(B) == g
    assert G.degree >= 1  # the planted common factor is detected


def test_keygen_encrypt_decrypt_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "9")
    assert code == 0
    code2, out2, _ = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "9")
    assert out2 == out
    kp_path = tmp_path / "kp.json"
    kp_path.write_text(out)
    code, out_c, _ = run(
        capsys, "encrypt", "--key", str(kp_path), "--message", "1,0,1,0"
    )
    assert code == 0
    cipher = json.loads(out_c)["ciphertext"]
    code, out_m, _ = run(
        capsys, "decrypt", "--key", str(kp_path), "--ciphertext",
        ",".join(str(d) for d in cipher),
    )
    assert code == 0
    assert [1, 0, 1, 0] in json.loads(out_m)["plaintexts"]


def test_encrypt_with_bare_public(capsys, tmp_path):
    _, out, _ = run(capsys, "keygen", "--p", "3", "--e", "2", "--seed", "2")
    kp_obj = json.loads(out)
    pub_path = tmp_path / "pub.json"
    pub_path.write_text(ser.dumps(kp_obj["public"]))
    code, out_c, _ = run(capsys, "encrypt", "--key", str(pub_path), "--message", "2,1")
    assert code == 0 and "ciphertext" in json.loads(out_c)


def test_decrypt_bare_secret_needs_field(capsys, tmp_path):
    _, out, _ = run(capsys, "keygen", "--p", "3", "--e", "2", "--seed", "2")
    kp_obj = json.loads(out)
    sec_path = tmp_path / "sec.json"
    sec_path.write_text(ser.dumps(kp_obj["secret"]))
    code, _, err = run(capsys, "decrypt", "--key", str(sec_path), "--ciphertext", "1,0")
    assert code == 2 and "--field" in err
    field_path = tmp_path / "field.json"
    field_path.write_text(ser.dumps(kp_obj["public"]["field"]))
    code, out_m, _ = run(
        capsys, "decrypt", "--key", str(sec_path), "--field", str(field_path),
        "--ciphertext", "1,0",
    )
    assert code == 0 and "plaintexts" in json.loads(out_m)


def test_attack_single_success(capsys, tmp_path):
    pub_obj, field, E = foldfree_public_obj()
    path = tmp_path / "pub.json"
    path.write_text(ser.dumps(pub_obj))
    code, out, err = run(
        capsys, "attack", "--key", str(path), "--seed", "123", "--max-rounds", "8"
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["rounds"] == 2
    left = ser.linpoly_from_obj(field, obj["left"])
    core = ser.dopoly_from_obj(field, obj["core"])
    assert do_compose_lin(left, core, "left", reduce=True) == E.reduce()


def test_attack_single_failure_exits_1(capsys, tmp_path):
    _, out, _ = run(capsys, "keygen", "--p", "2", "--e", "8", "--seed", "0")
    path = tmp_path / "kp.json"
    path.write_text(out)
    code, out2, err = run(
        capsys, "attack", "--key", str(path), "--seed", "0", "--max-rounds", "1"
    )
    assert code == 1 and out2 == ""
    assert "round" in err


def test_attack_key_bound_below_p2_exits_1(capsys, tmp_path):
    _, out, _ = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "4")
    path = tmp_path / "kp.json"
    path.write_text(out)
    for bound in ("0", "3"):
        code, out2, err = run(
            capsys, "attack", "--key", str(path), "--seed", "0", "--degree-bound", bound
        )
        assert code == 1 and out2 == "" and "below p^2" in err


def test_attack_requires_key_or_instances(capsys):
    code, _, err = run(capsys, "attack")
    assert code == 2 and "--key" in err


def test_attack_batch(capsys):
    args = [
        "attack", "--instances", "3", "--p", "2", "--e", "8",
        "--seed", "5", "--max-rounds", "4",
    ]
    code, out, _ = run(capsys, *args)
    assert code == 0
    obj = json.loads(out)
    assert obj["instances"] == 3
    assert len(obj["results"]) == 3
    assert obj["successes"] == sum(1 for r in obj["results"] if r["ok"])
    assert obj["rate"] == obj["successes"] / 3
    for i, entry in enumerate(obj["results"]):
        assert entry["instance"] == i
        assert set(entry) == {"instance", "ok", "rounds"}
        assert entry["rounds"] >= 1
    code2, out2, _ = run(capsys, *args)
    assert out2 == out


def test_attack_batch_zero_instances(capsys):
    code, out, _ = run(capsys, "attack", "--instances", "0", "--p", "2", "--e", "4")
    assert code == 0
    assert json.loads(out) == {"instances": 0, "successes": 0, "rate": 0.0, "results": []}


def test_attack_batch_validation(capsys):
    code, _, err = run(capsys, "attack", "--instances", "2")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "attack", "--instances", "-1", "--p", "2", "--e", "4")
    assert code == 2
    # an explicit bound of 0 is below p^2, not a request for the p^4 default
    code, out, err = run(
        capsys, "attack", "--instances", "1", "--p", "2", "--e", "4", "--degree-bound", "0"
    )
    assert code == 1 and out == "" and "below p^2" in err


def test_probe_verb(capsys):
    args = ["probe", "--p", "2", "--e", "2", "--degree", "2", "--trials", "5", "--seed", "1"]
    code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"trials", "first_try_successes", "mean_tries", "ci95", "seed"}
    expect = estimate_split_success(FiniteField(2, 2), 2, 5, 1)
    assert out == ser.dumps(ser.stats_to_obj(expect))
    code2, out2, _ = run(capsys, *args)
    assert out2 == out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            "--p 2 --e 6 --degree 4 --trials 200 --seed 1",
            '{"ci95": [0.9722256001302286, 0.999116854010634], "first_try_successes": 199, '
            '"mean_tries": 1.005, "seed": 1, "trials": 200}\n',
        ),
        (
            "--p 2 --e 2 --degree 3 --trials 60 --seed 5 --twist 2",
            '{"ci95": [0.8863601247107462, 0.9908108735098498], "first_try_successes": 58, '
            '"mean_tries": 1.0333333333333334, "seed": 5, "trials": 60}\n',
        ),
    ],
    ids=["readme", "multi-try"],
)
def test_probe_bytes_pinned(capsys, argv, expected):
    # the README example, and a case whose trials need more than one try
    code, out, err = run(capsys, "probe", *argv.split())
    assert (code, out, err) == (0, expected, "")


def test_probe_domain_error_exits_1(capsys):
    code, _, err = run(
        capsys, "probe", "--p", "2", "--e", "2", "--degree", "1", "--trials", "5"
    )
    assert code == 1 and "degree" in err


def test_policy_cap_env(capsys, tmp_path, monkeypatch):
    _, out, _ = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "1")
    path = tmp_path / "kp.json"
    path.write_text(out)
    monkeypatch.setenv("TOOL_POLICY_MAX_Q", "8")
    code, _, err = run(capsys, "decrypt", "--key", str(path), "--ciphertext", "1,0,0,0")
    assert code == 1 and "exceeds decrypt cap 8" in err
    monkeypatch.setenv("TOOL_POLICY_MAX_Q", "16")
    code, out_m, _ = run(capsys, "decrypt", "--key", str(path), "--ciphertext", "1,0,0,0")
    assert code == 0
    monkeypatch.setenv("TOOL_POLICY_MAX_Q", "eight")
    code, _, err = run(capsys, "decrypt", "--key", str(path), "--ciphertext", "1,0,0,0")
    assert code == 2 and "TOOL_POLICY_MAX_Q" in err
    for bad in ("0", "-5"):
        monkeypatch.setenv("TOOL_POLICY_MAX_Q", bad)
        code, _, err = run(capsys, "decrypt", "--key", str(path), "--ciphertext", "1,0,0,0")
        assert code == 2 and "at least 1" in err
    # the variable can only lower the cap: 2^20 is clamped to 2^16, so a
    # bare secret key over GF(2^17) is still refused before any table work
    big = FiniteField(2, 17)
    secret = HFESecretKey(
        big, LinPoly.one(big), DOPoly(big, {(0, 1): big.one()}), LinPoly.one(big), 3
    )
    key_path, field_path = tmp_path / "big.json", tmp_path / "big-field.json"
    key_path.write_text(ser.dumps(ser.secret_to_obj(secret)))
    field_path.write_text(ser.dumps(ser.field_to_obj(big)))
    monkeypatch.setenv("TOOL_POLICY_MAX_Q", str(1 << 20))
    code, _, err = run(
        capsys, "decrypt", "--key", str(key_path), "--field", str(field_path),
        "--ciphertext", ",".join(["0"] * 17),
    )
    assert code == 1 and f"exceeds decrypt cap {POLICY_MAX_Q}" in err
