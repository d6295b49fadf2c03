"""Command-line interface: verbs, exit codes, canonical output."""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import skewlin
import skewlin.hfe as hfe
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
    return ser.public_to_obj(HFEPublicKey(E)), field, E


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

    monkeypatch.setattr("skewlin.decompose.decompose_complete", broken)
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


def test_readme_key_transcript(capsys, tmp_path):
    # the four commands of the README's key transcript, in order
    code, out, err = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "9")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "223cedabf97dce8c6d7a4ab17f4b814a85dfed427e758d9ef5c89c237def8a06"
    )
    path = tmp_path / "kp.json"
    path.write_text(out)
    key = str(path)
    assert run(capsys, "encrypt", "--key", key, "--message", "1,0,1,0") == (
        0, '{"ciphertext": [0, 1, 0, 1]}\n', ""
    )
    assert run(capsys, "decrypt", "--key", key, "--ciphertext", "0,1,0,1") == (
        0,
        '{"plaintexts": [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 1], '
        '[0, 0, 1, 1]]}\n',
        "",
    )
    # every reduced DO exponent over GF(2^4) is at most 2^3 + 2^2 = 12, below
    # the default bound 16, so peeling the unit leaves E itself as the core
    code, out_a, err = run(capsys, "attack", "--key", key, "--seed", "0", "--max-rounds", "4")
    assert code == 0 and err == ""
    E = json.loads(out)["public"]["E"]
    assert json.loads(out_a) == {
        "left": {"coeffs": [[1, 0, 0, 0]], "s": 1},
        "core": E,
        "rounds": 1,
    }
    assert out_a == ser.dumps(json.loads(out_a))


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("--p", "3", "--e", "3", "--seed", "7"),
            "5d13302d80639b3afd55405b78f0d102113a538484d44f532f6525338e12136d",
        ),
        (
            ("--p", "5", "--e", "2", "--seed", "1"),
            "822db18f6edb0473f78cd6ab53fe1988c9c98622e43529883134664c1654206d",
        ),
        (
            ("--p", "3", "--e", "4", "--seed", "2", "--degree-bound", "12"),
            "2d36259cb325fd4c5523a98e4154aea333ef3e6d9785a26c15f7b33fe9741331",
        ),
    ],
    ids=["gf27", "gf25", "gf81-bound12"],
)
def test_keygen_bytes_pinned_odd_p(capsys, argv, digest):
    # odd p draws diagonal pairs (i, i): these pin that draw order
    code, out, err = run(capsys, "keygen", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("--p", "2", "--e", "8", "--seed", "42"),
            "1183f24ae0416843b2b1a5057d1523d10a792e2f80cabd3cd469f3a4814c2e7d",
        ),
        (
            ("--p", "3", "--e", "6", "--seed", "5"),
            "776c50367e2e59c8d8b8627040dcd6e9ae31b79df436600d987ca9de63dce78b",
        ),
    ],
    ids=["gf256", "gf729"],
)
def test_keygen_bytes_pinned_benchmark_fields(capsys, argv, digest):
    # the fields of the attack and roundtrip benchmarks: key generation
    # composes on folded indices there, and these pin its bytes
    code, out, err = run(capsys, "keygen", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tampered_forms_exit_2(capsys, tmp_path):
    # E intact, the forms changed with the same shape: one term dropped
    # (GF(2^4)), or one coefficient moved to another nonzero value (GF(3^2))
    for p, e, seed in (("2", "4", "9"), ("3", "2", "2")):
        _, out, _ = run(capsys, "keygen", "--p", p, "--e", e, "--seed", seed)
        kp_obj = json.loads(out)
        row = kp_obj["public"]["multivariate"]["quad"][0]
        if p == "2":
            row.pop()
        else:
            row[0][2] = 3 - row[0][2]
        path = tmp_path / f"kp-{p}.json"
        path.write_text(ser.dumps(kp_obj))
        pub_path = tmp_path / f"pub-{p}.json"
        pub_path.write_text(ser.dumps(kp_obj["public"]))
        message = ",".join(["1"] * int(e))
        for key in (str(path), str(pub_path)):
            code, out_c, err = run(capsys, "encrypt", "--key", key, "--message", message)
            assert code == 2 and out_c == "" and "coordinate form of E" in err
            code, out_a, err = run(capsys, "attack", "--key", key, "--seed", "0")
            assert code == 2 and out_a == "" and "coordinate form of E" in err


def test_tampered_secret_exit_2(capsys, tmp_path):
    # the README key with one digit of a secret.D quad coefficient flipped
    _, out, _ = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "9")
    kp_obj = json.loads(out)
    digits = kp_obj["secret"]["D"]["quad"][0][2]
    digits[0] ^= 1
    path = tmp_path / "kp.json"
    path.write_text(ser.dumps(kp_obj))
    key = str(path)
    for argv in (
        ("decrypt", "--key", key, "--ciphertext", "0,1,0,1"),
        ("encrypt", "--key", key, "--message", "1,0,1,0"),
        ("attack", "--key", key, "--seed", "0"),
    ):
        code, out_v, err = run(capsys, *argv)
        assert code == 2 and out_v == "" and "compose to the public map E" in err


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


def test_decrypt_bare_secret_that_is_no_permutation_exits_1(capsys, tmp_path):
    field = FiniteField(2, 4)
    bad = LinPoly(field, [field.one(), field.one()])  # X^2 + X, kernel {0, 1}
    one = LinPoly.one(field)
    core = DOPoly(field, {(0, 1): field.generator()})
    field_path = tmp_path / "field.json"
    field_path.write_text(ser.dumps(ser.field_to_obj(field)))
    for outer, inner in ((bad, one), (one, bad)):
        sec_path = tmp_path / "sec.json"
        sec_path.write_text(ser.dumps(ser.secret_to_obj(HFESecretKey(field, outer, core, inner, 3))))
        code, out, err = run(
            capsys, "decrypt", "--key", str(sec_path), "--field", str(field_path),
            "--ciphertext", "1,0,0,0",
        )
        assert code == 1 and out == "" and "does not permute" in err


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


def test_attack_batch_checks_recovered_factors_decrypt(capsys, monkeypatch):
    # instance 0 at seed 0 is recovered in one round, so its test message
    # reaches the decryption check, which fires when nothing decrypts
    argv = ("attack", "--instances", "1", "--p", "2", "--e", "4", "--seed", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["results"] == [{"instance": 0, "ok": True, "rounds": 1}]
    monkeypatch.setattr("skewlin.hfe.decrypt_with_factors", lambda *args, **kwargs: [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "skewlin: recovered factors failed to decrypt a test message\n"


def test_attack_batch_test_message_ignores_the_attacks_draws(capsys, monkeypatch):
    # the message that checks a recovered key comes from an rng of its own,
    # seeded by --seed and the instance: an attack that leaves its rng
    # elsewhere changes neither the messages nor the bytes
    argv = ("attack", "--instances", "8", "--p", "2", "--e", "4", "--seed", "1")
    messages = []
    encrypt = hfe.hfe_encrypt
    monkeypatch.setattr(hfe, "hfe_encrypt", lambda pub, m: messages.append(m) or encrypt(pub, m))
    plain = run(capsys, *argv)
    drawn, messages[:] = messages[:], []
    attack = hfe.gcldf_attack

    def wasteful(E, bound, rng, *args, **kwargs):
        result = attack(E, bound, rng, *args, **kwargs)
        for _ in range(7):
            rng.random()
        return result

    monkeypatch.setattr(hfe, "gcldf_attack", wasteful)
    assert run(capsys, *argv) == plain and plain[0] == 0
    assert messages == drawn and len(drawn) == json.loads(plain[1])["successes"] >= 2


def test_attack_rejects_nonpositive_max_rounds(capsys, tmp_path):
    _, out, _ = run(capsys, "keygen", "--p", "2", "--e", "4", "--seed", "4")
    path = tmp_path / "kp.json"
    path.write_text(out)
    for rounds in ("0", "-3"):
        for source in (["--key", str(path)], ["--instances", "1", "--p", "2", "--e", "4"]):
            code, out2, err = run(capsys, "attack", *source, "--max-rounds", rounds)
            assert (code, out2) == (2, "") and "--max-rounds" in err


def test_attack_bytes_pinned(capsys):
    # the README example
    argv = "--instances 3 --p 2 --e 8 --seed 5 --max-rounds 4".split()
    code, out, err = run(capsys, "attack", *argv)
    expected = (
        '{"instances": 3, "rate": 0.0, "results": [{"instance": 0, "ok": false, '
        '"rounds": 4}, {"instance": 1, "ok": false, "rounds": 4}, {"instance": 2, '
        '"ok": false, "rounds": 4}], "successes": 0}\n'
    )
    assert (code, out, err) == (0, expected, "")


# sha256 of stdout for attack runs that recover keys, pinned before the
# attack drew its shifts lazily: batches over GF(2^4), GF(9) and GF(25)
# (recoveries, failures after max_rounds and pools that run out), and the
# fold-free GF(2^8) key recovered in one, two and three rounds
ATTACK_PINS = {
    "--instances 8 --p 2 --e 4 --seed 1": (
        0, "4fcea90b53ed1782250eff2c636fc6684dbf947783fb0c82ddabc0337f5dabd1", ""
    ),
    "--instances 8 --p 2 --e 4 --seed 0 --degree-bound 8": (
        0, "48bcfbfe4e68ef5a77fca7fa2bc6784093980de320df534b9205c93f20d11c13", ""
    ),
    "--instances 8 --p 3 --e 2 --seed 1 --degree-bound 9": (
        0, "d30a028083d85d720104ceac5e11b792c133901244092f2acb6d131eacd9f652", ""
    ),
    "--instances 8 --p 5 --e 2 --seed 1 --degree-bound 25": (
        0, "50c4f4e5b4c75829f06d87869659ed41740362f98c13f811fd9261d50f8f5b6c", ""
    ),
    "--key KEY --seed 0 --max-rounds 3": (
        0, "248ab2571c9d74fd51ede9c6385ab1dabfa33229da5c7c98c7dc4c415485957c", ""
    ),
    "--key KEY --seed 10 --max-rounds 3": (
        0, "e21b09334c966b62123de62dfc97b2a1fd4ff205676552947c969ea153ba9603", ""
    ),
    "--key KEY --seed 153 --max-rounds 3": (
        0, "925a67dc6c26f1a77b69a37f0c7c678d74300e1704a28b5def50985a6cf68148", ""
    ),
    "--key KEY --seed 153 --max-rounds 2": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "skewlin: attack failed after 2 round(s)\n",
    ),
}


@pytest.mark.parametrize("argv", list(ATTACK_PINS))
def test_attack_recovery_bytes_pinned(capsys, tmp_path, argv):
    path = tmp_path / "pub.json"
    path.write_text(ser.dumps(foldfree_public_obj()[0]))
    code, out, err = run(capsys, "attack", *argv.replace("KEY", str(path)).split())
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == ATTACK_PINS[argv]


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


# sha256 of `python -m skewlin decompose --in F --seed S` stdout, F a seeded
# product of random monic parts of the given degrees; the fresh process
# runs with division checks off.  GF(2^16) and GF(2^20) use the bit
# kernels, twist 2 over GF(2^20) has a fixed field larger than F_2, and
# twists 2 and 4 over GF(2^4) have gcd(twist, e) > 1 with quadratic
# parts that inherit the minimal polynomial of Y^(e/g) from their splits
@pytest.mark.parametrize(
    "case,digest",
    [
        (
            (2, 4, 1, (1, 2, 2, 2), 1),
            "cb223b49fa3cf643bb0375e821a73f18099cba86f8403dcfcf3ad001b59d8abe",
        ),
        (
            (2, 4, 3, (2, 1, 2), 2),
            "6b1ff53d4d9f348854c59db546e2117e2feb35ee610e5f2430cd01af5fb11c76",
        ),
        (
            (2, 16, 1, (1, 2, 1), 3),
            "888a0acf240d0da541f18963cb62a8b67de7b5a3512056d2a6aecfc4a886f082",
        ),
        (
            (2, 20, 3, (2, 1), 4),
            "71e0e41b2313cea90c0cdeb3e349ae9631eca225005def1e614a5334cc336c11",
        ),
        (
            (2, 20, 2, (1, 1, 1), 5),
            "070b9f1af57d814166f1e186f6d7727c59661785575912470d4872284bfc3bb9",
        ),
        (
            (2, 4, 2, (2, 2, 2), 6),
            "a7c8f86462d6231c216b39f8dc68502fefed7f38842730bebaa87a96e495c455",
        ),
        (
            (2, 4, 4, (2, 2, 2), 9),
            "93dd2da7b957bc16d559a3199a03900761b5bb95af55db21b094fea8e0c14709",
        ),
    ],
    ids=[
        "gf16", "gf16-twist3", "gf2^16", "gf2^20-twist3", "gf2^20-twist2",
        "gf16-twist2", "gf16-twist4",
    ],
)
def test_decompose_bytes_pinned(tmp_path, case, digest):
    p, e, twist, degrees, seed = case
    field = FiniteField(p, e)
    rng = random.Random(seed)
    f = SkewPoly.one(field, twist)
    for d in degrees:
        coeffs = [field.random_element(rng) for _ in range(d)] + [field.one()]
        f = f * SkewPoly(field, coeffs, twist)
    path = tmp_path / "f.json"
    path.write_text(ser.dumps({"field": ser.field_to_obj(field), "poly": ser.skewpoly_to_obj(f)}))
    env = dict(os.environ)
    src = str(pathlib.Path(skewlin.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "skewlin", "decompose", "--in", str(path), "--seed", str(seed)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
