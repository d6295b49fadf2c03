"""Command line front end.

Verbs:
    field      print a field description (canonical modulus when omitted)
    decompose  completely decompose a skew polynomial from a JSON file
    gcldf      greatest common left divisor factor of two additive polynomials
    keygen     sample an HFE key pair
    encrypt    evaluate a public key at a message
    decrypt    invert a ciphertext with the secret key
    attack     recover a factorisation of a public key, or batch-run instances
    probe      estimate the first-try zero-divisor success rate

Results go to stdout as canonical JSON (sorted keys, trailing newline);
diagnostics go to stderr.  Exit status: 0 on success, 1 for domain
failures (attack gave up, policy cap exceeded, division by zero, and so
on), 2 for malformed input (bad JSON, schema violations, unreadable
files, bad flags).  All randomness is seeded (default 0), so reruns with
the same arguments produce byte-identical output; input files are never
written to.  The environment variable TOOL_POLICY_MAX_Q lowers the
field-size cap for exhaustive decryption steps; values above
hfe.POLICY_MAX_Q are clamped to it, values below 1 are rejected.

A key pair file loads only when its secret half composes to its public
map E (exit 2 otherwise).  A bare secret key given to decrypt with
--field has no E to check against, so it is used as it stands.

Each verb imports the decomposition, HFE and skew modules it runs inside
its own function, so one call loads only what that verb needs.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Any, Optional

from . import serialize as ser
from .errors import AttackFailedError, InvariantError, ParseError, SkewlinError
from .fields import FiniteField

SEED_STRIDE = 1_000_003


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ser.parse_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _field_from_args(args: argparse.Namespace) -> FiniteField:
    return FiniteField(args.p, args.e, args.modulus)


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic")
    sub.add_argument("--e", type=int, required=True, help="extension degree")
    sub.add_argument(
        "--modulus",
        type=_csv_ints,
        default=None,
        help="monic modulus digits, low first (default: canonical scan)",
    )


# ----------------------------------------------------------------------
# verbs


def cmd_field(args: argparse.Namespace) -> dict:
    return ser.field_to_obj(_field_from_args(args))


def cmd_decompose(args: argparse.Namespace) -> dict:
    from .decompose import decompose_complete

    obj = _load_json(args.input)
    obj = ser._need_dict(obj, "decompose input", {"field", "poly"})
    field = ser.field_from_obj(obj["field"])
    poly = ser.skewpoly_from_obj(field, obj["poly"])
    rng = random.Random(args.seed)
    dec = decompose_complete(poly, rng=rng)
    return ser.decomposition_to_obj(dec)


def cmd_gcldf(args: argparse.Namespace) -> dict:
    from .skew import gcldf

    obj = _load_json(args.input)
    obj = ser._need_dict(obj, "gcldf input", {"field", "f", "g"})
    field = ser.field_from_obj(obj["field"])
    f = ser.linpoly_from_obj(field, obj["f"])
    g = ser.linpoly_from_obj(field, obj["g"])
    G, A, B = gcldf(f, g)
    return {
        "G": ser.linpoly_to_obj(G),
        "A": ser.linpoly_to_obj(A),
        "B": ser.linpoly_to_obj(B),
    }


def cmd_keygen(args: argparse.Namespace) -> dict:
    from .hfe import hfe_keygen

    field = _field_from_args(args)
    rng = random.Random(args.seed)
    kp = hfe_keygen(field, rng, degree_bound=args.degree_bound)
    return ser.keypair_to_obj(kp)


def _public_from_file(obj: Any):
    if isinstance(obj, dict) and set(obj) == {"public", "secret"}:
        return ser.keypair_from_obj(obj).public
    return ser.public_from_obj(obj)


def cmd_encrypt(args: argparse.Namespace) -> dict:
    from .hfe import hfe_encrypt

    public = _public_from_file(_load_json(args.key))
    m = ser.element_from_obj(public.field, args.message)
    c = hfe_encrypt(public, m)
    return {"ciphertext": ser.element_to_obj(c)}


def cmd_decrypt(args: argparse.Namespace) -> dict:
    from .hfe import hfe_decrypt

    obj = _load_json(args.key)
    if isinstance(obj, dict) and set(obj) == {"public", "secret"}:
        kp = ser.keypair_from_obj(obj)
        field, secret = kp.public.field, kp.secret
    else:
        if args.field is None:
            raise ParseError("a bare secret key needs --field")
        field = ser.field_from_obj(_load_json(args.field))
        secret = ser.secret_from_obj(field, obj)
    y = ser.element_from_obj(field, args.ciphertext)
    ms = hfe_decrypt(secret, y, max_q=args._max_q)
    return {"plaintexts": [ser.element_to_obj(m) for m in ms]}


def cmd_attack(args: argparse.Namespace) -> dict:
    from .hfe import gcldf_attack

    if args.max_rounds < 1:
        raise ParseError("--max-rounds must be at least 1")
    if args.instances is not None:
        return _attack_batch(args)
    if args.key is None:
        raise ParseError("attack needs --key, or --instances with --p/--e")
    public = _public_from_file(_load_json(args.key))
    rng = random.Random(args.seed)
    result = gcldf_attack(public.poly, args.degree_bound, rng, max_rounds=args.max_rounds)
    return {
        "left": ser.linpoly_to_obj(result.left),
        "core": ser.dopoly_to_obj(result.core),
        "rounds": result.rounds,
    }


def _attack_batch(args: argparse.Namespace) -> dict:
    from .hfe import decrypt_with_factors, gcldf_attack, hfe_encrypt, hfe_keygen

    if args.p is None or args.e is None:
        raise ParseError("attack --instances needs --p and --e")
    if args.instances < 0:
        raise ParseError("--instances must be nonnegative")
    field = _field_from_args(args)
    results = []
    successes = 0
    for i in range(args.instances):
        rng = random.Random(args.seed * SEED_STRIDE + i)
        kp = hfe_keygen(field, rng, degree_bound=args.degree_bound)
        entry: dict[str, Any] = {"instance": i}
        try:
            res = gcldf_attack(kp.public.poly, args.degree_bound, rng, args.max_rounds)
        except AttackFailedError as exc:
            entry["ok"] = False
            entry["rounds"] = exc.rounds_used
        else:
            # the test message has an rng of its own, so it does not
            # depend on how many draws the attack made
            m = field.random_element(random.Random(f"message {args.seed} {i}"))
            y = hfe_encrypt(kp.public, m)
            recovered = decrypt_with_factors(res.left, res.core, y, max_q=args._max_q)
            if m not in recovered:
                raise InvariantError("recovered factors failed to decrypt a test message")
            entry["ok"] = True
            entry["rounds"] = res.rounds
            successes += 1
        results.append(entry)
    n = args.instances
    return {
        "instances": n,
        "successes": successes,
        "rate": successes / n if n else 0.0,
        "results": results,
    }


def cmd_probe(args: argparse.Namespace) -> dict:
    from .decompose import estimate_split_success

    field = _field_from_args(args)
    stats = estimate_split_success(
        field, args.degree, args.trials, args.seed, twist=args.twist
    )
    return ser.stats_to_obj(stats)


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlin",
        description="additive-polynomial decomposition and a desk-scale HFE attack",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    s = subs.add_parser("field", help="print a field description")
    _add_field_flags(s)
    s.set_defaults(func=cmd_field)

    s = subs.add_parser("decompose", help="completely decompose a skew polynomial")
    s.add_argument("--in", dest="input", required=True, help="JSON file with field and poly")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_decompose)

    s = subs.add_parser("gcldf", help="common left divisor factor of two additive polynomials")
    s.add_argument("--in", dest="input", required=True, help="JSON file with field, f, g")
    s.set_defaults(func=cmd_gcldf)

    s = subs.add_parser("keygen", help="sample an HFE key pair")
    _add_field_flags(s)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--degree-bound", type=int, default=None)
    s.set_defaults(func=cmd_keygen)

    s = subs.add_parser("encrypt", help="encrypt a message element")
    s.add_argument("--key", required=True, help="public key or key pair JSON file")
    s.add_argument("--message", type=_csv_ints, required=True, help="element digits, low first")
    s.set_defaults(func=cmd_encrypt)

    s = subs.add_parser("decrypt", help="decrypt a ciphertext element")
    s.add_argument("--key", required=True, help="secret key or key pair JSON file")
    s.add_argument("--field", default=None, help="field JSON file (for a bare secret key)")
    s.add_argument("--ciphertext", type=_csv_ints, required=True, help="element digits, low first")
    s.set_defaults(func=cmd_decrypt)

    s = subs.add_parser("attack", help="factor a public key, or batch-run fresh instances")
    s.add_argument("--key", default=None, help="public key or key pair JSON file")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--e", type=int, default=None)
    s.add_argument("--modulus", type=_csv_ints, default=None)
    s.add_argument("--instances", type=int, default=None, help="batch mode: fresh key pairs")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--degree-bound", type=int, default=None)
    s.add_argument("--max-rounds", type=int, default=16)
    s.set_defaults(func=cmd_attack)

    s = subs.add_parser("probe", help="zero-divisor success-rate estimate")
    _add_field_flags(s)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--twist", type=int, default=1)
    s.set_defaults(func=cmd_probe)

    return parser


def _policy_cap(raw: Optional[str]) -> Optional[int]:
    """The decrypt cap set by TOOL_POLICY_MAX_Q, clamped to POLICY_MAX_Q."""
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"TOOL_POLICY_MAX_Q must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ParseError(f"TOOL_POLICY_MAX_Q must be at least 1, got {cap}")
    from .hfe import POLICY_MAX_Q

    return min(cap, POLICY_MAX_Q)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._max_q = _policy_cap(os.environ.get("TOOL_POLICY_MAX_Q"))
        out = args.func(args)
    except ParseError as exc:
        print(f"skewlin: {exc}", file=sys.stderr)
        return 2
    except (SkewlinError, ZeroDivisionError, ValueError) as exc:
        print(f"skewlin: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(ser.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
