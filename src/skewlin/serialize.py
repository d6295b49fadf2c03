"""JSON forms for fields, polynomials, key material, and statistics.

Output is canonical: keys sorted, one trailing newline, so equal objects
always serialize to identical bytes.  Field elements are digit arrays in
the field's little-endian digit convention.  Twisted polynomials carry
their twist step under the key "s".  Parsing is strict: missing or
unknown keys, wrong JSON types, and out-of-range digits all raise
ParseError; semantic problems (a reducible modulus, a non-prime p) are
left to the constructors and surface as domain errors instead.

The HFE types are imported inside the functions that build them, so a
caller that reads only fields and polynomials never loads hfe.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import ParseError
from .fields import FiniteField, FqElem
from .skew import SkewPoly

if TYPE_CHECKING:
    from .decompose import Decomposition, SplitStats
    from .hfe import DOPoly, HFEKeyPair, HFEPublicKey, HFESecretKey, MultivariateKey


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def parse_text(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None


# ----------------------------------------------------------------------
# schema helpers


def _need_dict(obj: Any, what: str, required: set, optional: set = frozenset()) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{what} is missing key(s): {', '.join(sorted(missing))}")
    extra = keys - required - optional
    if extra:
        raise ParseError(f"{what} has unknown key(s): {', '.join(sorted(extra))}")
    return obj


def _need_int(obj: Any, what: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ParseError(f"{what} must be an integer")
    return obj


def _need_list(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{what} must be an array")
    return obj


# ----------------------------------------------------------------------
# fields and elements


def field_to_obj(field: FiniteField) -> dict:
    out: dict[str, Any] = {
        "p": field.p,
        "e": field.e,
        "modulus": list(field.modulus),
    }
    if not field._default_basis:
        out["basis"] = [list(b.digits) for b in field.basis]
    return out


def field_from_obj(obj: Any) -> FiniteField:
    obj = _need_dict(obj, "field", {"p", "e", "modulus"}, {"basis"})
    p = _need_int(obj["p"], "field.p")
    e = _need_int(obj["e"], "field.e")
    modulus = [_need_int(c, "field.modulus entry") for c in _need_list(obj["modulus"], "field.modulus")]
    basis = None
    if "basis" in obj:
        basis = [
            [_need_int(d, "field.basis digit") for d in _need_list(row, "field.basis row")]
            for row in _need_list(obj["basis"], "field.basis")
        ]
    return FiniteField(p, e, modulus, basis)


def element_to_obj(x: FqElem) -> list[int]:
    return list(x.digits)


def element_from_obj(field: FiniteField, obj: Any) -> FqElem:
    digits = [_need_int(d, "element digit") for d in _need_list(obj, "element")]
    if len(digits) != field.e:
        raise ParseError(f"element needs {field.e} digits, got {len(digits)}")
    if any(not (0 <= d < field.p) for d in digits):
        raise ParseError(f"element digits must lie in [0, {field.p})")
    return field.element(tuple(digits))


# ----------------------------------------------------------------------
# twisted polynomials


def skewpoly_to_obj(f: SkewPoly) -> dict:
    return {"s": f.twist, "coeffs": [list(f.field._digits(c)) for c in f._c]}


linpoly_to_obj = skewpoly_to_obj


def _twisted_from_obj(field: FiniteField, obj: Any, what: str) -> SkewPoly:
    obj = _need_dict(obj, what, {"s", "coeffs"})
    twist = _need_int(obj["s"], f"{what}.s")
    if twist < 1:
        raise ParseError(f"{what}.s must be at least 1")
    coeffs = [
        element_from_obj(field, c) for c in _need_list(obj["coeffs"], f"{what}.coeffs")
    ]
    return SkewPoly(field, coeffs, twist)


def linpoly_from_obj(field: FiniteField, obj: Any) -> SkewPoly:
    return _twisted_from_obj(field, obj, "additive polynomial")


def skewpoly_from_obj(field: FiniteField, obj: Any) -> SkewPoly:
    return _twisted_from_obj(field, obj, "skew polynomial")


# ----------------------------------------------------------------------
# DO polynomials


def dopoly_to_obj(D: DOPoly) -> dict:
    return {
        "quad": [[i, j, list(c.digits)] for (i, j), c in sorted(D.quad.items())],
        "lin": None if D.lin.is_zero else linpoly_to_obj(D.lin),
        "const": list(D.const.digits),
    }


def dopoly_from_obj(field: FiniteField, obj: Any) -> DOPoly:
    from .hfe import DOPoly

    obj = _need_dict(obj, "DO polynomial", {"quad", "lin", "const"})
    quad: dict[tuple[int, int], FqElem] = {}
    for entry in _need_list(obj["quad"], "quad terms"):
        entry = _need_list(entry, "quad term")
        if len(entry) != 3:
            raise ParseError("quad term must be [i, j, digits]")
        i = _need_int(entry[0], "quad index")
        j = _need_int(entry[1], "quad index")
        if i < 0 or j < 0:
            raise ParseError("quad indices must be nonnegative")
        c = element_from_obj(field, entry[2])
        key = (i, j) if i <= j else (j, i)
        if key in quad:
            raise ParseError(f"duplicate quad term for indices {key}")
        quad[key] = c
    lin = SkewPoly.zero(field) if obj["lin"] is None else linpoly_from_obj(field, obj["lin"])
    if lin.twist != 1:
        raise ParseError("DO polynomial additive part must have s = 1")
    const = element_from_obj(field, obj["const"])
    return DOPoly(field, quad, lin, const)


# ----------------------------------------------------------------------
# multivariate key


def multivariate_to_obj(M: MultivariateKey) -> dict:
    return {
        "p": M.p,
        "n_vars": M.n_vars,
        "quad": [
            [[s, t, c] for (s, t), c in sorted(M.quad[k].items())] for k in range(M.n_vars)
        ],
        "lin": [[[s, c] for s, c in sorted(M.lin[k].items())] for k in range(M.n_vars)],
        "const": list(M.const),
    }


# ----------------------------------------------------------------------
# key material


def public_to_obj(pub: HFEPublicKey) -> dict:
    return {
        "field": field_to_obj(pub.field),
        "E": dopoly_to_obj(pub.poly),
        "multivariate": multivariate_to_obj(pub.multivariate),
    }


def public_from_obj(obj: Any) -> HFEPublicKey:
    """Parse a public key; E is authoritative and the stored forms must be E's.

    Compared as canonical text, so true, 1.0 or an explicit zero term fails.
    """
    from .hfe import HFEPublicKey

    obj = _need_dict(obj, "public key", {"field", "E", "multivariate"})
    field = field_from_obj(obj["field"])
    public = HFEPublicKey(dopoly_from_obj(field, obj["E"]))
    if dumps(obj["multivariate"]) != dumps(multivariate_to_obj(public.multivariate)):
        raise ParseError("multivariate key is not the coordinate form of E")
    return public


def secret_to_obj(sec: HFESecretKey) -> dict:
    return {
        "S": linpoly_to_obj(sec.outer),
        "D": dopoly_to_obj(sec.core),
        "T": linpoly_to_obj(sec.inner),
        "d": sec.bound,
    }


def secret_from_obj(field: FiniteField, obj: Any) -> HFESecretKey:
    from .hfe import HFESecretKey

    obj = _need_dict(obj, "secret key", {"S", "D", "T", "d"})
    outer = linpoly_from_obj(field, obj["S"])
    core = dopoly_from_obj(field, obj["D"])
    inner = linpoly_from_obj(field, obj["T"])
    bound = _need_int(obj["d"], "secret.d")
    return HFESecretKey(field, outer, core, inner, bound)


def keypair_to_obj(kp: HFEKeyPair) -> dict:
    return {
        "public": public_to_obj(kp.public),
        "secret": secret_to_obj(kp.secret),
    }


def keypair_from_obj(obj: Any) -> HFEKeyPair:
    from .hfe import HFEKeyPair

    obj = _need_dict(obj, "key pair", {"public", "secret"})
    public = public_from_obj(obj["public"])
    secret = secret_from_obj(public.field, obj["secret"])
    kp = HFEKeyPair(public, secret)
    if not kp.is_consistent():
        raise ParseError("secret key does not compose to the public map E")
    return kp


# ----------------------------------------------------------------------
# results


def stats_to_obj(st: SplitStats) -> dict:
    return {
        "trials": st.trials,
        "first_try_successes": st.first_try_successes,
        "mean_tries": st.mean_tries,
        "ci95": [st.ci95[0], st.ci95[1]],
        "seed": st.seed,
    }


def decomposition_to_obj(dec: Decomposition) -> dict:
    return {
        "unit": list(dec.unit.digits),
        "factors": [skewpoly_to_obj(g) for g in dec.factors],
        "certified": True,
    }
