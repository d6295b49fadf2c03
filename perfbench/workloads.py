"""Inputs, operations and output checks of the four benchmark workloads.

Each workload is built from a seed and nothing else: ``setup()`` makes
every input (fields, polynomials, keys, core tables, CLI input files),
``run_op(i)`` performs operation ``i`` and returns what the library
returned, and ``check(i, result)`` decides, outside the timed interval,
whether that result is correct.  Operations cycle over the inputs, so any
number of them can be run.  ``input_bytes()`` is the canonical JSON of the
generated inputs, used to show that one seed always gives the same inputs.

The library only ever sees the generated objects.  Library functions are
called through their modules (``hfe.hfe_keygen``), so that the wrappers
the traced run installs on module attributes see these calls too.
``skew.CHECK_DIVISION`` is set per workload, as the tier-1 suite does.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from skewlin import decompose, hfe, skew
from skewlin import serialize as ser
from skewlin.errors import AttackFailedError, SkewlinError
from skewlin.fields import FiniteField
from skewlin.hfe import DOPoly
from skewlin.linpoly import LinPoly
from skewlin.skew import SkewPoly

SEED_STRIDE = 1_000_003


def _rng(seed: int, stream: int, index: int) -> random.Random:
    """Independent generator for one input or one operation."""
    return random.Random((seed * SEED_STRIDE + stream) * SEED_STRIDE + index)


class Workload:
    """One named set of inputs and the operation run on them."""

    name = ""
    check_division = False
    # Fixed tail percentile: the highest one with at least ten samples
    # beyond it at the run length in BENCHMARK.json, fixed per workload so
    # that a faster commit is compared on the same percentile.
    tail_pct = 90.0
    # Operations in a traced run (and in the untraced run it is compared to).
    traced_ops = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        skew.CHECK_DIVISION = self.check_division
        self.build()

    def build(self) -> None:
        """Make every input (fields, polynomials, keys, tables, files)."""
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def properties(self, n_ops: int) -> dict:
        """Shares of input properties over the first n_ops operations."""
        return {}

    def recovered(self, result):
        """Whether an attack result is a key recovery; None where no attack runs."""
        return None

    def input_bytes(self) -> bytes:
        raise NotImplementedError


# ----------------------------------------------------------------------
# decompose-gf16


def _monic_skew(field: FiniteField, degree: int):
    q = field.q
    for idx in range(q**degree):
        coeffs = []
        for _ in range(degree):
            coeffs.append(field.from_int(idx % q))
            idx //= q
        yield SkewPoly(field, coeffs + [field.one()])


# Factor-degree patterns of one cycle of 20 products.  The mix follows the
# criterion-03 draw (2-4 factors from 16 degree-1 and 85 degree-2
# irreducibles, plus a share of degree-1-only products), but is fixed, so
# that the seed changes which irreducibles are multiplied and not how much
# work a run holds.  Products of degree <= 3 take the certified sweep path
# (degree * e <= ORACLE_LIMIT), the rest the random-only path.
DECOMPOSE_PATTERNS = (
    (2, 2), (1, 2, 2, 2), (2, 2, 2), (1, 1), (2, 2, 2, 2),
    (1, 2), (2, 2), (2, 2, 2), (1, 2, 2), (2, 2, 2, 2),
    (1, 1, 1), (2, 2, 2), (2, 2), (1, 1, 2), (1, 2, 2, 2),
    (1, 2), (2, 2, 2), (2, 2), (1, 2, 2), (2, 2, 2, 2),
)


class DecomposeGF16(Workload):
    """Complete decomposition of planted products over GF(2^4), twist 1."""

    name = "decompose-gf16"
    check_division = True
    tail_pct = 90.0
    traced_ops = 20
    n_inputs = 10 * len(DECOMPOSE_PATTERNS)

    def build(self) -> None:
        field = FiniteField(2, 4)
        deg1 = list(_monic_skew(field, 1))
        deg2 = [
            f for f in _monic_skew(field, 2) if not any(f.mod_right(d).is_zero for d in deg1)
        ]
        pools = {1: deg1, 2: deg2}
        self.field = field
        self.inputs = []
        for i in range(self.n_inputs):
            rng = _rng(self.seed, 0, i)
            pattern = DECOMPOSE_PATTERNS[i % len(DECOMPOSE_PATTERNS)]
            parts = [rng.choice(pools[d]) for d in pattern]
            rng.shuffle(parts)
            f = SkewPoly.one(field)
            for g in parts:
                f = f * g
            self.inputs.append((f, tuple(sorted(pattern))))

    def run_op(self, i: int):
        f, _ = self.inputs[i % self.n_inputs]
        return decompose.decompose_complete(f, _rng(self.seed, 1, i))

    def check(self, i: int, result) -> bool:
        f, planted = self.inputs[i % self.n_inputs]
        return (
            result.unit == self.field.one()
            and all(g.is_monic for g in result.factors)
            and tuple(sorted(result.degrees())) == planted
            and result.product() == f
        )

    def properties(self, n_ops: int) -> dict:
        limit = decompose.ORACLE_LIMIT
        small = sum(
            1
            for i in range(n_ops)
            if self.inputs[i % self.n_inputs][0].degree * self.field.e <= limit
        )
        return {"oracle_limit_share": small / n_ops if n_ops else 0.0}

    def input_bytes(self) -> bytes:
        return ser.dumps(
            {
                "field": ser.field_to_obj(self.field),
                "products": [ser.skewpoly_to_obj(f) for f, _ in self.inputs],
            }
        ).encode()


# ----------------------------------------------------------------------
# attack-gf256


def foldfree_public(field: FiniteField, rng: random.Random) -> DOPoly:
    """outer . core with a fixed low-degree core, unreduced, so the left
    factor survives reduction and the attack can recover it."""
    core = DOPoly(
        field,
        {(0, 1): field.generator(), (0, 2): field.from_int(77)},
        LinPoly(field, [field.from_int(9), field.from_int(140)]),
        field.zero(),
    )
    while True:
        outer = LinPoly(field, [field.random_element(rng) for _ in range(3)])
        if not outer.is_zero and outer.is_permutation():
            return hfe.do_compose_lin(outer, core, "left")


FOLDFREE_BOUND = 16


class AttackGF256(Workload):
    """GCLDF key recovery on honest GF(2^8) keys and fold-free compositions."""

    name = "attack-gf256"
    tail_pct = 75.0
    traced_ops = 8
    n_honest = 18
    n_foldfree = 6
    fresh_ciphertexts = 2

    def build(self) -> None:
        field = FiniteField(2, 8)
        self.field = field
        honest = []
        for k in range(self.n_honest):
            kp = hfe.hfe_keygen(field, _rng(self.seed, 0, k))
            honest.append((kp.public.poly, kp.secret.bound, False))
        foldfree = [
            (foldfree_public(field, _rng(self.seed, 1, k)), FOLDFREE_BOUND, True)
            for k in range(self.n_foldfree)
        ]
        # three honest keys, then one fold-free composition, repeated
        step = self.n_honest // self.n_foldfree
        self.instances = []
        for k in range(self.n_foldfree):
            self.instances += honest[k * step : (k + 1) * step] + [foldfree[k]]

    def run_op(self, i: int):
        E, bound, _ = self.instances[i % len(self.instances)]
        try:
            return hfe.gcldf_attack(E, bound, _rng(self.seed, 2, i), max_rounds=16)
        except AttackFailedError as exc:
            return exc

    def check(self, i: int, result) -> bool:
        E, bound, foldfree = self.instances[i % len(self.instances)]
        if isinstance(result, AttackFailedError):
            # honest keys may resist; a fold-free composition must not
            return not foldfree
        if not result.left.is_permutation() or result.core.degree > bound:
            return False
        if hfe.do_compose_lin(result.left, result.core, "left", reduce=True) != E.reduce():
            return False
        rng = _rng(self.seed, 3, i)
        for _ in range(self.fresh_ciphertexts):
            m = self.field.random_element(rng)
            if m not in hfe.decrypt_with_factors(result.left, result.core, E(m)):
                return False
        return True

    def recovered(self, result) -> bool:
        return not isinstance(result, AttackFailedError)

    def properties(self, n_ops: int) -> dict:
        ff = sum(1 for i in range(n_ops) if self.instances[i % len(self.instances)][2])
        return {"foldfree_share": ff / n_ops if n_ops else 0.0}

    def input_bytes(self) -> bytes:
        return ser.dumps(
            {
                "field": ser.field_to_obj(self.field),
                "instances": [
                    {"E": ser.dopoly_to_obj(E), "bound": b, "foldfree": ff}
                    for E, b, ff in self.instances
                ],
            }
        ).encode()


# ----------------------------------------------------------------------
# roundtrip-gf729


class RoundtripGF729(Workload):
    """Encrypt then decrypt every plaintext under several GF(3^6) keys."""

    name = "roundtrip-gf729"
    # p99 of a 1 ms operation followed host jitter more than the library
    tail_pct = 90.0
    traced_ops = 1000
    n_keys = 4

    def build(self) -> None:
        field = FiniteField(3, 6)
        self.field = field
        self.keys = []
        for k in range(self.n_keys):
            kp = hfe.hfe_keygen(field, _rng(self.seed, 0, k))
            kp.secret.core_table()
            kp.secret.outer_inverse()
            kp.secret.inner_inverse()
            self.keys.append(kp)
        self.plaintexts = list(field.elements())
        _rng(self.seed, 1, 0).shuffle(self.plaintexts)
        self.cycle = self.n_keys * len(self.plaintexts)
        self._verified: dict[int, tuple] = {}

    def _pair(self, i: int):
        j = i % self.cycle
        return self.keys[j % self.n_keys], self.plaintexts[j // self.n_keys]

    def run_op(self, i: int):
        kp, m = self._pair(i)
        y = hfe.hfe_encrypt(kp.public, m)
        return y, hfe.hfe_decrypt(kp.secret, y)

    def check(self, i: int, result) -> bool:
        kp, m = self._pair(i)
        y, plaintexts = result
        if m not in plaintexts:
            return False
        # The coordinate forms are evaluated once per (key, plaintext); a
        # later cycle must reproduce the ciphertext checked then.
        j = i % self.cycle
        seen = self._verified.get(j)
        if seen is not None:
            return seen == y.digits
        field = self.field
        ok = kp.public.multivariate.evaluate(field.coordinates(m)) == field.coordinates(y)
        if ok:
            self._verified[j] = y.digits
        return ok

    def input_bytes(self) -> bytes:
        return ser.dumps(
            {
                "keys": [ser.keypair_to_obj(kp) for kp in self.keys],
                "plaintexts": [ser.element_to_obj(m) for m in self.plaintexts],
            }
        ).encode()


# ----------------------------------------------------------------------
# cli-mixed


def _digits(x) -> str:
    return ",".join(str(d) for d in x.digits)


def _random_monic_lin(field: FiniteField, degree: int, rng: random.Random) -> LinPoly:
    return LinPoly(field, [field.random_element(rng) for _ in range(degree)] + [field.one()])


class CliMixed(Workload):
    """A fixed cycle of ``python -m skewlin`` invocations, one child each.

    The cycle holds every verb once per input variant; several variants
    per verb keep the cost of a cycle from hanging on one seed's inputs.
    """

    name = "cli-mixed"
    tail_pct = 75.0
    traced_ops = 8
    variants = 6
    timeout_s = 60.0

    def __init__(self, seed: int, workdir: str, launcher=None):
        super().__init__(seed, workdir)
        # argv prefix of one child; the traced run swaps in its own entry point
        self.launcher = launcher or (lambda i: [sys.executable, "-m", "skewlin"])

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ser.dumps(obj))
        return path

    def build(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        f20, f16, f8 = FiniteField(2, 20), FiniteField(2, 16), FiniteField(2, 8)
        self.f8 = f8
        # (tag, argv, what the check compares the output with)
        self.calls: list[tuple[str, list[str], object]] = []
        for v in range(self.variants):
            self._add_variant(v, f20, f16, f8)
        self._stdout: dict[int, bytes] = {}

    def _add_variant(self, v: int, f20, f16, f8) -> None:
        cli_seed = str(self.seed * self.variants + v)
        calls = self.calls
        calls.append(("field", ["field", "--p", "2", "--e", "20"], None))
        for tag, field, degree in (("d20", f20, 2), ("d16", f16, 3)):
            rng = _rng(self.seed, 10 * v + degree, 0)
            f = SkewPoly.one(field)
            for _ in range(degree):
                f = f * SkewPoly(field, [field.random_element(rng), field.one()])
            obj = {"field": ser.field_to_obj(field), "poly": ser.skewpoly_to_obj(f)}
            path = self._write(f"{tag}-{v}.json", obj)
            calls.append((tag, ["decompose", "--in", path, "--seed", cli_seed], (f, degree)))
        calls.append(("keygen", ["keygen", "--p", "2", "--e", "8", "--seed", cli_seed], None))
        rng = _rng(self.seed, 10 * v + 1, 0)
        kp = hfe.hfe_keygen(f8, rng)
        key = self._write(f"keypair-{v}.json", ser.keypair_to_obj(kp))
        m_enc, m_dec = f8.random_element(rng), f8.random_element(rng)
        y_enc, y_dec = hfe.hfe_encrypt(kp.public, m_enc), hfe.hfe_encrypt(kp.public, m_dec)
        calls.append(("encrypt", ["encrypt", "--key", key, "--message", _digits(m_enc)], y_enc))
        calls.append(
            ("decrypt", ["decrypt", "--key", key, "--ciphertext", _digits(y_dec)], (kp, m_dec, y_dec))
        )
        G = _random_monic_lin(f8, 3, rng)
        f, g = G.compose(_random_monic_lin(f8, 3, rng)), G.compose(_random_monic_lin(f8, 2, rng))
        obj = {"field": ser.field_to_obj(f8), "f": ser.linpoly_to_obj(f), "g": ser.linpoly_to_obj(g)}
        path = self._write(f"gcldf-{v}.json", obj)
        calls.append(("gcldf", ["gcldf", "--in", path], (f, g, G.degree)))
        calls.append(
            ("attack", ["attack", "--instances", "1", "--p", "2", "--e", "8", "--seed", cli_seed], None)
        )

    def run_op(self, i: int):
        _, argv, _ = self.calls[i % len(self.calls)]
        proc = subprocess.run(
            self.launcher(i) + argv,
            capture_output=True,
            timeout=self.timeout_s,
            check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, i: int, result) -> bool:
        code, out = result
        if code != 0:
            return False
        j = i % len(self.calls)
        if self._stdout.setdefault(j, out) != out:
            return False  # a repeated invocation must print the same bytes
        tag, _, expected = self.calls[j]
        try:
            return self._check_output(tag, expected, json.loads(out))
        except (SkewlinError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            # malformed output is a failed check, never a crash of the benchmark
            print(f"check of {tag} output failed: {exc!r}", file=sys.stderr)
            return False

    def _check_output(self, tag: str, expected, obj) -> bool:
        f8 = self.f8
        if tag == "field":
            field = ser.field_from_obj(obj)  # rejects a reducible modulus
            return (field.p, field.e) == (2, 20)
        if tag in ("d20", "d16"):
            f, degree = expected
            factors = [ser.skewpoly_from_obj(f.field, g) for g in obj["factors"]]
            prod = SkewPoly.one(f.field)
            for g in factors:
                prod = prod * g
            unit = ser.element_from_obj(f.field, obj["unit"])
            return (
                len(factors) == degree
                and all(g.degree == 1 and g.is_monic for g in factors)
                and prod.left_scalar(unit) == f
            )
        if tag == "keygen":
            kp = ser.keypair_from_obj(obj)
            sec = kp.secret
            rebuilt = hfe.do_compose_lin(
                sec.outer, hfe.do_compose_lin(sec.inner, sec.core, "right"), "left"
            ).reduce()
            return kp.public.field == f8 and rebuilt == kp.public.poly
        if tag == "encrypt":
            return ser.element_from_obj(f8, obj["ciphertext"]) == expected
        if tag == "decrypt":
            kp, m, y = expected
            ms = [ser.element_from_obj(f8, x) for x in obj["plaintexts"]]
            return m in ms and all(hfe.hfe_encrypt(kp.public, x) == y for x in ms)
        if tag == "gcldf":
            f, g, planted = expected
            G, A, B = (ser.linpoly_from_obj(f8, obj[k]) for k in ("G", "A", "B"))
            return (
                G.lead == f8.one()
                and G.degree >= planted
                and G.compose(A) == f
                and G.compose(B) == g
            )
        if tag == "attack":
            results = obj["results"]
            ok = sum(1 for r in results if r["ok"])
            return obj["instances"] == 1 and len(results) == 1 and obj["successes"] == ok
        return False

    def input_bytes(self) -> bytes:
        parts = []
        for _, argv, _ in self.calls:
            parts.append(" ".join(os.path.basename(a) for a in argv))
            for a in argv:
                if a.endswith(".json"):
                    with open(a, "rb") as fh:
                        parts.append(fh.read().decode())
        return "\n".join(parts).encode()


WORKLOADS = {w.name: w for w in (DecomposeGF16, AttackGF256, RoundtripGF729, CliMixed)}
