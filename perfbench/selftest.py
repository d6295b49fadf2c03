"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout (about a minute).  They check that one
seed gives byte-identical inputs, that every checker counts a corrupted
result as a failure, that traced runs repeat their per-layer counts
exactly and leave every wrapped attribute as it was, and that the metric
names printed are those in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import skewlin  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from skewlin import hfe, skew  # noqa: E402
from skewlin.errors import AttackFailedError  # noqa: E402
from skewlin.fields import FiniteField  # noqa: E402

OUT = HERE / "out"  # scratch directories stay inside the checkout
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
os.environ["PYTHONPATH"] = ENV["PYTHONPATH"]  # for the CLI children of cli-mixed
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _built(cls, seed: int, workdir: str):
    wl = cls(seed, workdir)
    wl.setup()
    return wl


def _run_json(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# one corruption per checker


def _corrupt_decomposition(wl, i, dec):
    f0 = dec.factors[0]
    bumped = f0 + skew.SkewPoly.one(f0.field)  # still monic, different value
    return dataclasses.replace(dec, factors=(bumped,) + dec.factors[1:])


def _corrupt_attack(wl, i, res):
    if isinstance(res, AttackFailedError):
        return res
    core = res.core + hfe.DOPoly(wl.field, {}, None, wl.field.one())
    return dataclasses.replace(res, core=core)


def _corrupt_roundtrip(wl, i, result):
    y, ms = result
    return y + y.field.one(), ms


def _corrupt_cli_output(tag: str, obj: dict) -> dict:
    if tag == "field":
        obj["modulus"] = [1] + [0] * 19 + [1]  # x^20 + 1 is reducible
    elif tag in ("d20", "d16"):
        obj["unit"][1] ^= 1  # the product no longer rebuilds the input
    elif tag == "keygen":
        obj["public"]["E"]["quad"][0][2][0] ^= 1
    elif tag == "encrypt":
        obj["ciphertext"][0] ^= 1
    elif tag == "decrypt":
        obj["plaintexts"] = []
    elif tag == "gcldf":
        obj["A"]["coeffs"][0][0] ^= 1
    elif tag == "attack":
        obj["successes"] = 1 - obj["successes"]
    return obj


class SameSeedSameInputs(unittest.TestCase):
    def test_inputs_are_byte_identical_per_seed(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name), tempfile.TemporaryDirectory(dir=OUT) as tmp:
                a = _built(cls, 7, os.path.join(tmp, "a")).input_bytes()
                b = _built(cls, 7, os.path.join(tmp, "b")).input_bytes()
                c = _built(cls, 8, os.path.join(tmp, "c")).input_bytes()
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class CorruptedResultsFail(unittest.TestCase):
    def _assert_counted(self, wl, i, corrupt):
        """The true result of op i passes; corrupted, run_ops counts it."""
        result = wl.run_op(i)
        self.assertTrue(wl.check(i, result))
        bad = corrupt(wl, i, result)
        _, _, failed, _ = worker.run_ops(
            wl, n_ops=i + 1, op=lambda k: bad if k == i else wl.run_op(k)
        )
        self.assertEqual(failed, 1)

    def test_decompose(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = _built(workloads.DecomposeGF16, 3, tmp)
            self._assert_counted(wl, 0, _corrupt_decomposition)

    def test_attack(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = _built(workloads.AttackGF256, 3, tmp)
            i = next(k for k, inst in enumerate(wl.instances) if inst[2])
            self._assert_counted(wl, i, _corrupt_attack)
            # a fold-free composition that resists is a failure too
            _, _, failed, _ = worker.run_ops(wl, n_ops=1, op=lambda _: AttackFailedError(16))
            self.assertEqual(failed, 0)  # op 0 is an honest key
            self.assertFalse(wl.check(i, AttackFailedError(16)))

    def test_roundtrip(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = _built(workloads.RoundtripGF729, 3, tmp)
            self._assert_counted(wl, 0, _corrupt_roundtrip)
            y, ms = wl.run_op(1)
            self.assertFalse(wl.check(1, (y, [])))

    def test_cli_every_verb(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl = _built(workloads.CliMixed, 3, tmp)
            for i, (tag, _, _) in enumerate(wl.calls[: len(wl.calls) // wl.variants]):
                with self.subTest(verb=tag):
                    code, out = wl.run_op(i)
                    self.assertTrue(wl.check(i, (code, out)))
                    bad = json.dumps(_corrupt_cli_output(tag, json.loads(out))).encode()
                    self.assertNotEqual(bad, out)
                    wl._stdout.clear()  # so the semantic check, not the byte check, decides
                    self.assertFalse(wl.check(i, (0, bad)))
                    wl._stdout.clear()
                    self.assertFalse(wl.check(i, (1, out)))
                    self.assertTrue(wl.check(i, (code, out)))
                    self.assertFalse(wl.check(i, (code, out + b" ")))


class Tracing(unittest.TestCase):
    def _snapshot(self):
        modules = [importlib.import_module(f"skewlin.{m}") for m in tracer.MODULES]
        owners = [skewlin] + modules
        owners += [obj for m in modules for obj in vars(m).values() if inspect.isclass(obj)]
        return {
            (id(o), k): v
            for o in owners
            for k, v in list(vars(o).items())
            if callable(v) or isinstance(v, (classmethod, staticmethod))
        }

    def test_uninstall_restores_every_attribute(self):
        before = self._snapshot()
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(vars(FiniteField)["__init__"], before[(id(FiniteField), "__init__")])
            self.assertIsNot(skewlin.decompose.eigen_ring, before[(id(skewlin.decompose), "eigen_ring")])
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                wl = _built(workloads.DecomposeGF16, 1, tmp)
                wl.run_op(3)
        finally:
            t.uninstall()
            skew.CHECK_DIVISION = False
        self.assertGreater(len(t.name), 1000)
        after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key, value in before.items() if after[key] is not value]
        self.assertEqual(changed, [])

    def test_traced_counts_repeat_exactly(self):
        counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] != "s"]
        counted.remove("trace.overhead_ratio")
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                argv = [str(HERE / "worker.py"), "--workload", name, "--seed", "5"]
                first = _run_json(argv + ["--phase", "traced"])["layers"]
                second = _run_json(argv + ["--phase", "traced"])["layers"]
                self.assertEqual(
                    {k: first[k] for k in counted}, {k: second[k] for k in counted}
                )
                self.assertGreater(first["fields.mul_calls"], 0)


class MetricNames(unittest.TestCase):
    def test_per_layer_list_matches(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCH["per_layer"]], list(tracer.PER_LAYER)
        )

    def test_printed_names_equal_benchmark_json(self):
        e2e = [m["name"] for m in BENCH["end_to_end"]]
        layers = [m["name"] for m in BENCH["per_layer"]]
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                argv = [str(HERE / "run.py"), "--workload", name, "--seed", "2"]
                out = _run_json(argv + ["--seconds", "0.5", "--trace", "0"])
                self.assertEqual(list(out["metrics"]), e2e)
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
        out = _run_json(
            [str(HERE / "run.py"), "--workload", "cli-mixed", "--seed", "2", "--trace", "1"]
        )
        self.assertEqual(list(out["metrics"]), layers)


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    unittest.main(verbosity=2)
