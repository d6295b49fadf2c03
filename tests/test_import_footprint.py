"""Each CLI verb loads only the package modules it runs.

Every verb runs once through ``cli.main(argv)`` in a fresh interpreter,
which reports the ``skewlin.*`` entries of ``sys.modules`` afterwards and
whether it loaded ``dataclasses`` or ``inspect``; its stdout must equal the
bytes of the same call made in this process.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import skewlin
import skewlin.serialize as ser
from skewlin.cli import main
from skewlin.fields import FiniteField
from skewlin.hfe import hfe_keygen
from skewlin.skew import SkewPoly

SRC = str(pathlib.Path(skewlin.__file__).resolve().parent.parent)

CHILD = """
import json, sys
from skewlin.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
loaded = sorted(m for m in sys.modules if m.startswith("skewlin."))
heavy = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
sys.stderr.write("\\n" + json.dumps({"code": code, "modules": loaded, "heavy": heavy}))
"""

DECOMPOSE_LAYERS = {"skewlin.decompose", "skewlin.hfe", "skewlin._graywalk", "skewlin.fqpoly"}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "TOOL_POLICY_MAX_Q"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(*args):
    proc = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, env=child_env(), check=False
    )
    return proc.stdout, proc.stderr.decode().rsplit("\n", 1)[-1]


@pytest.fixture(scope="module")
def verb_argvs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("footprint")
    field = FiniteField(2, 8)
    t = field.generator()
    a, b = SkewPoly(field, [t, field.one()]), SkewPoly(field, [t * t, field.one()])
    poly = tmp / "poly.json"
    poly.write_text(ser.dumps({"field": ser.field_to_obj(field), "poly": ser.skewpoly_to_obj(a * b)}))
    pair = tmp / "pair.json"
    pair.write_text(
        ser.dumps(
            {
                "field": ser.field_to_obj(field),
                "f": ser.linpoly_to_obj(a * b),
                "g": ser.linpoly_to_obj(a * a),
            }
        )
    )
    key = tmp / "key.json"
    key.write_text(ser.dumps(ser.keypair_to_obj(hfe_keygen(FiniteField(2, 4), random.Random(9)))))
    return {
        "field": ["field", "--p", "2", "--e", "20"],
        "gcldf": ["gcldf", "--in", str(pair)],
        "decompose": ["decompose", "--in", str(poly), "--seed", "1"],
        "probe": ["probe", "--p", "2", "--e", "4", "--degree", "2", "--trials", "3"],
        "keygen": ["keygen", "--p", "2", "--e", "4", "--seed", "9"],
        "encrypt": ["encrypt", "--key", str(key), "--message", "1,0,1,0"],
        "decrypt": ["decrypt", "--key", str(key), "--ciphertext", "0,1,0,1"],
        "attack": ["attack", "--instances", "1", "--p", "2", "--e", "4", "--seed", "2"],
    }


# modules a verb must not load
NOT_LOADED = {
    "field": DECOMPOSE_LAYERS,
    "gcldf": DECOMPOSE_LAYERS,
    "decompose": {"skewlin.hfe"},
    "probe": {"skewlin.hfe"},
    "keygen": {"skewlin.decompose"},
    "encrypt": {"skewlin.decompose"},
    "decrypt": {"skewlin.decompose"},
    "attack": {"skewlin.decompose"},
}


@pytest.mark.parametrize("verb", sorted(NOT_LOADED))
def test_verb_loads_only_its_modules(verb, verb_argvs, capsys, monkeypatch):
    argv = verb_argvs[verb]
    out, report = run_child(CHILD, *argv)
    report = json.loads(report)
    assert report["code"] == 0
    assert "skewlin.cli" in report["modules"]
    assert NOT_LOADED[verb].isdisjoint(report["modules"]), report["modules"]
    # dataclasses pulls in inspect, ast, dis and tokenize at import
    assert report["heavy"] == []
    monkeypatch.delenv("TOOL_POLICY_MAX_Q", raising=False)
    assert main(argv) == 0
    assert out == capsys.readouterr().out.encode()


def test_package_import_loads_no_submodule():
    _, report = run_child(
        "import sys, skewlin; "
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('skewlin.'))))"
    )
    assert report == "[]"
