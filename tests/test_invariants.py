"""Invariant checks in the package stay active under python -O."""

import ast
import os
import pathlib
import subprocess
import sys

import skewlin

PACKAGE = pathlib.Path(skewlin.__file__).resolve().parent

OPTIMIZED_RUN = r"""
import random
import sys

from skewlin import FiniteField, _fppoly, _linalg, decompose, hfe
from skewlin.errors import InvariantError
from skewlin.hfe import DOPoly, do_compose_lin, gcldf_attack, try_left_factor
from skewlin.linpoly import LinPoly
from skewlin.skew import SkewPoly

if sys.flags.optimize < 1:
    raise SystemExit("not running under -O")

# a decomposition: (Y + a)(Y^2 + b Y + c) over GF(2^4)
gf16 = FiniteField(2, 4)
a, b, c = (gf16.from_int(n) for n in (3, 7, 9))
f = SkewPoly(gf16, [a, gf16.one()]) * SkewPoly(gf16, [c, b, gf16.one()])
dec = decompose.decompose_complete(f, random.Random(1))
if dec.product() != f or sorted(dec.degrees()) != [1, 2]:
    raise SystemExit("decomposition is wrong")

# twist 2 over GF(2^8), gcd(2, 8) = 2: the fixed-field certificate
gf256 = FiniteField(2, 8)
linear = [SkewPoly(gf256, [x, gf256.one()], 2) for x in gf256.elements()]
quad = next(
    q
    for q in (SkewPoly(gf256, [gf256.from_int(n), gf256.one(), gf256.one()], 2) for n in range(1, 256))
    if not any(q.mod_right(g).is_zero for g in linear)
)
f2 = linear[5] * quad
dec = decompose.decompose_complete(f2, random.Random(4))
if dec.product() != f2 or sorted(dec.degrees()) != [1, 2]:
    raise SystemExit("twist-2 decomposition is wrong")

# a fold-free attack over GF(2^8)
core = DOPoly(
    gf256,
    {(0, 1): gf256.generator(), (0, 2): gf256.from_int(77)},
    LinPoly(gf256, [gf256.from_int(9), gf256.from_int(140)]),
    gf256.zero(),
)
rng = random.Random(3)
while True:
    outer = LinPoly(gf256, [gf256.random_element(rng) for _ in range(3)])
    if not outer.is_zero and outer.is_permutation():
        break
E = do_compose_lin(outer, core, "left")
res = gcldf_attack(E, 16, random.Random(123), max_rounds=8)
if do_compose_lin(res.left, res.core, "left", reduce=True) != E.reduce():
    raise SystemExit("attack result does not recompose")

# an inverse through the trace-dual basis of a non-default GF(9) basis
gf9 = FiniteField(3, 2, basis=[(1, 2), (2, 2)])
L9 = LinPoly(gf9, [gf9.from_int(3), gf9.from_int(4)])
one9 = LinPoly.one(gf9)
if L9.inverse().compose(L9).reduce() != one9 or L9.compose(L9.inverse()).reduce() != one9:
    raise SystemExit("inverse over GF(9) does not invert")

# the checks themselves still fire
real_inv = _linalg.inv
_linalg.inv = lambda a, p: None
try:
    FiniteField(2, 3).dual_frobenius()
except InvariantError:
    pass
else:
    raise SystemExit("dual-basis check was stripped")
_linalg.inv = real_inv

decompose.gcd_right = lambda z, g: g
try:
    decompose.split_once(f, random.Random(2))
except InvariantError:
    pass
else:
    raise SystemExit("split check was stripped")

# the table build proves its generator: a reducible modulus, once
# admitted, leaves no element of order q - 1
real_irreducible = _fppoly.is_irreducible
_fppoly.is_irreducible = lambda m, p: True
try:
    FiniteField(2, 4, [1, 0, 1, 0, 1])
except InvariantError:
    pass
else:
    raise SystemExit("primitive-generator check was stripped")
_fppoly.is_irreducible = real_irreducible
# t is not primitive under [1,1,1,1,1]: the tables run over index 3
gf16_t5 = FiniteField(2, 4, [1, 1, 1, 1, 1])
if gf16_t5.generator() ** 5 != gf16_t5.one() or gf16_t5._exp[1] != 3:
    raise SystemExit("table build over the smallest primitive index is wrong")

real_compose = hfe.do_compose_lin
hfe.do_compose_lin = lambda L, D, side, reduce=False: (
    DOPoly.zero(D.field) if reduce else real_compose(L, D, side)
)
try:
    try_left_factor(res.left, E, 16)
except InvariantError:
    pass
else:
    raise SystemExit("recomposition check was stripped")
print("ok")
"""


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_asserts_in_package():
    # invariant checks raise errors.InvariantError: no assert statement
    # (stripped by -O) and no raise AssertionError (not a SkewlinError)
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_checks_survive_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_level(body):
    """Statements run at import, through if/try/with blocks but not into
    function or class bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody"):
            yield from _module_level(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _module_level(handler.body)


def _is_cache_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("cache", "lru_cache")


def test_no_module_level_mutable_state():
    # the only mutable module state is skew's division-check switch and
    # counter, rebound by skew.check_rebuild alone; no module-level dict,
    # list or set (beyond __all__) and no functools cache
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in _module_level(tree.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if isinstance(node.value, MUTABLE_DISPLAYS) and names != {"__all__"}:
                    offenders.append(f"{path.name}:{node.lineno} mutable display")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache_decorator(d) for d in node.decorator_list):
                    offenders.append(f"{path.name}:{node.lineno} cache decorator")
                if (path.name, node.name) != ("skew.py", "check_rebuild"):
                    offenders += [
                        f"{path.name}:{g.lineno} global"
                        for g in ast.walk(node)
                        if isinstance(g, ast.Global)
                    ]
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                if any(alias.name in ("cache", "lru_cache") for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno} cache import")
    assert offenders == []


FROZEN_METHODS = {"__setattr__", "__delattr__"}
VALUE_METHODS = {"__eq__", "__hash__"}
PRIMITIVES = {"Record", "FqElem", "FiniteField", "SkewPoly", "DOPoly"}


def _defined_names(cls: ast.ClassDef):
    """(name, node) for each method the class body defines or assigns."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _is_unhashable_marker(node) -> bool:
    return (
        isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__hash__"]
        and isinstance(node.value, ast.Constant)
        and node.value.value is None
    )


def test_one_equality_contract():
    # one immutability: _record.Frozen alone defines __setattr__ or
    # __delattr__, and a class that defines __hash__ derives from it, so
    # nothing hashes that can change; a class compares by value as a Record
    # or as one of the four primitives with hand-written equality, and a
    # Record subclass may only declare itself unhashable (__hash__ = None)
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef):
                assert cls.name not in classes, cls.name
                classes[cls.name] = (path.name, cls)

    def is_frozen(name) -> bool:
        if name == "Frozen":
            return True
        bases = classes[name][1].bases if name in classes else []
        return any(is_frozen(getattr(base, "id", None)) for base in bases)

    offenders = []
    for name, (module, cls) in classes.items():
        is_record = any(getattr(base, "id", None) == "Record" for base in cls.bases)
        for method, node in _defined_names(cls):
            where = f"{module}:{node.lineno} {name}.{method}"
            if method in FROZEN_METHODS and (module, name) != ("_record.py", "Frozen"):
                offenders.append(where)
            if method == "__hash__" and not is_frozen(name):
                offenders.append(f"{where} outside Frozen")
            if method in VALUE_METHODS and name not in PRIMITIVES:
                if not (is_record and _is_unhashable_marker(node)):
                    offenders.append(where)
    assert offenders == []
