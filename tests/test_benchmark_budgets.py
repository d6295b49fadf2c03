"""Exact operation budgets of the benchmark workloads.

A speed-up should do the same work faster, not less of it by accident,
and a lost shortcut should show as more work, not only as a slower run.
So 120 operations of three in-process workloads run here at seed 7, each
result checked as the benchmark checks it, and the calls into each
layer are counted through wrappers on the module and class attributes
the library calls through.  Divisions are counted at the two remainder
cores, skew._rem_left and skew._rem_right, which every one-sided
division and every Euclid step runs.  The counts are exact: the inputs,
the rng draws and the work they cause are all fixed by the seed.

The workloads all run at twist 1.  A sweep of planted products over
GF(2^4) at twists 2 and 4, where gcd(twist, e) > 1, pins the Krylov
searches and eigenrings of the split path for the other twists.

perfbench/workloads.py is loaded read-only, as in test_benchmark_api.
"""

import importlib.util
import pathlib
import random

import pytest

import skewlin._fppoly as fp
import skewlin.skew as skew
from skewlin import decompose, hfe
from skewlin.fields import FiniteField
from skewlin.skew import SkewPoly

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

OPS, SEED = 120, 7

# (owner, attribute) -> calls over the OPS operations and their checks;
# "checks" is the rise of skew.DIVISION_CHECKS
BUDGETS = {
    "decompose-gf16": {
        (decompose, "minimal_polynomial"): 174,
        (decompose, "eigen_ring"): 44,
        (fp, "first_factor"): 212,  # first irreducible factors of minimal polynomials
        (skew, "_rem_right"): 1205,  # right divisions, gcd steps included
        "checks": 2310,
    },
    "attack-gf256": {
        (hfe, "difference_poly"): 243,
        (skew, "_rem_left"): 1060,  # left divisions, gcd steps included
        (hfe, "try_left_factor"): 123,
        (SkewPoly, "inverse_matrix"): 153,  # F_2 inverses of the key layers
        (hfe.DOPoly, "_set"): 90,  # DOPoly constructions
    },
    "roundtrip-gf729": {
        (hfe.DOPoly, "__call__"): 120,
        (hfe, "to_multivariate"): 4,
    },
}


# twist -> calls over the decompositions of TWISTED_PRODUCTS planted
# products over GF(2^4).  g = gcd(twist, 4) is 2 and 4, and every part
# below a root inherits the minimal polynomial of the central Y^(4/g)
# that its split proved; a split path that handed no hints for g > 1
# would run 647 and 596 minimal polynomials here
TWISTED_PRODUCTS, TWISTED_SEED = 150, 5
TWISTED_BUDGETS = {
    2: {"minimal_polynomial": 289, "eigen_ring": 101},
    4: {"minimal_polynomial": 238, "eigen_ring": 71},
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counting(real, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_workload_runs_its_exact_budget(name, tmp_path, monkeypatch):
    workloads = _load_workloads()
    old = skew.CHECK_DIVISION
    try:
        w = workloads.WORKLOADS[name](seed=SEED, workdir=str(tmp_path))
        w.setup()  # sets skew.CHECK_DIVISION for the rest of the process
        counts = dict.fromkeys(BUDGETS[name], 0)
        for key in counts:
            if key != "checks":
                owner, attr = key
                monkeypatch.setattr(owner, attr, _counting(getattr(owner, attr), counts, key))
        before = skew.DIVISION_CHECKS
        for i in range(OPS):
            assert w.check(i, w.run_op(i))
        if "checks" in counts:
            counts["checks"] = skew.DIVISION_CHECKS - before
    finally:
        skew.CHECK_DIVISION = old
    readable = lambda d: {k if k == "checks" else k[1]: v for k, v in d.items()}
    assert readable(counts) == readable(BUDGETS[name])


def _planted_products(field, twist):
    """TWISTED_PRODUCTS products of 2 to 4 random monic parts of degree 1
    or 2, drawn from one rng seeded with TWISTED_SEED."""
    rng = random.Random(TWISTED_SEED)
    products = []
    for _ in range(TWISTED_PRODUCTS):
        f = SkewPoly.one(field, twist)
        for _ in range(rng.randint(2, 4)):
            coeffs = [field.random_element(rng) for _ in range(rng.randint(1, 2))]
            f = f * SkewPoly(field, coeffs + [field.one()], twist)
        products.append(f)
    return products


@pytest.mark.parametrize("twist", sorted(TWISTED_BUDGETS))
def test_twisted_sweep_runs_its_exact_budget(twist, monkeypatch):
    field = FiniteField(2, 4)
    products = _planted_products(field, twist)
    counts = dict.fromkeys(TWISTED_BUDGETS[twist], 0)
    for name in counts:
        monkeypatch.setattr(decompose, name, _counting(getattr(decompose, name), counts, name))
    for i, f in enumerate(products):
        dec = decompose.decompose_complete(f, random.Random(i))
        assert dec.product() == f
    assert counts == TWISTED_BUDGETS[twist]
