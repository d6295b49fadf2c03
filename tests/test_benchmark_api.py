"""The library surface the benchmark workloads use still works.

perfbench/workloads.py builds its inputs and checks its outputs through
the public skewlin API (LinPoly from skewlin.linpoly, compose,
is_permutation, the serialize codecs, ...).  One operation of each
in-process workload runs here, so a change that breaks that surface
fails in the test suite rather than only when the benchmark runs.
"""

import importlib.util
import pathlib

import pytest

import skewlin.skew as skew

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["decompose-gf16", "attack-gf256", "roundtrip-gf729"])
def test_benchmark_workload_runs_one_checked_op(name, tmp_path):
    workloads = _load_workloads()
    old = skew.CHECK_DIVISION
    try:
        w = workloads.WORKLOADS[name](seed=201, workdir=str(tmp_path))
        w.setup()  # sets skew.CHECK_DIVISION for the rest of the process
        result = w.run_op(0)
        assert w.check(0, result)
        assert w.input_bytes()
    finally:
        skew.CHECK_DIVISION = old
