"""The Gray-code walk that tabulates quadratic maps of Z_p^e."""

import itertools
import random

import pytest

from skewlin import _graywalk


@pytest.mark.parametrize("p,e", [(2, 5), (3, 3), (5, 2), (7, 1)])
def test_gray_steps_visit_every_vector_once(p, e):
    x = [0] * e
    seen = {tuple(x)}
    steps = _graywalk.gray_steps(p, e)
    for k in steps:
        x[k] = (x[k] + 1) % p
        seen.add(tuple(x))
    assert len(seen) == p**e == len(steps) + 1


def random_quadratic_map(p, e, rng):
    """x -> c + L x + (x^T Q_k x)_k over Z_p, squares included."""
    const = [rng.randrange(p) for _ in range(e)]
    lin = [[rng.randrange(p) for _ in range(e)] for _ in range(e)]
    quad = [
        {(s, t): rng.randrange(p) for s in range(e) for t in range(s, e)} for _ in range(e)
    ]

    def f(x):
        out = []
        for k in range(e):
            v = const[k] + sum(a * xs for a, xs in zip(lin[k], x))
            v += sum(c * x[s] * x[t] for (s, t), c in quad[k].items())
            out.append(v % p)
        return tuple(out)

    return f


@pytest.mark.parametrize("p,e", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (11, 1)])
def test_preimage_table_matches_every_point(p, e):
    rng = random.Random(p * 100 + e)
    for _ in range(3):
        f = random_quadratic_map(p, e, rng)
        want = {}
        for ds in itertools.product(range(p), repeat=e):
            x = ds[::-1]  # index order: lowest digit first and fastest
            want.setdefault(f(x), []).append(x)
        assert _graywalk.preimage_table(p, e, f) == want


def test_preimage_table_reads_only_the_fixing_points():
    seen = []

    def f(x):
        seen.append(tuple(x))
        return tuple(x)

    _graywalk.preimage_table(3, 3, f)
    # 0, three unit vectors, three pairwise sums and three doubles
    assert len(seen) == 10 and all(sum(x) <= 2 for x in seen)
