"""A field is plain data: nothing that a field, its elements or the objects
built over it hold refers back into a reference cycle, so a dropped field
is freed by reference counting alone, with the cyclic collector off."""

import gc
import random

import pytest

from skewlin.decompose import decompose_complete
from skewlin.errors import AttackFailedError
from skewlin.fields import FiniteField
from skewlin.hfe import gcldf_attack, hfe_decrypt, hfe_encrypt, hfe_keygen
from skewlin.skew import SkewPoly

# table kernels, bit kernels, digit kernels, a prime field, and a
# non-default basis
LIFETIME_FIELDS = {
    "gf16": (2, 4, None, None),
    "gf8192": (2, 13, None, None),
    "gf27": (3, 3, None, None),
    "gf7": (7, 1, None, None),
    "gf9-basis": (3, 2, None, [(1, 2), (2, 2)]),
}


def exercise(args):
    """Build a field and run each layer over it, keeping nothing."""
    field = FiniteField(*args)
    rng = random.Random(3)
    x, y = field.random_element(rng, nonzero=True), field.random_element(rng, nonzero=True)
    z = (x + y) * (x - y) / y - x**3 + x.frobenius(1) * x.inv() - (-x)
    assert field.combine(field.coordinates(z)) == z and len(z.digits) == field.e
    assert len(field.basis) == field.e
    # fill every Frobenius row the row kernel caches
    row = [x.as_int(), y.as_int(), z.as_int(), 0]
    for k in range(field.e):
        assert field._frob_row(row, k) == [field._frob(n, k) for n in row]
    f = SkewPoly.one(field)
    for _ in range(3):
        f = f * SkewPoly(field, [field.random_element(rng, nonzero=True), field.one()])
    assert SkewPoly.from_matrix(field, f.to_matrix()) == f.reduce()
    g = SkewPoly(field, [field.generator() + field.one(), field.one()])
    if g.is_permutation():
        assert g.inverse().compose(g).reduce() == SkewPoly.one(field)
    assert len(decompose_complete(f, rng=random.Random(1)).factors) == 3
    if field.q <= 1 << 8:
        kp = hfe_keygen(field, random.Random(2))
        assert kp.is_consistent()
        m = field.from_int(5 % field.q)
        assert m in hfe_decrypt(kp.secret, hfe_encrypt(kp.public, m))
        try:
            gcldf_attack(kp.public.poly, kp.secret.bound, random.Random(4), max_rounds=4)
        except AttackFailedError:
            pass


@pytest.mark.parametrize("name", list(LIFETIME_FIELDS))
def test_dropped_field_leaves_no_cyclic_garbage(name):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        exercise(LIFETIME_FIELDS[name])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
