"""The skew ring's index loops against their FqElem-coefficient oracles.

SkewPoly and the residue steps of decompose run on coefficient indices
through the field's kernels; tests/oracles.py keeps the same loops on
FqElem coefficients.  Each field kind is covered: exp/log tables
(GF(2^4)), bit kernels (GF(2^16)) and digit kernels (GF(3^3), GF(7)),
each with twist 1 and a twist coprime to e.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skewlin.decompose import _combine, _step_quotient, _times_y, _y_rows
from skewlin.fields import FiniteField
from skewlin.skew import SkewPoly

# field, twists: 1 and one coprime to e
FIELDS = [
    (FiniteField(2, 4), (1, 3)),
    (FiniteField(2, 16), (1, 3)),
    (FiniteField(3, 3), (1, 2)),
    (FiniteField(7, 1), (1, 2)),
]


@st.composite
def ring(draw):
    field, twists = draw(st.sampled_from(FIELDS))
    return field, draw(st.sampled_from(twists))


def poly(draw, field, twist, max_degree, monic=False):
    index = st.integers(0, field.q - 1)
    cs = draw(st.lists(index, max_size=max_degree + 1))
    if monic:
        cs.append(1)
    return SkewPoly(field, [field.from_int(n) for n in cs], twist)


def nonzero(draw, field):
    return field.from_int(draw(st.integers(1, field.q - 1)))


SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(r=ring(), data=st.data())
def test_ring_ops_match_oracles(r, data):
    field, twist = r
    a = poly(data.draw, field, twist, 6)
    b = poly(data.draw, field, twist, 4)
    g = poly(data.draw, field, twist, 3, monic=True)
    c = nonzero(data.draw, field)
    g = g.left_scalar(c)  # a divisor with a lead other than 1
    assert a * b == oracles.skew_mul(a, b)
    assert b * a == oracles.skew_mul(b, a)
    assert a.left_scalar(c) == oracles.left_scalar(a, c)
    assert a.right_scalar(c) == oracles.right_scalar(a, c)
    assert a.divmod_right(g) == oracles.divmod_right(a, g)
    assert a.divmod_left(g) == oracles.divmod_left(a, g)
    monic = g.monic_left()
    assert a.divmod_right(monic) == oracles.divmod_right(a, monic)
    assert a.divmod_left(monic) == oracles.divmod_left(a, monic)


@SETTINGS
@given(r=ring(), data=st.data())
def test_residue_steps_match_oracles(r, data):
    field, twist = r
    f = poly(data.draw, field, twist, 3, monic=True)
    n = f.degree
    if n < 1:
        f = SkewPoly(field, [nonzero(data.draw, field), field.one()], twist)
        n = 1
    u = poly(data.draw, field, twist, 6).mod_right(f)
    top, row = _times_y(u, f)
    want_top, want_row = oracles.times_y(u, f)
    assert (field.from_int(top), row) == (want_top, want_row)
    rows = _y_rows(u, f, n)
    a = poly(data.draw, field, twist, n - 1).mod_right(f)
    assert _combine(a._c, rows, f) == oracles.combine(a.coeffs, rows, f)
    assert _step_quotient(a, rows, f) == oracles.step_quotient(a, rows, f)


def test_kernels_and_polynomials_hold_indices():
    # one kernel per operation, returning an index, and one stored
    # coefficient representation per polynomial
    assert SkewPoly.__slots__ == ("field", "twist", "_c")
    for field, twists in FIELDS:
        x, y = 2 % field.q, field.q - 1
        calls = {"_add": (x, y), "_sub": (x, y), "_neg": (x,), "_mul": (x, y)}
        calls.update(_inv=(y,), _frob=(x, 1))
        for name, args in calls.items():
            assert type(getattr(field, name)(*args)) is int, (field, name)
        f = SkewPoly(field, [field.from_int(x), field.one()], twists[-1])
        g = f * f
        assert g._c and all(type(c) is int for c in g._c)
        assert g.coeffs == tuple(field.from_int(c) for c in g._c)
