"""The result records of decompose and hfe.

They are slotted classes with the behaviour their dataclass forms had:
keyword and positional constructors, a keyword repr, no assignment where
frozen, equality and hashing by value, or by identity where the class
compares by identity, copies with a field changed through
dataclasses.replace, copy, deepcopy and pickle round trips, and
positional class patterns.
"""

import copy
import dataclasses
import pickle

import pytest

from skewlin.decompose import Decomposition, Indecomposable, Split, SplitStats, ZeroDivisor
from skewlin.hfe import AttackResult, DOShapeResult, FailedLinearity

# class, field names, compared by value (else by identity), frozen
RECORDS = [
    (ZeroDivisor, ("element", "witness", "tries"), True, True),
    (Split, ("left", "right", "tries"), True, True),
    (Indecomposable, (), True, True),
    (Decomposition, ("field", "twist", "unit", "factors"), True, True),
    (SplitStats, ("trials", "first_try_successes", "mean_tries", "ci95", "seed"), True, True),
    (FailedLinearity, ("a", "x", "y"), True, True),
    (DOShapeResult, ("ok", "value", "offender", "witness"), False, True),
    (AttackResult, ("left", "core", "rounds"), False, False),
]


@pytest.mark.parametrize(
    "cls, names, by_value, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(cls, names, by_value, frozen):
    values = [(i, "v") for i in range(len(names))]
    a = cls(**dict(zip(names, values)))
    b = cls(*values)
    assert [getattr(a, n) for n in names] == values
    assert not hasattr(a, "__dict__")
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(a) == f"{cls.__name__}({fields})"
    if by_value:
        assert a == b and hash(a) == hash(b)
        if names:
            assert a != cls(*values[:-1], "other")
    else:
        assert a == a and a != b
        assert len({a, b}) == 2
    if names:
        changed = dataclasses.replace(a, **{names[0]: "new"})
        assert type(changed) is cls and getattr(changed, names[0]) == "new"
        assert [getattr(changed, n) for n in names[1:]] == values[1:]
        assert [getattr(a, n) for n in names] == values
    if frozen:
        for name in names or ("anything",):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
        assert [getattr(a, n) for n in names] == values
    else:
        setattr(a, names[-1], 1)
        assert getattr(a, names[-1]) == 1
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    if names:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize(
    "cls, names, by_value, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_copies_and_matches(cls, names, by_value, frozen):
    values = [(i, "v") for i in range(len(names))]
    a = cls(*values)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin is not a
        assert [getattr(twin, n) for n in names] == values
        assert (twin == a) is by_value
    assert cls.__match_args__ == names
    if names:
        match a:
            case cls(first):
                assert first == values[0]
            case _:
                pytest.fail("no positional class pattern")
