"""The result records of decompose and hfe.

They are slotted classes with the behaviour their frozen dataclass
forms had: keyword and positional constructors, a keyword repr, no
assignment, equality and hashing by value, copies with a field changed
through dataclasses.replace, copy, deepcopy and pickle round trips, and
positional class patterns.

Six value classes with fields over a finite field are records too:
EigenRing, MultivariateKey, HFEPublicKey, HFESecretKey, HFEKeyPair and
FqPoly.  The last three check their fields in a short constructor, which
copies and the pickle payload go through.  The two keys also hold caches
built on first use, which no comparison, copy or pickle carries.

The four primitives FiniteField, FqElem, SkewPoly and DOPoly share the
records' immutability through their common base _record.Frozen: no slot
of theirs can be set or deleted.  All six build-on-first-use caches, the
field's two Frobenius tables and the keys' four, fill through
Frozen._cached.
"""

import copy
import dataclasses
import pickle
import random

import pytest

from skewlin import _record
from skewlin import serialize as ser
from skewlin._record import Record
from skewlin.decompose import (
    Decomposition,
    EigenRing,
    Indecomposable,
    Split,
    SplitStats,
    ZeroDivisor,
    eigen_ring,
)
from skewlin.errors import ContextMismatchError, PolicyBoundError
from skewlin.fields import FiniteField
from skewlin.fqpoly import FqPoly
from skewlin.hfe import (
    AttackResult,
    DOPoly,
    DOShapeResult,
    FailedLinearity,
    HFEKeyPair,
    HFEPublicKey,
    HFESecretKey,
    MultivariateKey,
    hfe_keygen,
    to_multivariate,
)
from skewlin.skew import SkewPoly

# class, field names
RECORDS = [
    (ZeroDivisor, ("element", "witness", "tries")),
    (Split, ("left", "right", "tries")),
    (Indecomposable, ()),
    (Decomposition, ("field", "twist", "unit", "factors")),
    (SplitStats, ("trials", "first_try_successes", "mean_tries", "ci95", "seed")),
    (FailedLinearity, ("a", "x", "y")),
    (DOShapeResult, ("ok", "value", "offender", "witness")),
    (AttackResult, ("left", "core", "rounds")),
]


@pytest.mark.parametrize("cls, names", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names):
    values = [(i, "v") for i in range(len(names))]
    a = cls(**dict(zip(names, values)))
    b = cls(*values)
    assert [getattr(a, n) for n in names] == values
    assert not hasattr(a, "__dict__")
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(a) == f"{cls.__name__}({fields})"
    assert a == b and hash(a) == hash(b)
    if names:
        assert a != cls(*values[:-1], "other")
    if names:
        changed = dataclasses.replace(a, **{names[0]: "new"})
        assert type(changed) is cls and getattr(changed, names[0]) == "new"
        assert [getattr(changed, n) for n in names[1:]] == values[1:]
        assert [getattr(a, n) for n in names] == values
    for name in names or ("anything",):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, n) for n in names] == values
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    if names:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, names", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_copies_and_matches(cls, names):
    values = [(i, "v") for i in range(len(names))]
    a = cls(*values)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin is not a
        assert [getattr(twin, n) for n in names] == values
        assert twin == a and hash(twin) == hash(a)
    assert cls.__match_args__ == names
    if names:
        match a:
            case cls(first):
                assert first == values[0]
            case _:
                pytest.fail("no positional class pattern")


# ----------------------------------------------------------------------
# the value classes over a field


def value_records():
    """Name -> (instance, an equal instance built apart, an unequal one,
    repr) for each of the six classes; the equal MultivariateKey and
    FqPoly are built over a second GF(9)."""
    gf4, gf9, gf16, gf9_apart = (FiniteField(*pe) for pe in ((2, 2), (3, 2), (2, 4), (3, 2)))
    cs = [gf9.from_int(2), gf9.zero(), gf9.from_int(5)]
    f = SkewPoly(gf4, [gf4.one(), gf4.zero(), gf4.one()])
    D = DOPoly(gf9, {(0, 1): gf9.one()})
    kp, other = hfe_keygen(gf16, random.Random(0)), hfe_keygen(gf16, random.Random(1))
    layers = [getattr(kp.secret, n) for n in ("field", "outer", "core", "inner")]
    return {
        "EigenRing": (
            eigen_ring(f),
            EigenRing(gf4, f, eigen_ring(f).basis),
            EigenRing(gf4, f, eigen_ring(f).basis[1:]),
            "EigenRing(dim=4, modulus_degree=2)",
        ),
        "MultivariateKey": (
            to_multivariate(D),
            to_multivariate(DOPoly(gf9_apart, {(0, 1): gf9_apart.one()})),
            to_multivariate(D + D),
            "MultivariateKey(p=3, n_vars=2, max_terms=2)",
        ),
        "HFEPublicKey": (
            kp.public,
            HFEPublicKey(kp.public.poly + DOPoly.zero(gf16)),
            other.public,
            "HFEPublicKey(field=GF(2^4), degree=12)",
        ),
        "HFESecretKey": (
            kp.secret,
            HFESecretKey(*layers, kp.secret.bound),
            HFESecretKey(*layers, 17),
            "HFESecretKey(field=GF(2^4), bound=16)",
        ),
        "HFEKeyPair": (
            kp,
            HFEKeyPair(kp.public, kp.secret),
            HFEKeyPair(kp.public, other.secret),
            "HFEKeyPair(public=HFEPublicKey(field=GF(2^4), degree=12), "
            "secret=HFESecretKey(field=GF(2^4), bound=16))",
        ),
        "FqPoly": (
            FqPoly(gf9, cs),
            FqPoly(gf9_apart, [gf9_apart.from_int(c.as_int()) for c in cs + [gf9.zero()]]),
            FqPoly(gf9, cs[:2]),
            "FqPoly([[2, 0], [0, 0], [2, 1]])",
        ),
    }


VALUE_RECORDS = {
    "EigenRing": ("field", "modulus", "basis"),
    "MultivariateKey": ("p", "n_vars", "quad", "lin", "const"),
    "HFEPublicKey": ("poly",),
    "HFESecretKey": ("field", "outer", "core", "inner", "bound"),
    "HFEKeyPair": ("public", "secret"),
    "FqPoly": ("field", "coeffs"),
}


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_record_contract(name):
    a, twin, other, text = value_records()[name]
    names = VALUE_RECORDS[name]
    cls = type(a)
    assert issubclass(cls, Record) and cls.__name__ == name
    assert cls.__match_args__ == tuple(cls.__dataclass_fields__) == names
    caches = tuple(n for n in cls.__slots__ if n not in names)
    assert all(n.startswith("_") for n in caches)
    assert not hasattr(a, "__dict__")
    assert repr(a) == text
    values = [getattr(a, n) for n in names]
    for attr in (*names, *caches, "anything"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 1)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert [getattr(a, n) for n in names] == values
    assert a == twin and a is not twin and a != other
    if cls is MultivariateKey:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type: 'MultivariateKey'"):
            hash(a)
    else:
        assert hash(a) == hash(twin) and len({a, twin, other}) == 2
    match a:
        case cls(first):
            assert first is values[0]
        case _:
            pytest.fail("no positional class pattern")


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_record_copies_go_through_the_constructor(name, monkeypatch):
    a = value_records()[name][0]
    cls = type(a)
    values = tuple(getattr(a, n) for n in VALUE_RECORDS[name])
    assert a.__reduce__() == (cls, values)
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    twin = copy.copy(a)
    assert twin == a and twin is not a and built == [values]
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        if cls is MultivariateKey:
            # plain data: ints, tuples and dicts
            assert twin == a and twin.quad is not a.quad
        elif cls is HFEKeyPair:
            # the two halves compare by their key material, not by identity
            pub, sec = twin.public, twin.secret
            assert twin == a and hash(twin) == hash(a)
            assert pub == a.public and sec == a.secret
            assert pub is not a.public and pub.poly == a.public.poly
            assert pub.field == a.public.field and pub.field is not a.public.field
            layers = ("field", "outer", "core", "inner", "bound")
            assert [getattr(sec, n) for n in layers] == [getattr(a.secret, n) for n in layers]
            assert twin.is_consistent()
        else:
            # the field is rebuilt from its description, not shared
            assert twin == a and twin.field == a.field and twin.field is not a.field
    assert len(built) == 3


def _caches(kp):
    return (kp.secret._table, kp.secret._outer_inv, kp.secret._inner_inv, kp.public._multivariate)


def test_keypair_round_trips_equal_the_original():
    # the halves compare and hash by their key material (E; field, S, D, T,
    # bound), never by the caches built on use, so a key pair read back from
    # JSON, pickled or deep-copied equals the one it came from, and none of
    # them carries the original's caches; a shallow copy of a half is a new
    # key that starts empty too.  Reading the JSON checks the stored forms
    # against E, so that twin's public half holds forms of its own
    gf16 = FiniteField(2, 4)
    kp = hfe_keygen(gf16, random.Random(0))
    assert _caches(kp) == (None,) * 4
    built = (
        kp.secret.core_table(),
        kp.secret.outer_inverse(),
        kp.secret.inner_inverse(),
        kp.public.multivariate,
    )
    assert all(cache is not None for cache in built)
    parsed = ser.keypair_from_obj(ser.parse_text(ser.dumps(ser.keypair_to_obj(kp))))
    assert _caches(parsed)[:3] == (None,) * 3
    assert parsed.public._multivariate == built[3] and parsed.public._multivariate is not built[3]
    shallow = HFEKeyPair(copy.copy(kp.public), copy.copy(kp.secret))
    twins = (pickle.loads(pickle.dumps(kp)), copy.deepcopy(kp), shallow)
    for twin in (parsed, *twins):
        assert twin == kp and hash(twin) == hash(kp) and twin is not kp
        assert twin.public == kp.public and hash(twin.public) == hash(kp.public)
        assert twin.secret == kp.secret and hash(twin.secret) == hash(kp.secret)
        assert len({twin, kp}) == 1
    for twin in twins:
        assert _caches(twin) == (None,) * 4
    assert all(a is b for a, b in zip(_caches(kp), built))
    other = hfe_keygen(gf16, random.Random(1))
    assert kp.public != other.public and kp.secret != other.secret and kp != other
    bound = HFESecretKey(gf16, kp.secret.outer, kp.secret.core, kp.secret.inner, 17)
    replaced = dataclasses.replace(kp.secret, bound=17)
    assert replaced == bound != kp.secret and replaced.outer is kp.secret.outer
    assert (replaced._table, replaced._outer_inv, replaced._inner_inv) == (None,) * 3
    assert HFEPublicKey(kp.public.poly) == kp.public
    assert kp.public != kp.public.poly and kp.secret != kp.secret.core
    # a layer cannot be swapped under its cached inverse or the key's hash
    with pytest.raises(AttributeError):
        kp.secret.outer = other.secret.outer
    assert hash(kp.secret) == hash(parsed.secret) and kp.is_consistent()


def test_value_record_constructors_check_the_field():
    gf4, gf9 = FiniteField(2, 2), FiniteField(3, 2)
    for coeffs in ([gf4.one()], [1], [gf9.one(), gf4.zero()]):
        with pytest.raises(ContextMismatchError, match="coefficient from a different field"):
            FqPoly(gf9, coeffs)
    poly = FqPoly(field=gf9, coeffs=[gf9.one(), gf9.zero()])
    assert poly.coeffs == (gf9.one(),)  # trimmed
    kp4 = hfe_keygen(gf4, random.Random(0))
    kp9 = hfe_keygen(gf9, random.Random(0))
    with pytest.raises(ContextMismatchError, match="public and secret keys over different fields"):
        HFEKeyPair(kp4.public, kp9.secret)
    with pytest.raises(ContextMismatchError):
        HFEKeyPair(public=kp9.public, secret=kp4.secret)
    with pytest.raises(TypeError):
        HFEKeyPair(kp4.public)


def test_field_values_copy_and_pickle():
    # a field is rebuilt from its description (modulus and basis
    # included), and each value over it keeps its element indices
    gf9_basis = FiniteField(3, 2, basis=[[1, 1], [0, 1]])
    for field in (FiniteField(2, 4), FiniteField(5, 2), gf9_basis):
        rng = random.Random(field.q)
        x = field.random_element(rng, nonzero=True)
        f = SkewPoly(field, [field.random_element(rng) for _ in range(3)] + [x], twist=2)
        D = DOPoly(field, {(0, 1): x, (1, 1): x * x}, f.reduce(), x).reduce()
        for value in (field, x, f, D):
            for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value) and twin == value and twin is not value
        twin_x, twin_f, twin_D = copy.deepcopy((x, f, D))
        assert twin_x.field is twin_f.field is twin_D.field  # one memo, one field
        assert twin_x.field.coordinates(twin_x * twin_x) == field.coordinates(x * x)
        assert twin_D(twin_x) == D(x) and twin_f.reduce()(twin_x) == f.reduce()(x)


# ----------------------------------------------------------------------
# the four primitives share Record's immutability and its caches


def primitive_values():
    """Name -> (value, an equal value built apart) for each primitive."""
    gf9, apart = (FiniteField(3, 2, basis=[[1, 1], [0, 1]]) for _ in range(2))
    x = gf9.from_int(5)
    f = SkewPoly(gf9, [x, gf9.zero(), gf9.one()], twist=2)
    D = DOPoly(gf9, {(0, 1): x, (1, 1): x * x}, f.reduce(), x)
    twin_x = apart.from_int(5)
    twin_f = SkewPoly(apart, [twin_x, apart.zero(), apart.one()], twist=2)
    twin_D = DOPoly(apart, {(0, 1): twin_x, (1, 1): twin_x * twin_x}, twin_f.reduce(), twin_x)
    return {
        "FiniteField": (gf9, apart),
        "FqElem": (x, twin_x),
        "SkewPoly": (f, twin_f),
        "DOPoly": (D, twin_D),
    }


@pytest.mark.parametrize("name", ["FiniteField", "FqElem", "SkewPoly", "DOPoly"])
def test_primitive_refuses_assignment_and_deletion(name):
    # every slot, field and cache alike, can be neither set nor deleted;
    # the value keeps its slots, its hash and its equality
    value, twin = primitive_values()[name]
    cls = type(value)
    assert cls.__name__ == name and issubclass(cls, _record.Frozen)
    assert not issubclass(cls, Record) and not hasattr(value, "__dict__")
    before = {slot: getattr(value, slot) for slot in cls.__slots__}
    code = hash(value)
    for slot in (*cls.__slots__, "anything"):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(value, slot, 1)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(value, slot)
    assert all(getattr(value, slot) is v for slot, v in before.items())
    assert hash(value) == code == hash(twin)
    assert value == twin and twin == value and value is not twin
    assert {value: 1}[twin] == 1


def _cache_owners():
    """Cache slot -> (a fresh owner, a read of the cache)."""
    field = FiniteField(3, 2, basis=[[1, 1], [0, 1]])
    kp = hfe_keygen(FiniteField(2, 4), random.Random(0))
    return {
        "_basis_frob": (field, lambda F: F.basis_frobenius()),
        "_dual_frob": (field, lambda F: F.dual_frobenius()),
        "_multivariate": (kp.public, lambda key: key.multivariate),
        "_outer_inv": (kp.secret, lambda key: key.outer_inverse()),
        "_inner_inv": (kp.secret, lambda key: key.inner_inverse()),
        "_table": (kp.secret, lambda key: key.core_table()),
    }


@pytest.mark.parametrize("name", sorted(_cache_owners()))
def test_cache_builds_once_through_cached(name, monkeypatch):
    # each build-on-first-use cache fills through Frozen._cached: its
    # build runs once, a second read returns the very same object, and a
    # copy or a pickle starts without it and builds its own, equal one
    owner, read = _cache_owners()[name]
    built = []
    cached = _record.Frozen._cached

    def spy(self, slot, build):
        return cached(self, slot, lambda: built.append((self, slot)) or build())

    monkeypatch.setattr(_record.Frozen, "_cached", spy)
    assert getattr(owner, name) is None
    value = read(owner)
    assert value is not None and built == [(owner, name)]
    assert read(owner) is value and getattr(owner, name) is value
    assert built == [(owner, name)]
    for twin in (copy.copy(owner), copy.deepcopy(owner), pickle.loads(pickle.dumps(owner))):
        assert twin == owner and twin is not owner and getattr(twin, name) is None
        rebuilt = read(twin)
        assert rebuilt == value and rebuilt is not value
        assert [o for o, slot in built if slot == name][-1] is twin
    # the twins' fields may fill their own tables on the way; this cache
    # was built once per value
    assert len([o for o, slot in built if slot == name]) == 4
    assert getattr(owner, name) is value


def test_core_table_cap_comes_before_the_cache():
    # a built table does not lift the decrypt cap: the check runs first
    kp = hfe_keygen(FiniteField(2, 4), random.Random(0))
    table = kp.secret.core_table()
    with pytest.raises(PolicyBoundError, match="exceeds decrypt cap 8"):
        kp.secret.core_table(max_q=8)
    assert kp.secret.core_table(max_q=16) is table
