"""Immutable values: the Frozen base, and the records built on it (the
result types of decompose and hfe, and the value classes EigenRing,
MultivariateKey, HFEPublicKey, HFESecretKey, HFEKeyPair and FqPoly).

Frozen is the one immutability of the package.  Its subclasses are
slotted, and both assignment and deletion of an attribute raise
AttributeError, so a value cannot change, or lose a slot, under its
hash.  The four primitives FqElem, FiniteField, SkewPoly and DOPoly
derive from it directly and keep their own equality, hashing, pickling
and constructors, which fill the slots through the slot descriptors or
object.__setattr__.  Frozen._cached(name, build) is the one "build on
first use" cache: it reads the underscore slot name, and while that
holds None it calls build() and stores the result through
object.__setattr__, so build() runs once per value.

A Record subclass names its fields in __slots__, in order.  The
constructor takes them by position or keyword, the repr lists them as
keywords, and instances compare and hash by the tuple of their values.
A subclass whose values do not hash (MultivariateKey holds dicts) sets
__hash__ to None.  A subclass that checks its fields does so in a short
__init__ that ends in super().__init__.  copy, deepcopy and pickle rebuild a record through its
constructor, so they check the fields too; a deep copy of a record over a
finite field rebuilds the field from its description.  __match_args__
lists the fields for positional class patterns.

A slot whose name starts with an underscore is a cache, not a field: the
constructor does not take it and sets it to None, and the repr, equality,
hashing, __match_args__, copies and pickles leave it out.  The one method
that reads a cache fills it through _cached, so a copy of a record starts
with empty caches.

Each subclass also carries the __dataclass_fields__ table that
dataclasses.replace reads, so replace(record, field=value) builds a
changed copy as it did when these were dataclasses, without this module
importing dataclasses (which loads inspect, ast, dis and tokenize).  The
table exists only because perfbench/selftest.py corrupts Decomposition
and AttackResult with dataclasses.replace; it goes once that file builds
them with their constructors (ROADMAP direction 8).  Until then the
table also rides on the six value classes, and dataclasses.is_dataclass
is true of every record while dataclasses.fields and asdict see no
fields.
"""


class _Field:
    """What dataclasses.replace reads of a field: its name, that it is an
    ordinary field (a _field_type that is neither ClassVar nor InitVar),
    and that the constructor takes it."""

    __slots__ = ("name",)
    _field_type = None
    init = True

    def __init__(self, name: str):
        self.name = name


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _cached(self, name: str, build):
        """The value of the cache slot name, filled by build() while it is None."""
        value = getattr(self, name)
        if value is None:
            value = build()
            object.__setattr__(self, name, value)
        return value


class Record(Frozen):
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls.__match_args__ = cls._fields
        cls.__dataclass_fields__ = {name: _Field(name) for name in cls._fields}

    def __init__(self, *args, **kwargs):
        names = self._fields
        name = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{name}() is missing {', '.join(missing)}")
        for key in self.__slots__:  # the caches start empty
            object.__setattr__(self, key, values.get(key))

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
