"""Immutable value records, the result types of decompose and hfe.

A Record subclass names its fields in __slots__, in order.  The
constructor takes them by position or keyword, the repr lists them as
keywords, instances compare and hash by the tuple of their values, and
assignment raises AttributeError.  A subclass that compares by identity
sets __eq__ and __hash__ back to object's.  copy, deepcopy and pickle
rebuild a record through its constructor, and __match_args__ lists the
fields for positional class patterns.

Each subclass also carries the __dataclass_fields__ table that
dataclasses.replace reads, so replace(record, field=value) builds a
changed copy as it did when these were dataclasses, without this module
importing dataclasses (which loads inspect, ast, dis and tokenize).  The
table exists only because perfbench/selftest.py corrupts Decomposition
and AttackResult with dataclasses.replace; it goes once that file builds
them with their constructors.  Until then dataclasses.is_dataclass is
true of a record while dataclasses.fields and asdict see no fields.
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


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls.__dataclass_fields__ = {name: _Field(name) for name in cls.__slots__}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
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
        for key in names:
            object.__setattr__(self, key, values[key])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
