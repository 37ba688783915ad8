"""Frozen records: gpmor's stand-in for `@dataclass(frozen=True)`.

A subclass of Record lists its fields as class annotations, in order, with
an optional default each: a plain value, or `field(default_factory=...)` for
one made per instance. Record reads them once, when the subclass is
created, and serves every subclass from the same plain methods. A dataclass
would generate and `exec`-compile six methods per class at import, in every
fresh process; README's "Start-up cost" gives what that costs.

A record is built positionally or by keyword in field order, then its
`__post_init__` runs, which may normalise a field through
`object.__setattr__`. After that, assigning or deleting an attribute raises
AttributeError. Records of one class are equal when their field tuples
are, and hash as that tuple.
"""

_MISSING = object()


class field:
    """A field default made afresh for each record by default_factory()."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._defaults = dict(cls._defaults)
        for name in own:
            default = cls.__dict__.get(name, _MISSING)
            if default is not _MISSING:
                cls._defaults[name] = default
            if isinstance(default, field):
                delattr(cls, name)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        state = self.__dict__
        for name in cls._fields:
            value = values.get(name, _MISSING)
            if value is _MISSING:
                value = cls._defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                if isinstance(value, field):
                    value = value.default_factory()
            state[name] = value
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r} on a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} from a frozen {type(self).__name__}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def asdict(record):
    """{field: value} of `record`, in field order; the values are not copied."""
    return {name: getattr(record, name) for name in record._fields}


def replace(record, **changes):
    """A new record of `record`'s class with `changes` applied; its
    `__post_init__` runs again on every field."""
    return type(record)(**dict(asdict(record), **changes))
