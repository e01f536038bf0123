"""The immutable base of the package's result types.

A Value subclass names its fields in __slots__ (plus "__dict__" when it
uses cached_property) in the order its __init__ takes them, and __init__
stores them with _set.  ==, hash and repr use every field except those
named in the class keyword `hidden`.  Assignment and del raise
AttributeError.  Pickling and copying call the class with its fields, so
a copy passes the same checks as the original.  This is what
dataclass(frozen=True) gave, without importing dataclasses at start-up.
"""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # every field, in __init__ order
    _shown: tuple[str, ...] = ()  # the fields ==, hash and repr use

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._shown = tuple(name for name in cls._fields if name not in hidden)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
