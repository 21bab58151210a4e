"""Base of the package's immutable value types.

A record names its fields in ``__slots__``, in constructor order (a slot
starting with an underscore, such as ``__dict__``, is not a field), and its
``__init__`` sets them with ``object.__setattr__``.  Equality, hashing and
``repr`` run over the fields, as a frozen dataclass's do; assignment raises.
"""


class Record:
    __slots__ = ()

    def _fields(self):
        return [f for f in self.__slots__ if not f.startswith("_")]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields())
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuild through __init__, as restoring slots assigns
        return self.__class__, self._values()
