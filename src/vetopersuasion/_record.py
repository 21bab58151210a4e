"""Base of the package's immutable value types.

A record names its fields in ``__slots__``, in constructor order; a slot
starting with an underscore, such as ``__dict__``, is not a field.  Each
class computes its field tuple ``_fields`` once, along its MRO (the bases'
fields first), and ``Record.__init__`` stores the fields, given by position
or by name; a validating ``__init__`` checks its arguments and then calls
``super().__init__``.  Equality, hashing, ``repr`` and pickling run over the
fields, as a frozen dataclass's do; assignment raises.
"""


class Record:
    __slots__ = ()
    _fields = _stores = ()  # set for each subclass by __init_subclass__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ())
            if not f.startswith("_"))
        # Each field's slot setter: object.__setattr__ would look the name up.
        cls._stores = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:  # the named fields after the positional ones, in field order
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}, each once")
        for store, v in zip(self._stores, args):
            store(self, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuild through __init__, as restoring slots assigns
        return self.__class__, self._values()
