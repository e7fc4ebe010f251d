"""Immutable records with frozen dataclasses' value semantics, built from no generated code."""


class Record:
    """A record's fields are the names in its own `__slots__`, in order, or
    in its `__match_args__` if it keeps them in a `__dict__` and so builds
    itself. Records of one class with equal fields are equal and hash alike;
    no field changes."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__slots__" in cls.__dict__:
            cls.__match_args__ = cls.__slots__
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__match_args__}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return (self._values() == other._values() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copies and unpickled records are built again by the constructor
        return type(self), self._values()
