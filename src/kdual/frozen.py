"""The base of kdual's value classes.

A value class annotates its fields in its body, lists them in
`__slots__`, and is its fields: `Frozen` sets them positionally, in the
order of the annotations, and compares, hashes and prints an instance by
them, so two instances built from equal fields are equal.  After that an
instance never changes.  A class whose fields need a check validates
them in its own `__init__` and then calls `super().__init__`.  A slot
that is not annotated, such as a cache derived from the fields, is not
part of the value.
"""

from operator import attrgetter


class Frozen:
    """A value of annotated fields; assigning or deleting an attribute
    raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields {fields}, "
                            f"not {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
