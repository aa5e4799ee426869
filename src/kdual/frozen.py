"""The base of kdual's value classes.

A value class lists its fields in `__slots__`, annotates each in its
body, and sets them once in a hand-written `__init__` through
`object.__setattr__`; after that an instance never changes.  A class
writes `__eq__`, `__hash__` and `__repr__` itself where its instances are
compared, used as keys or printed, and otherwise keeps object identity.
"""


class Frozen:
    """Assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
