"""Immutable records: the package's value types, as classes with slots.

A record's fields are its ``__slots__``, which its constructor sets once
through ``object.__setattr__``. After that, assigning or deleting a field
raises `FrozenRecordError`, under ``python -O`` as well. Two records are
equal when they are of one class and their compared fields are equal, and
the hash is the hash of those fields, so a record that compares a dict is
unhashable. A class names the fields it neither compares nor shows in its
repr with ``hidden``: a basis, which (kind, shape, d) fix, is declared
``class TabloidBasis(Record, hidden=("cols", "index"))``.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, a field of a built record."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._shown = tuple(f for f in cls.__slots__ if f not in hidden)
        cls._key = attrgetter(*cls._shown)

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Pickling and copying rebuild a record through its constructor,
        # which takes the fields in slot order; a class whose fields follow
        # from a few of them (a basis from its kind, shape and d, a layout's
        # coordinate index from its blocks) rebuilds from those instead.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
