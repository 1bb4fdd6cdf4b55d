"""Immutable record types shared by the package's value objects.

A record is a :func:`collections.namedtuple` with value-object semantics:
it equals only a record of the same type with equal fields (never a plain
tuple or a record of another type), and its hash agrees with that equality.
Like any tuple it iterates, indexes and orders by its fields, and is truthy
since every record has a field. Records that validate their fields do so
in ``__new__``, and :meth:`_make` (hence :meth:`_replace`) goes through it.
"""

from collections import namedtuple


def _eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    if type(other) is type(self):
        return tuple.__ne__(self, other)
    return True if isinstance(other, tuple) else NotImplemented


def _make(cls, iterable):
    return cls(*iterable)


def record(typename: str, field_names: str, defaults=None) -> type:
    """A namedtuple class with record semantics, to subclass with
    ``__slots__ = ()``. ``defaults`` apply to the rightmost fields."""
    cls = namedtuple(typename, field_names, defaults=defaults)
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    cls._make = classmethod(_make)
    return cls
