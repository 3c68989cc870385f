"""Immutable record classes without ``dataclasses``.

A record is a slotted class that compares, hashes, prints and pickles
by its fields, as a frozen dataclass does.  Importing ``dataclasses``
loads ``inspect`` and generates code for every class, which each cold
command-line process would pay for; a ``Record`` costs one class body.
The values themselves (``CycNum``, ``Poly``, ``LaurentPoly``,
``RatFunc``) are records too, so every value and every report holding
them pickles and deep-copies, and a process pool can ship them.

A record lists its fields in ``__slots__`` and assigns them in its own
``__init__``, through the slot setters in ``_setters`` (as module-level
names where construction is hot) or through ``fill``, because
``__setattr__`` and ``__delattr__`` refuse every change.  This module
holds the only ``__setattr__`` of the package.  A class whose
constructor does not take its fields in order overrides ``__reduce__``.
"""

from operator import attrgetter


class Record:
    """Base of the frozen records.

    ``_fields`` names the fields that ``==``, ``hash``, the repr and
    pickling use, in the order ``__init__`` takes them: every slot but
    ``__weakref__``, unless the class lists fewer.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        slots = [s for s in cls.__slots__ if s != "__weakref__"]
        cls._setters = tuple(getattr(cls, s).__set__ for s in slots)
        cls._fields = cls.__dict__.get("_fields", tuple(slots))
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, _):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def fill(record: Record, *values) -> None:
    """Set the slots of ``record``, in ``__slots__`` order, to ``values``."""
    for setter, value in zip(record._setters, values, strict=True):
        setter(record, value)
