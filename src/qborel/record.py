"""Plain classes of named fields.

The standard library's data classes would do, but importing them loads
`inspect`, `ast` and `dis`, and each decorator compiles generated source:
a fresh process paid more for that than most commands take to run.
"""

from __future__ import annotations


class Record:
    """A class whose fields are the parameters of its __init__, in order.

    __init__ stores them with `_set`. The repr reads `Name(field=value, ...)`
    in that order, and == holds between two instances of one class whose
    `_key()` agree: all the fields, unless the class narrows it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        init = vars(cls).get("__init__")
        if init is not None:
            cls._fields = init.__code__.co_varnames[1:init.__code__.co_argcount]

    def _set(self, *values) -> None:
        # attribute by attribute: from CPython 3.11, filling vars(self) at
        # once makes the attributes a plain dict, which reads half as fast
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A Record whose fields stay as __init__ set them; it hashes by `_key()`."""

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._key())
