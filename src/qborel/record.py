"""Plain classes of named fields, and the registry of per-run memos.

The standard library's data classes would do, but importing them loads
`inspect`, `ast` and `dis`, and each decorator compiles generated source:
a fresh process paid more for that than most commands take to run.

Every per-run memo of both lanes is listed in _MEMOS, which every module
can reach here: an lru_cache that `_per_run` makes, or a `Memo` dict that
`keep` fills. Each keeps at most MEMO_SIZE entries, and a `Run` empties
them all as it starts (`_clear_memos`).
"""

from __future__ import annotations

import gc
from functools import lru_cache

# entries kept by each memo
MEMO_SIZE = 4096

# every per-run memo of the package, in the order they are made
_MEMOS: list = []


def _per_run(fn):
    """fn memoised by value in an lru_cache of MEMO_SIZE entries, listed in _MEMOS."""
    memo = lru_cache(maxsize=MEMO_SIZE)(fn)
    _MEMOS.append(memo)
    return memo


def _clear_memos() -> None:
    """Empty every memo in _MEMOS: a Run does so as it starts."""
    for memo in _MEMOS:
        memo.cache_clear()


class Run:
    """One run, as of a command: it starts from empty memos, as a fresh process
    would, and pauses the cycle collector (reference counting frees what it
    makes) until it ends, however it ends, leaving it as the caller had it."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()
        _clear_memos()

    def __exit__(self, *exc):
        if self.collecting:
            gc.enable()


class Memo(dict):
    """A per-run memo of _MEMOS: values a run has computed, by key, at most
    MEMO_SIZE. A run reads it with get; cache_clear empties it, as it does an
    lru_cache."""

    __slots__ = ()

    def __init__(self):
        super().__init__()
        _MEMOS.append(self)

    cache_clear = dict.clear

    def keep(self, key, value) -> None:
        """Keep value under key; a full memo is emptied first."""
        if len(self) == MEMO_SIZE:
            self.clear()
        self[key] = value


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
