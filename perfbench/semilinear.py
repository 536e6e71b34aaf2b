"""A small reader for qborel's integer-set and piecewise-translation text.

The benchmark's oracles evaluate certificate outputs point by point with
this module, so it deliberately shares no code with qborel. A set is a
list of terms `(start, stride, count, down)`: `count` is None for a ray,
and `down` marks a ray that runs towards minus infinity.
"""

from __future__ import annotations

import re

_NUM = r"-?\d+"
_PROG = re.compile(rf"^({_NUM}):([+-])(\d+)\*(\d+|inf)$")
_SEG = re.compile(rf"^({_NUM})\.\.({_NUM})$")
_UP = re.compile(rf"^({_NUM})\.\.$")
_DOWN = re.compile(rf"^\.\.({_NUM})$")
_ONE = re.compile(rf"^({_NUM})$")


def parse_set(text: str) -> list[tuple[int, int, int | None, bool]]:
    text = text.replace(" ", "")
    if text in ("", "empty"):
        return []
    terms = []
    for term in text.split(";"):
        if m := _PROG.match(term):
            a, sign, d, length = int(m[1]), m[2], int(m[3]), m[4]
            if length == "inf":
                terms.append((a, d, None, sign == "-"))
            elif sign == "+":
                terms.append((a, d, int(length), False))
            else:
                raise ValueError(f"qborel prints no descending segment: {term!r}")
        elif m := _SEG.match(term):
            terms.append((int(m[1]), 1, int(m[2]) - int(m[1]) + 1, False))
        elif m := _UP.match(term):
            terms.append((int(m[1]), 1, None, False))
        elif m := _DOWN.match(term):
            terms.append((int(m[1]), 1, None, True))
        elif m := _ONE.match(term):
            terms.append((int(m[1]), 1, 1, False))
        else:
            raise ValueError(f"unreadable set term {term!r}")
    return terms


def member(terms, x: int) -> bool:
    for start, stride, count, down in terms:
        d = x - start
        if d % stride:
            continue
        if down:
            if d <= 0:
                return True
        elif d >= 0 and (count is None or d // stride < count):
            return True
    return False


def parse_map(text: str) -> list[tuple[list, int]]:
    """Pieces `(domain terms, offset)` of a piecewise translation."""
    text = text.strip()
    if text in ("", "empty"):
        return []
    pieces = []
    for part in text.split("|"):
        dom, off = part.rsplit("->", 1)
        pieces.append((parse_set(dom), int(off.strip())))
    return pieces


def apply(pieces, x: int) -> int | None:
    """Image of x, or None when x is outside the domain."""
    for dom, off in pieces:
        if member(dom, x):
            return x + off
    return None
