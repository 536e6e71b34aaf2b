"""Effective carriers: finite index sets and semilinear subsets of the integers.

An IntSet is a finite union of arithmetic-progression pieces: finite
segments, upward rays and downward rays.  Construction always normalizes
to a canonical form, so two IntSets are equal as point sets exactly when
their piece tuples compare equal.

The normal form is a function of the point set alone.  Membership of a
semilinear set is eventually periodic in both directions; we find the
minimal eventual periods, the tightest thresholds where the periodic
zones start, and an explicit middle.  Globally periodic sets (including
the empty set and all of Z) collapse to a residue-set description.  All
of it is arithmetic on the sorted interval lists of the residues modulo
the lcm p of the strides of the rays and of the pieces with at least
three points, so the cost follows p and the number of intervals and
output pieces, never the size of the coordinates.

Normalisation and the per-residue algebra are pure functions of piece
tuples, so both are memoised by value, each memo holding at most
MEMO_SIZE entries.  The command line clears them when a run starts
(`_clear_memos`), so every run does its own work.

A PiecewiseTranslation is a partial map on Z given by finitely many
disjoint IntSet domains, each translated by a fixed offset.  These are
closed under restriction, composition, disjoint union and (for injective
maps) inversion, which is what the partial-injection calculus needs.
"""

from __future__ import annotations

import re
from bisect import insort
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, inf, lcm
from typing import Iterable, Iterator

from .errors import NotInjective

# default probe window for pointwise cross-checks
WINDOW = 64
# entries kept by each memo of normal forms and of set algebra
MEMO_SIZE = 4096


class Piece(namedtuple("Piece", "start stride length down", defaults=(False,))):
    """One arithmetic progression: a segment or a ray.

    length is None for rays; down selects the ray direction.  Finite
    pieces are always stored ascending.  A tuple, so memo keys made of
    pieces hash and compare without a Python-level call.
    """

    __slots__ = ()

    def __new__(cls, start: int, stride: int, length: int | None, down: bool = False):
        if stride < 1:
            raise ValueError(f"stride must be positive, got {stride}")
        if length is not None:
            if length < 1:
                raise ValueError(f"length must be positive, got {length}")
            if down:
                raise ValueError("finite pieces are stored ascending")
        return tuple.__new__(cls, (start, stride, length, down))

    def __contains__(self, x: int) -> bool:
        d = x - self.start
        if self.down:
            return d <= 0 and d % self.stride == 0
        if self.length is None:
            return d >= 0 and d % self.stride == 0
        return 0 <= d <= (self.length - 1) * self.stride and d % self.stride == 0

    def translate(self, c: int) -> "Piece":
        return Piece(self.start + c, self.stride, self.length, self.down)

    @property
    def min(self) -> int | None:
        if self.down:
            return None
        return self.start

    @property
    def max(self) -> int | None:
        if self.down:
            return self.start
        if self.length is None:
            return None
        return self.start + (self.length - 1) * self.stride


# ---------------------------------------------------------------------------
# interval lists: sorted disjoint (lo, hi) with None as -/+ infinity,
# used per residue class during set algebra and normalization


def _iv_norm(ivs):
    def lo_key(iv):
        lo = iv[0]
        return (0, 0) if lo is None else (1, lo)

    out = []
    for lo, hi in sorted(ivs, key=lo_key):
        if out:
            plo, phi = out[-1]
            # adjacent lattice intervals merge: phi + 1 >= lo; two
            # intervals unbounded below always overlap
            if phi is None or lo is None or lo <= phi + 1:
                if phi is not None and (hi is None or hi > phi):
                    out[-1] = (plo, hi)
                continue
        out.append((lo, hi))
    return out


def _iv_complement(ivs):
    if not ivs:
        return [(None, None)]
    out = []
    first_lo = ivs[0][0]
    if first_lo is not None:
        out.append((None, first_lo - 1))
    for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
        # hi1 and lo2 are finite by disjointness and sorting
        out.append((hi1 + 1, lo2 - 1))
    last_hi = ivs[-1][1]
    if last_hi is not None:
        out.append((last_hi + 1, None))
    return out


def _iv_intersect(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo = lo1 if lo2 is None else (lo2 if lo1 is None else max(lo1, lo2))
            hi = hi1 if hi2 is None else (hi2 if hi1 is None else min(hi1, hi2))
            if lo is None or hi is None or lo <= hi:
                out.append((lo, hi))
    return _iv_norm(out)


def _iv_difference(a, b):
    return _iv_intersect(a, _iv_complement(_iv_norm(list(b))))


# ---------------------------------------------------------------------------


def _min_shift_period(residues: set[int], p: int):
    """Minimal q dividing p with residues + q == residues mod p, plus the folded set."""
    for q in range(1, p + 1):
        if p % q == 0 and all((r + q) % p in residues for r in residues):
            return q, {r % q for r in residues}
    return p, set(residues)  # q = p always works; unreachable fallback


def _middle_runs(per_res, p: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Members x = r + p*y of the residue intervals with lo <= x <= hi.

    They come out ascending as runs (start, stride, count).  Between two
    consecutive interval ends the set of residues present is constant;
    such a stretch is one run when its residues are evenly spaced mod p,
    and is listed point by point otherwise.
    """
    events = []
    for r, ivs in per_res.items():
        y_lo, y_hi = -((r - lo) // p), (hi - r) // p
        for a, b in ivs:
            a = y_lo if a is None else max(a, y_lo)
            b = y_hi if b is None else min(b, y_hi)
            if a <= b:
                events.append((r + p * a, r))
                events.append((r + p * b + 1, r))
    events.sort()
    runs = []
    res: list[int] = []  # residues present, ascending
    for (u, r), (v, _) in zip(events, events[1:]):
        if r in res:
            res.remove(r)
        else:
            insort(res, r)
        if u == v or not res:
            continue
        step, spread = divmod(p, len(res))
        if not spread and res == list(range(res[0], p, step)):
            x0 = u + (res[0] - u) % step
            if x0 < v:
                runs.append((x0, step, (v - 1 - x0) // step + 1))
            continue
        for base in range(u - u % p, v, p):
            runs.extend((base + s, 1, 1) for s in res if u <= base + s < v)
    return runs


def _greedy_segments(runs: list[tuple[int, int, int]]) -> list[Piece]:
    """Canonical decomposition of a finite ascending point sequence into segments.

    Deterministic function of the point set: each segment takes its
    stride from the gap to the immediate next remaining point and goes on
    while that gap repeats.  The points come as ascending runs (start,
    stride, count), and the walk is over their run-length encoded gaps.
    """
    if not runs:
        return []
    gaps: list[list[int]] = []  # [gap, repeat], no two neighbours equal

    def push(g, k):
        if gaps and gaps[-1][0] == g:
            gaps[-1][1] += k
        else:
            gaps.append([g, k])

    last = None
    for a, d, n in runs:
        if last is not None:
            push(a - last, 1)
        if n > 1:
            push(d, n - 1)
        last = a + (n - 1) * d
    out = []
    x, i, used = runs[0][0], 0, 0
    while i < len(gaps):
        g, k = gaps[i]
        out.append(Piece(x, g, k - used + 1))
        x += g * (k - used)
        i += 1
        if i == len(gaps):
            return out
        # the gap after a segment leads to the start of the next one
        x += gaps[i][0]
        used = 1
        if gaps[i][1] == 1:
            i, used = i + 1, 0
    out.append(Piece(x, 1, 1))
    return out


def _points_apart(pieces) -> list[Piece]:
    """The pieces, with each piece of one or two points split into singletons.

    Such a piece has no period: its stride is only the gap between its
    points, so it must not set the residue modulus p.  Every stride other
    than 1 left belongs to a ray or to a piece of three or more points.
    """
    out = []
    for pc in pieces:
        if pc.stride == 1 or pc.length is None or pc.length > 2:
            out.append(pc)
        else:
            out.extend(Piece(pc.start + i * pc.stride, 1, 1) for i in range(pc.length))
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _canonical_pieces(raw: tuple[Piece, ...]) -> tuple[Piece, ...]:
    if len(raw) < 2:
        # one piece is canonical, except that a single point takes stride 1
        return tuple(Piece(pc.start, 1, 1) if pc.length == 1 else pc for pc in raw)
    raw = _points_apart(raw)
    p = lcm(*[pc.stride for pc in raw])
    per_res = _decompose_mod(raw, p)

    # Above every finite end a residue follows the upward pattern (all of
    # the class or none of it), below them the downward one.  t_plus - 1
    # is the last point that breaks the upward pattern: the last member of
    # a residue outside it, or the last gap of a residue inside it.
    # t_minus + 1 is the first point that breaks the downward pattern.
    up_res, down_res, up_breaks, down_breaks = set(), set(), [], []
    for r, ivs in per_res.items():
        lo, hi = ivs[-1]
        if hi is not None:
            up_breaks.append(r + p * hi)
        else:
            up_res.add(r)
            if lo is not None:
                up_breaks.append(r + p * (lo - 1))
        lo, hi = ivs[0]
        if lo is not None:
            down_breaks.append(r + p * lo)
        else:
            down_res.add(r)
            if hi is not None:
                down_breaks.append(r + p * (hi + 1))

    p_plus, r_plus = _min_shift_period(up_res, p)
    # canonical order: downward rays, finite pieces, upward rays, each
    # ascending by start
    if not up_breaks:
        # every residue is all of its class or empty: globally periodic
        rs = sorted(r_plus)
        return tuple(
            [Piece(r - p_plus, p_plus, None, down=True) for r in rs]
            + [Piece(r, p_plus, None) for r in rs]
        )
    p_minus, r_minus = _min_shift_period(down_res, p)

    t_plus = max(up_breaks) + 1
    assert any(t_plus - 1 in pc for pc in raw) != ((t_plus - 1) % p in up_res), \
        "t_plus - 1 follows the upward pattern"
    t = min(down_breaks) - 1
    assert any(t + 1 in pc for pc in raw) != ((t + 1) % p in down_res), \
        "t_minus + 1 follows the downward pattern"
    t_minus = min(t, t_plus - 1)

    downs = sorted(t_minus - (t_minus - r) % p_minus for r in r_minus)
    ups = sorted(t_plus + (r - t_plus) % p_plus for r in r_plus)
    return tuple(
        [Piece(a, p_minus, None, down=True) for a in downs]
        + _greedy_segments(_middle_runs(per_res, p, t_minus + 1, t_plus - 1))
        + [Piece(a, p_plus, None) for a in ups]
    )


class IntSet:
    """A semilinear subset of Z in canonical form."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Piece] = ()):
        object.__setattr__(self, "pieces", _canonical_pieces(tuple(pieces)))

    def __setattr__(self, *a):
        raise AttributeError("IntSet is immutable")

    # -- constructors

    @classmethod
    def empty(cls) -> "IntSet":
        return cls(())

    @classmethod
    def of(cls, *points: int) -> "IntSet":
        return cls(Piece(x, 1, 1) for x in set(points))

    @classmethod
    def segment(cls, a: int, b: int) -> "IntSet":
        if b < a:
            return cls.empty()
        return cls((Piece(a, 1, b - a + 1),))

    @classmethod
    def progression(cls, a: int, d: int, length: int) -> "IntSet":
        if length == 0:
            return cls.empty()
        if d == 0:
            if length != 1:
                raise ValueError("zero stride needs length 1")
            return cls.of(a)
        if d < 0:
            a, d = a + (length - 1) * d, -d
        return cls((Piece(a, d, length),))

    @classmethod
    def ray_up(cls, a: int, d: int = 1) -> "IntSet":
        if d < 1:
            raise ValueError("ray stride must be positive")
        return cls((Piece(a, d, None, down=False),))

    @classmethod
    def ray_down(cls, a: int, d: int = 1) -> "IntSet":
        if d < 1:
            raise ValueError("ray stride must be positive")
        return cls((Piece(a, d, None, down=True),))

    @classmethod
    def all_integers(cls) -> "IntSet":
        return cls((Piece(0, 1, None), Piece(-1, 1, None, down=True)))

    # -- queries

    def __contains__(self, x: int) -> bool:
        return any(x in pc for pc in self.pieces)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSet) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces

    def is_finite(self) -> bool:
        return all(pc.length is not None for pc in self.pieces)

    def size(self):
        """Number of elements; math.inf when some piece is a ray."""
        if not self.is_finite():
            return inf
        return sum(pc.length for pc in self.pieces)

    def elements(self) -> list[int]:
        if not self.is_finite():
            raise ValueError("infinite IntSet")
        out = []
        for pc in self.pieces:
            out.extend(pc.start + i * pc.stride for i in range(pc.length))
        return sorted(out)

    def window(self, lo: int = -WINDOW, hi: int = WINDOW) -> list[int]:
        """Members in [lo, hi], ascending; canonical pieces are disjoint."""
        out = []
        for pc in self.pieces:
            a = lo if pc.min is None else max(lo, pc.min)
            b = hi if pc.max is None else min(hi, pc.max)
            out.extend(range(a + (pc.start - a) % pc.stride, b + 1, pc.stride))
        return sorted(out)

    def min(self) -> int | None:
        """Least element, None when unbounded below; raises on empty."""
        if not self.pieces:
            raise ValueError("empty IntSet")
        mins = [pc.min for pc in self.pieces]
        if any(m is None for m in mins):
            return None
        return min(mins)

    def max(self) -> int | None:
        if not self.pieces:
            raise ValueError("empty IntSet")
        maxs = [pc.max for pc in self.pieces]
        if any(m is None for m in maxs):
            return None
        return max(maxs)

    def closest_to_zero(self) -> int:
        """Element of least absolute value, ties to the nonnegative one."""
        if not self.pieces:
            raise ValueError("empty IntSet")
        return min(map(_piece_near_zero, self.pieces), key=_zero_order)

    # -- algebra

    def _binary(self, other: "IntSet", op) -> "IntSet":
        return _residue_algebra(op, self.pieces, other.pieces)

    def union(self, *others: "IntSet") -> "IntSet":
        """Union of all the operands: one normalisation of their pieces."""
        return IntSet(pc for s in (self, *others) for pc in s.pieces)

    def intersect(self, other: "IntSet") -> "IntSet":
        return self._binary(other, _iv_intersect)

    def difference(self, other: "IntSet") -> "IntSet":
        return self._binary(other, _iv_difference)

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def translate(self, c: int) -> "IntSet":
        return IntSet(pc.translate(c) for pc in self.pieces)

    def is_subset(self, other: "IntSet") -> bool:
        return self.difference(other).is_empty()

    def translates_union(self, c: int) -> "IntSet":
        """Union of self + k*c over all k >= 0 (exact; c may be negative)."""
        if c == 0 or self.is_empty():
            return self
        out = []
        for pc in self.pieces:
            out.extend(_piece_translates_union(pc, c))
        return IntSet(out)

    def __repr__(self):
        return f"IntSet({format_intset(self)!r})"

    def __str__(self):
        return format_intset(self)


def _zero_order(x: int) -> tuple[int, bool]:
    """Sort key: smaller absolute value first, ties to the nonnegative point."""
    return abs(x), x < 0


def _piece_near_zero(pc: Piece) -> int:
    """The member of a piece closest to zero, ties to the nonnegative one."""
    if pc.min is not None and pc.min >= 0:
        return pc.min
    if pc.max is not None and pc.max <= 0:
        return pc.max
    # the piece spans zero: its members next to zero are the last one at
    # or below it and the one after that
    x = -((-pc.start) % pc.stride)
    return min(x, x + pc.stride, key=_zero_order)


def _piece_translates_union(pc: Piece, c: int) -> list[Piece]:
    """Pieces for union over k >= 0 of (pc + k*c), exact."""
    if c < 0:
        # mirror: negate, compute with -c, negate back
        mirrored = _piece_translates_union(_negate_piece(pc), -c)
        return [_negate_piece(q) for q in mirrored]
    e = gcd(pc.stride, c)
    if pc.down:
        # union over k of a down-ray moving up: the full lattice mod gcd
        return [Piece(pc.start, e, None), Piece(pc.start - e, e, None, down=True)]
    # The member at index j + c/e is the one at index j moved up by
    # (stride/e)*c, so the rays of stride c from the first c/e members
    # (or all of them, if fewer) already cover every translate.
    n = c // e if pc.length is None else min(pc.length, c // e)
    return [Piece(pc.start + j * pc.stride, c, None) for j in range(n)]


def _negate_piece(pc: Piece) -> Piece:
    if pc.down:
        return Piece(-pc.start, pc.stride, None, down=False)
    if pc.length is None:
        return Piece(-pc.start, pc.stride, None, down=True)
    return Piece(-(pc.start + (pc.length - 1) * pc.stride), pc.stride, pc.length)


@lru_cache(maxsize=MEMO_SIZE)
def _residue_algebra(op, a: tuple[Piece, ...], b: tuple[Piece, ...]) -> IntSet:
    """The interval operation op applied per residue to normal forms a and b."""
    mine, theirs = _points_apart(a), _points_apart(b)
    p = lcm(*[pc.stride for pc in mine + theirs])
    mine, theirs = _decompose_mod(mine, p), _decompose_mod(theirs, p)
    out = []
    # a residue in neither set stays empty under every operation
    for r in mine.keys() | theirs.keys():
        ivs = op(mine.get(r, []), theirs.get(r, []))
        out.extend(_rebuild_residue(r, p, ivs))
    return IntSet(out)


def _clear_memos() -> None:
    """Empty the memos of normal forms and of set algebra."""
    _canonical_pieces.cache_clear()
    _residue_algebra.cache_clear()


def _decompose_mod(pieces, p: int) -> dict[int, list]:
    per: dict[int, list] = {}
    for pc in pieces:
        d = pc.stride
        step = p // d
        if pc.down:
            for i0 in range(step):
                x0 = pc.start - i0 * d
                r = x0 % p
                y0 = (x0 - r) // p
                per.setdefault(r, []).append((None, y0))
        elif pc.length is None:
            for i0 in range(step):
                x0 = pc.start + i0 * d
                r = x0 % p
                y0 = (x0 - r) // p
                per.setdefault(r, []).append((y0, None))
        else:
            for i0 in range(min(step, pc.length)):
                count = (pc.length - 1 - i0) // step + 1
                x0 = pc.start + i0 * d
                r = x0 % p
                y0 = (x0 - r) // p
                per.setdefault(r, []).append((y0, y0 + count - 1))
    return {r: _iv_norm(ivs) for r, ivs in per.items()}


def _rebuild_residue(r: int, p: int, ivs) -> list[Piece]:
    out = []
    for lo, hi in ivs:
        if lo is None and hi is None:
            out.append(Piece(r, p, None))
            out.append(Piece(r - p, p, None, down=True))
        elif lo is None:
            out.append(Piece(r + p * hi, p, None, down=True))
        elif hi is None:
            out.append(Piece(r + p * lo, p, None))
        else:
            out.append(Piece(r + p * lo, p, hi - lo + 1))
    return out


# ---------------------------------------------------------------------------
# textual format


_TERM_RE = re.compile(
    r"""^\s*(?:
        (?P<prog>(?P<pa>-?\d+)\s*:\s*(?P<sign>[+-])\s*(?P<pd>\d+)\s*\*\s*(?P<pl>\d+|inf))
      | (?P<seg>(?P<sa>-?\d+)\s*\.\.\s*(?P<sb>-?\d+))
      | (?P<up>(?P<ua>-?\d+)\s*\.\.)
      | (?P<down>\.\.\s*(?P<da>-?\d+))
      | (?P<single>-?\d+)
    )\s*$""",
    re.VERBOSE,
)


def parse_intset(text: str) -> IntSet:
    """Parse the textual IntSet form; inverse of format_intset."""
    text = text.strip()
    if text in ("", "empty"):
        return IntSet.empty()
    pieces = []
    for term in text.split(";"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad IntSet term: {term.strip()!r}")
        if m.group("prog"):
            a = int(m.group("pa"))
            d = int(m.group("pd"))
            if d == 0:
                raise ValueError(f"zero stride in term {term.strip()!r}")
            neg = m.group("sign") == "-"
            if m.group("pl") == "inf":
                pieces.append(Piece(a, d, None, down=neg))
            else:
                length = int(m.group("pl"))
                if length == 0:
                    continue
                if neg:
                    pieces.append(Piece(a - (length - 1) * d, d, length))
                else:
                    pieces.append(Piece(a, d, length))
        elif m.group("seg"):
            a, b = int(m.group("sa")), int(m.group("sb"))
            if b < a:
                raise ValueError(f"descending segment {term.strip()!r}")
            pieces.append(Piece(a, 1, b - a + 1))
        elif m.group("up"):
            pieces.append(Piece(int(m.group("ua")), 1, None))
        elif m.group("down"):
            pieces.append(Piece(int(m.group("da")), 1, None, down=True))
        else:
            pieces.append(Piece(int(m.group("single")), 1, 1))
    return IntSet(pieces)


def format_intset(s: IntSet) -> str:
    if s.is_empty():
        return "empty"
    terms = []
    for pc in s.pieces:
        if pc.down:
            terms.append(f"..{pc.start}" if pc.stride == 1 else f"{pc.start}:-{pc.stride}*inf")
        elif pc.length is None:
            terms.append(f"{pc.start}.." if pc.stride == 1 else f"{pc.start}:+{pc.stride}*inf")
        elif pc.length == 1:
            terms.append(f"{pc.start}")
        elif pc.stride == 1:
            terms.append(f"{pc.start}..{pc.start + pc.length - 1}")
        else:
            terms.append(f"{pc.start}:+{pc.stride}*{pc.length}")
    return "; ".join(terms)


# ---------------------------------------------------------------------------


def offset_sets(pairs: Iterable[tuple[IntSet, int]]) -> dict[int, IntSet]:
    """The union of the domains of each offset, normalised once per offset.

    Offsets with only empty domains are left out.
    """
    by_offset: dict[int, list[Piece]] = {}
    for dom, c in pairs:
        if not dom.is_empty():
            by_offset.setdefault(c, []).extend(dom.pieces)
    return {c: IntSet(pcs) for c, pcs in by_offset.items()}


class PiecewiseTranslation:
    """Partial map on Z: finitely many disjoint IntSet domains, each shifted.

    Pieces with equal offsets are merged, so equality of canonical piece
    tuples is equality of graphs.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[IntSet, int]] = ()):
        self._merge(pieces)
        doms = [d for d, _ in self.pieces]
        for i in range(len(doms)):
            for j in range(i + 1, len(doms)):
                both = doms[i].intersect(doms[j])
                if not both.is_empty():
                    x = both.closest_to_zero()
                    raise ValueError(f"overlapping domains at {x}")

    def _merge(self, pieces: Iterable[tuple[IntSet, int]]) -> None:
        merged = sorted(offset_sets(pieces).items())
        object.__setattr__(self, "pieces", tuple((d, c) for c, d in merged))

    def __setattr__(self, *a):
        raise AttributeError("PiecewiseTranslation is immutable")

    @classmethod
    def identity(cls, ambient: IntSet | None = None) -> "PiecewiseTranslation":
        return cls(((ambient if ambient is not None else IntSet.all_integers(), 0),))

    @classmethod
    def empty(cls) -> "PiecewiseTranslation":
        return cls(())

    @classmethod
    def translation(cls, dom: IntSet, c: int) -> "PiecewiseTranslation":
        return cls(((dom, c),))

    # -- map structure

    def domain(self) -> IntSet:
        return IntSet(pc for d, _ in self.pieces for pc in d.pieces)

    def range_set(self) -> IntSet:
        return IntSet(pc.translate(c) for d, c in self.pieces for pc in d.pieces)

    def offsets(self) -> dict[int, IntSet]:
        return {c: d for d, c in self.pieces}

    def get(self, x: int) -> int | None:
        for d, c in self.pieces:
            if x in d:
                return x + c
        return None

    def __call__(self, x: int) -> int:
        y = self.get(x)
        if y is None:
            raise KeyError(x)
        return y

    def is_empty(self) -> bool:
        return not self.pieces

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseTranslation) and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash(self.pieces)

    # -- algebra

    def image(self, s: IntSet) -> IntSet:
        return IntSet.empty().union(*(d.intersect(s).translate(c) for d, c in self.pieces))

    def preimage(self, s: IntSet) -> IntSet:
        return IntSet.empty().union(*(d.intersect(s.translate(-c)) for d, c in self.pieces))

    def restrict(self, s: IntSet) -> "PiecewiseTranslation":
        return PiecewiseTranslation((d.intersect(s), c) for d, c in self.pieces)

    def corestrict(self, s: IntSet) -> "PiecewiseTranslation":
        """Restrict to the part whose values land in s."""
        return PiecewiseTranslation(
            (d.intersect(s.translate(-c)), c) for d, c in self.pieces
        )

    def compose(self, other: "PiecewiseTranslation") -> "PiecewiseTranslation":
        """self after other: x -> self(other(x))."""
        out = []
        for d2, c2 in other.pieces:
            for d1, c1 in self.pieces:
                dom = d2.intersect(d1.translate(-c2))
                if not dom.is_empty():
                    out.append((dom, c1 + c2))
        return PiecewiseTranslation(out)

    def union(self, *others: "PiecewiseTranslation") -> "PiecewiseTranslation":
        """Union of graphs; domains must be pairwise disjoint.

        An overlap raises ValueError at the point closest to zero where a
        domain meets one before it, as a chain of two-map unions would.
        """
        parts = (self, *others)
        doms = [f.domain() for f in parts]
        for j in range(1, len(doms)):
            hits = [doms[i].intersect(doms[j]) for i in range(j)]
            hits = [h.closest_to_zero() for h in hits if not h.is_empty()]
            if hits:
                x = min(hits, key=_zero_order)
                raise ValueError(f"domains overlap at {x}")
        # No second overlap check: within each part the domains of distinct
        # offsets are disjoint, and the parts' whole domains were just shown
        # pairwise disjoint, so after merging by offset the domains of
        # distinct offsets are disjoint too.
        out = object.__new__(PiecewiseTranslation)
        out._merge(pc for f in parts for pc in f.pieces)
        return out

    def injectivity_witness(self):
        """None if injective, else (x1, x2, y) with x1 != x2 mapping to y."""
        ps = self.pieces
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                (d1, c1), (d2, c2) = ps[i], ps[j]
                both = d1.translate(c1).intersect(d2.translate(c2))
                if not both.is_empty():
                    y = both.closest_to_zero()
                    return (y - c1, y - c2, y)
        return None

    def is_injective(self) -> bool:
        return self.injectivity_witness() is None

    def inverse(self) -> "PiecewiseTranslation":
        w = self.injectivity_witness()
        if w is not None:
            raise NotInjective(f"{w[0]} and {w[1]} both map to {w[2]}", witness=w)
        return PiecewiseTranslation((d.translate(c), -c) for d, c in self.pieces)

    def graph_minus(self, *others: "PiecewiseTranslation") -> "PiecewiseTranslation":
        """Pairs of self not present in any of the others (a partial map again)."""
        out = []
        for d, c in self.pieces:
            rest = d
            for o in others:
                od = o.offsets().get(c)
                if od is not None:
                    rest = rest.difference(od)
            out.append((rest, c))
        return PiecewiseTranslation(out)

    def graph_subset_witness(self, *others: "PiecewiseTranslation"):
        """None if graph(self) is covered by the union of the others, else (x, y)."""
        left = self.graph_minus(*others)
        for d, c in left.pieces:
            if not d.is_empty():
                x = d.closest_to_zero()
                return (x, x + c)
        return None

    def __repr__(self):
        return f"PiecewiseTranslation({format_ptmap(self)!r})"

    def __str__(self):
        return format_ptmap(self)


def parse_ptmap(text: str) -> PiecewiseTranslation:
    """Parse 'intset -> +c | intset -> -c | ...'; inverse of format_ptmap."""
    text = text.strip()
    if text in ("", "empty"):
        return PiecewiseTranslation.empty()
    pieces = []
    for part in text.split("|"):
        if "->" not in part:
            raise ValueError(f"bad map piece: {part.strip()!r}")
        dom_text, off_text = part.split("->", 1)
        off_text = off_text.strip()
        if not re.match(r"^[+-]?\d+$", off_text):
            raise ValueError(f"bad offset: {off_text!r}")
        pieces.append((parse_intset(dom_text), int(off_text)))
    return PiecewiseTranslation(pieces)


def format_ptmap(f: PiecewiseTranslation) -> str:
    if f.is_empty():
        return "empty"
    return " | ".join(
        f"{format_intset(d)} -> {c:+d}" for d, c in f.pieces
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCarrier:
    """Points 0..size-1, with optional distinct display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative carrier size")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError("label count differs from size")
            if len(set(self.labels)) != self.size:
                raise ValueError("duplicate labels")

    def index_of(self, label: str) -> int:
        if self.labels is None:
            return int(label)
        return self.labels.index(label)

    def points(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class IntCarrier:
    """The integer line, or a declared semilinear ambient subset of it."""

    ambient: IntSet = IntSet.all_integers()
