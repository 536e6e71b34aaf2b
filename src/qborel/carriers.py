"""The integer carrier: semilinear subsets of the integers and translations.

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
output pieces, never the size of the coordinates.  Intersection and
difference cost O(pieces) when the operands' hulls decide them (an empty,
equal or whole-Z operand, an interval holding the other's hull, hulls
apart), and O(p * pieces) otherwise.

A normal form is not rebuilt from what it already tells.  An IntSet
carries its hull (least and greatest member) from the moment its normal
form is set, and the hull rules read it.  translate shifts the pieces,
since the normal form commutes with translation; the exception is a
union of residue classes, whose pieces start at the residues 0..p-1, so
its shift is normalised again.

The per-run memos of this lane are lru_caches made by record._per_run,
listed in record._MEMOS, the one registry of both lanes: normalisation
(`_canonical_pieces`) and the per-residue algebra (`_residue_algebra`),
which the construction calls again and again on the same piece tuples;
the parsing of map texts (`_ptmap_of_text`) and of relations stored as
texts (`_relation_of_texts`), which a certificate replays many times
over; and the integer-lane levels that feldman_moore registers
(`_levels_of`).  A `record.Run` empties every memo of the registry as
it starts, so each run does its own work.

A PiecewiseTranslation is a partial map on Z given by finitely many
disjoint IntSet domains, each translated by a fixed offset.  These are
closed under restriction, composition, disjoint union and (for injective
maps) inversion, which is what the partial-injection calculus needs.

An IntBlockRelation is an equivalence relation on Z with finitely many
non-singleton classes: a list of disjoint blocks, all other points
singleton.
"""

from __future__ import annotations

import re
from bisect import insort
from collections import namedtuple
from heapq import heappop, heappush
from math import gcd, inf, isqrt, lcm
from typing import Iterable, Iterator

from .errors import InvalidPartition, NotInjective, clip, quote
from .record import Frozen, _per_run


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
    """Minimal q dividing p with residues + q == residues mod p, plus the folded set.
    Only divisors of p qualify: those up to isqrt(p), then their cofactors, the last
    of which, q = p, always does."""
    small = [q for q in range(1, isqrt(p) + 1) if p % q == 0]
    for q in small + [p // q for q in reversed(small)]:
        if all((r + q) % p in residues for r in residues):
            return q, {r % q for r in residues}


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


def _normal_form(raw: tuple[Piece, ...]) -> tuple[Piece, ...]:
    """The normal form of a piece tuple; a normal form is its own."""
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


_canonical_pieces = _per_run(_normal_form)


class IntSet:
    """A semilinear subset of Z in canonical form.

    hull is the least and the greatest member, -inf or inf on the side of
    a ray and (inf, -inf) when empty: down rays come first in a normal
    form, up rays last, and the finite runs between ascend, so it is read
    off the end pieces once, when the normal form is set.
    """

    __slots__ = ("pieces", "hull")

    def __init__(self, pieces: Iterable[Piece] = ()):
        form = _canonical_pieces(tuple(pieces))
        object.__setattr__(self, "pieces", form)
        if not form:
            object.__setattr__(self, "hull", (inf, -inf))
            return
        lo, hi = form[0].min, form[-1].max
        object.__setattr__(self, "hull", (-inf if lo is None else lo, inf if hi is None else hi))

    def __setattr__(self, *a):
        raise AttributeError("IntSet is immutable")

    # -- constructors

    @classmethod
    def empty(cls) -> "IntSet":
        return _EMPTY

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

    def window(self, lo: int, hi: int) -> list[int]:
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
        lo = self.hull[0]
        return None if lo == -inf else lo

    def max(self) -> int | None:
        if not self.pieces:
            raise ValueError("empty IntSet")
        hi = self.hull[1]
        return None if hi == inf else hi

    def closest_to_zero(self) -> int:
        """Element of least absolute value, ties to the nonnegative one."""
        if not self.pieces:
            raise ValueError("empty IntSet")
        return min(map(_piece_near_zero, self.pieces), key=_zero_order)

    # -- algebra: when the operands decide the result (one empty, equal,
    # an interval holding the other's hull, hulls apart) it is an operand
    # or empty, as the normal form of what _residue_algebra would build.

    def union(self, *others: "IntSet") -> "IntSet":
        """Union of all the operands: one normalisation of their pieces, after
        empty and repeated operands are dropped; a lone survivor is the union."""
        kept = list({s.pieces: s for s in (self, *others) if s.pieces}.values())
        if len(kept) < 2:
            return kept[0] if kept else _EMPTY
        return IntSet(pc for s in kept for pc in s.pieces)

    def intersect(self, other: "IntSet") -> "IntSet":
        a, b = self.pieces, other.pieces
        if not b or _holds(self, other):
            return other
        if not a or a == b or _holds(other, self):
            return self
        if _apart(self, other):
            return _EMPTY
        return _residue_algebra(_iv_intersect, a, b)

    def difference(self, other: "IntSet") -> "IntSet":
        a, b = self.pieces, other.pieces
        if not a or not b or _apart(self, other):
            return self
        if a == b or _holds(other, self):
            return _EMPTY
        return _residue_algebra(_iv_difference, a, b)

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def translate(self, c: int) -> "IntSet":
        """self + c: the normal form shifted, which is the normal form of the
        shifted set, except for a union of residue classes (their pieces
        start at r - p and r for residues r in 0..p-1), normalised again."""
        form = self.pieces
        if not c or not form:
            return self
        if _residue_classes(form):
            return IntSet(pc.translate(c) for pc in form)
        out = object.__new__(IntSet)
        object.__setattr__(out, "pieces", tuple([
            tuple.__new__(Piece, (start + c, stride, length, down))
            for start, stride, length, down in form
        ]))
        lo, hi = self.hull
        object.__setattr__(out, "hull", (lo + c, hi + c))
        return out

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


def _residue_classes(form: tuple[Piece, ...]) -> bool:
    """Whether a normal form is a union of residue classes mod some p: the
    down rays Piece(r - p, p) and then the up rays Piece(r, p), r in 0..p-1."""
    k, odd = divmod(len(form), 2)
    return not odd and all(
        dn.down and up.length is None and not up.down and dn.stride == up.stride
        and dn.start + dn.stride == up.start and 0 <= up.start < up.stride
        for dn, up in zip(form[:k], form[k:])
    )


def _holds(s: IntSet, t: IntSet) -> bool:
    """Whether s is an interval (Z or one stride-1 piece) holding t's hull."""
    a = s.pieces
    if not ((len(a) == 1 or a == _ALL) and a[0].stride == 1):
        return False
    (lo, hi), (blo, bhi) = s.hull, t.hull
    return lo <= blo and bhi <= hi


def _apart(s: IntSet, t: IntSet) -> bool:
    """Whether the hulls of two non-empty sets do not meet."""
    (lo, hi), (blo, bhi) = s.hull, t.hull
    return hi < blo or bhi < lo


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


@_per_run
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


def _pieces_meet(a: Piece, b: Piece, lo, hi) -> bool:
    """Whether pieces a and b share a point in [lo, hi], the overlap of their hulls."""
    g = gcd(a.stride, b.stride)
    if (b.start - a.start) % g:
        return False
    if lo == -inf:  # two down rays: their common progression is unbounded below
        return True
    m = b.stride // g
    x = a.start + a.stride * ((b.start - a.start) // g * pow(a.stride // g, -1, m) % m)
    return lo + (x - lo) % (a.stride * m) <= hi


def _meets(family, probes=None) -> Iterator[tuple[int, int]]:
    """Pairs (i, j), maybe repeated, of family[i] and probes[j] sharing a point,
    or without probes of members i != j of family.  One sweep over all pieces
    by hull, two-point pieces split so as not to span their gap, tests each
    against the open pieces of the other list, or of its own."""
    lists = (family,) if probes is None else (family, probes)
    runs = [(-inf if pc.down else pc.start, inf if pc.max is None else pc.max, k, i, pc)
            for k, side in enumerate(lists) for i, s in enumerate(side)
            for pc in _points_apart(s.pieces)]
    runs.sort(key=lambda run: run[0])
    heaps: list[list] = [[] for _ in lists]
    for n, (lo, hi, k, i, pc) in enumerate(runs):
        for heap in heaps:
            while heap and heap[0][0] < lo:
                heappop(heap)
        for top, m in heaps[-1 - k]:
            if _pieces_meet(pc, runs[m][4], lo, min(hi, top)):
                j = runs[m][3]
                yield (j, i) if k else (i, j)
        heappush(heaps[k], (hi, n))


def _first_overlap(sets) -> tuple[int, int] | None:
    """The least pair i < j of indices of two sets that meet, or None."""
    pairs = (tuple(sorted(p)) for p in _meets(sets)) if len(sets) > 1 else ()
    return min(pairs, default=None)


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


_EMPTY = IntSet()
_ALL = IntSet.all_integers().pieces


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
            raise ValueError(f"bad IntSet term: {quote(term.strip())}")
        if m.group("prog"):
            a = int(m.group("pa"))
            d = int(m.group("pd"))
            if d == 0:
                raise ValueError(f"zero stride in term {quote(term.strip())}")
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
                raise ValueError(f"descending segment {quote(term.strip())}")
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
    """The union of the domains of each offset; offsets of only empty domains are left out."""
    by_offset: dict[int, list[IntSet]] = {}
    for dom, c in pairs:
        if not dom.is_empty():
            by_offset.setdefault(c, []).append(dom)
    return {c: doms[0].union(*doms[1:]) if len(doms) > 1 else doms[0]
            for c, doms in by_offset.items()}


class PiecewiseTranslation:
    """Partial map on Z: finitely many disjoint IntSet domains, each shifted.

    Pieces with equal offsets are merged, so equality of canonical piece
    tuples is equality of graphs.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[IntSet, int]] = ()):
        self._merge(pieces)
        doms = [d for d, _ in self.pieces]
        hit = _first_overlap(doms)
        if hit is not None:
            x = doms[hit[0]].intersect(doms[hit[1]]).closest_to_zero()
            raise ValueError(f"overlapping domains at {clip(str(x))}")

    def _merge(self, pieces: Iterable[tuple[IntSet, int]]) -> None:
        merged = sorted(offset_sets(pieces).items())
        object.__setattr__(self, "pieces", tuple((d, c) for c, d in merged))

    @classmethod
    def _disjoint(cls, pieces: Iterable[tuple[IntSet, int]]) -> "PiecewiseTranslation":
        """A map from pieces whose domains are disjoint by construction: no check."""
        out = object.__new__(cls)
        out._merge(pieces)
        return out

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

    def restrict(self, s: IntSet) -> "PiecewiseTranslation":
        return self._disjoint((d.intersect(s), c) for d, c in self.pieces)

    def corestrict(self, s: IntSet) -> "PiecewiseTranslation":
        """Restrict to the part whose values land in s."""
        return self._disjoint((d.intersect(s.translate(-c)), c) for d, c in self.pieces)

    def compose(self, other: "PiecewiseTranslation") -> "PiecewiseTranslation":
        """self after other: x -> self(other(x))."""
        out = []
        for d2, c2 in other.pieces:
            for d1, c1 in self.pieces:
                dom = d2.intersect(d1.translate(-c2))
                if not dom.is_empty():
                    out.append((dom, c1 + c2))
        # x lies in one piece of other and other(x) in one piece of self
        return self._disjoint(out)

    def union(self, *others: "PiecewiseTranslation") -> "PiecewiseTranslation":
        """Union of graphs; domains must be pairwise disjoint.

        An overlap raises ValueError at the point closest to zero where a
        domain meets one before it, as a chain of two-map unions would.
        """
        parts = (self, *others)
        doms = [f.domain() for f in parts]
        pairs = [sorted(p) for p in _meets(doms)]
        if pairs:  # the first part meeting an earlier one, at the point nearest 0
            j = min(j for _, j in pairs)
            hits = [doms[i].intersect(doms[j]).closest_to_zero() for i, k in pairs if k == j]
            x = min(hits, key=_zero_order)
            raise ValueError(f"domains overlap at {clip(str(x))}")
        # each part's domains are disjoint, and the parts' were just shown to be
        return self._disjoint(pc for f in parts for pc in f.pieces)

    def injectivity_witness(self):
        """None if injective, else (x1, x2, y) with x1 != x2 mapping to y."""
        ps = self.pieces
        hit = _first_overlap([d.translate(c) for d, c in ps])
        if hit is None:
            return None
        (d1, c1), (d2, c2) = ps[hit[0]], ps[hit[1]]
        y = d1.translate(c1).intersect(d2.translate(c2)).closest_to_zero()
        return (y - c1, y - c2, y)

    def is_injective(self) -> bool:
        return self.injectivity_witness() is None

    def inverse(self) -> "PiecewiseTranslation":
        w = self.injectivity_witness()
        if w is not None:
            raise NotInjective(f"{w[0]} and {w[1]} both map to {w[2]}", witness=w)
        return self._disjoint((d.translate(c), -c) for d, c in self.pieces)

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
        return self._disjoint(out)

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
    """Parse 'intset -> +c | intset -> -c | ...'; inverse of format_ptmap.

    A str is parsed once per run; any other value (a hand-edited list,
    say) goes to the parser itself and fails there.
    """
    return (_ptmap_of_text if isinstance(text, str) else _parse_ptmap)(text)


def _parse_ptmap(text: str) -> PiecewiseTranslation:
    text = text.strip()
    if text in ("", "empty"):
        return PiecewiseTranslation.empty()
    pieces = []
    for part in text.split("|"):
        if "->" not in part:
            raise ValueError(f"bad map piece: {quote(part.strip())}")
        dom_text, off_text = part.split("->", 1)
        off_text = off_text.strip()
        if not re.match(r"^[+-]?\d+$", off_text):
            raise ValueError(f"bad offset: {quote(off_text)}")
        pieces.append((parse_intset(dom_text), int(off_text)))
    return PiecewiseTranslation(pieces)


# a private name: a tracer may rebind the public ones to wrappers without cache_clear
_ptmap_of_text = _per_run(_parse_ptmap)


def format_ptmap(f: PiecewiseTranslation) -> str:
    if f.is_empty():
        return "empty"
    return " | ".join(
        f"{format_intset(d)} -> {c:+d}" for d, c in f.pieces
    )


class IntBlockRelation(Frozen):
    """Equivalence on the integers: disjoint blocks, all else singleton."""

    def __init__(self, blocks: tuple[IntSet, ...], ambient: IntSet = IntSet.all_integers()):
        self._set(blocks, ambient)

    @classmethod
    def make(cls, blocks, ambient: IntSet | None = None) -> "IntBlockRelation":
        amb = ambient if ambient is not None else IntSet.all_integers()
        bs = [b for b in blocks if not b.is_empty()]
        hit = _first_overlap(bs)
        for i in range(len(bs)):
            if not bs[i].is_subset(amb):
                raise InvalidPartition(f"block {i} leaves the ambient set")
            if hit is not None and hit[0] == i:
                raise InvalidPartition(
                    f"blocks {i} and {hit[1]} overlap",
                    witness=bs[i].intersect(bs[hit[1]]).closest_to_zero(),
                )
        bs.sort(key=lambda b: _zero_order(b.closest_to_zero()))
        return cls(tuple(bs), amb)

    @classmethod
    def parse(cls, blocks, ambient: str) -> "IntBlockRelation":
        """make() of the sets named by the texts of the blocks and the ambient set.

        A list of texts and a text are parsed once per run; any other value
        (a hand-edited block list, say) goes to the parser itself and fails there.
        """
        texts = isinstance(blocks, (list, tuple)) and all(
            isinstance(b, str) for b in (*blocks, ambient)
        )
        if texts:
            return _relation_of_texts(tuple(blocks), ambient)
        return _parse_relation(blocks, ambient)

    def index(self) -> int | float:
        """Largest class size; math.inf when some class is infinite."""
        return max((b.size() for b in self.blocks), default=1)

    def graph_within_witness(self, f: PiecewiseTranslation):
        """None if graph(f) stays inside the relation, else an escaping pair.

        A pair (x, x+c) with c != 0 lies inside exactly when x and x+c
        share a block, so the offset-c domain must sit in the union of
        the sets B meet (B - c).
        """
        meeting: list[set[int]] = [set() for _ in f.pieces]
        for i, j in _meets(self.blocks, [d for d, _ in f.pieces]):
            meeting[j].add(i)
        for (d, c), near in zip(f.pieces, meeting):
            if c == 0:
                stray = d.difference(self.ambient)
                if not stray.is_empty():
                    x = stray.closest_to_zero()
                    return (x, x)
                continue
            allowed = IntSet.empty().union(
                *(self.blocks[i].intersect(self.blocks[i].translate(-c)) for i in near)
            )
            stray = d.difference(allowed)
            if not stray.is_empty():
                x = stray.closest_to_zero()
                return (x, x + c)
        return None


def _parse_relation(blocks, ambient) -> IntBlockRelation:
    return IntBlockRelation.make([parse_intset(b) for b in blocks], parse_intset(ambient))


_relation_of_texts = _per_run(_parse_relation)
