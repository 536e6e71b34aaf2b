"""The partial-injection calculus behind countable equivalence relations.

Finite lane: relations and maps live on points 0..n-1, maps are dicts.
Integer lane: maps are piecewise translations and sets are IntSets, so
every step of the construction stays exact.

The pipeline: split an enumeration into partial injections, greedily
extend a seed injection to a maximal one, stratify the points by how
their orbit under the injection escapes its domain or range, then
reassemble two total bijections covering the seed.  On the finite lane
every class is finite, so a maximal injection is a permutation, all
levels but X_0 are empty and the cover is (g, g^-1).  Level dynamics on
the integer carrier are accelerated once they become periodic; the
detected period is certified by a translation-compatibility check, not
extrapolated blindly.
"""

from __future__ import annotations

from .carriers import IntBlockRelation, IntSet, PiecewiseTranslation, format_intset
from .errors import (
    BadParameters,
    NoAcceleration,
    NotInjective,
    NotMaximal,
    NotWithinRelation,
)
from .quotient import Partition
from .record import Frozen, Record, _per_run
from .relations import EnumeratedEquivalence, enumerated_partition, graph_within_partition

# The level bound and the orbit window set how many points a run (or a
# replay of a stored certificate) visits, so both are capped.
MAX_PROBE = 1024

# the half-width of the window a run certifies orbit coverage on
ORBIT_WINDOW = 64

# the longest period the integer-lane level search tries
MAX_PERIOD = 8

# breadth-first search in the orbit-window check may roam this far past the window
ORBIT_SLACK = 16

# classical_construction builds k^2 * b tables of n entries (k the largest
# class, b the bits of n - 1), and fm-classical stores them all. The largest
# run that completes, classes of 1-6 in 8,000 points, holds 3,744,000; one
# class of 160 points (32,768,000) ran out of memory.
MAX_CLASSICAL_ENTRIES = 4_000_000


def _check_probe(name: str, value: int, least: int):
    if not least <= value <= MAX_PROBE:
        raise BadParameters(f"{name} {value} outside {least}..{MAX_PROBE}", witness=value)


# ---------------------------------------------------------------------------
# dict-map helpers (finite lane)


def identity_map(n: int) -> dict[int, int]:
    return {x: x for x in range(n)}


def invert_map(f: dict[int, int]) -> dict[int, int]:
    inv = {}
    for x, y in f.items():
        if y in inv:
            raise NotInjective(
                f"{inv[y]} and {x} both map to {y}", witness=(inv[y], x, y)
            )
        inv[y] = x
    return inv


def injectivity_witness(f: dict[int, int]):
    if len(set(f.values())) == len(f):
        return None
    seen = {}
    for x in sorted(f):
        y = f[x]
        if y in seen:
            return (seen[y], x, y)
        seen[y] = x
    return None


def _signature(f: dict[int, int]) -> tuple:
    """Hashable form of a finite map, equal for two maps exactly when they are.

    A map total on 0..len(f)-1, an extension or a cover map, is keyed by
    its images in point order, with no sort; any other map, a psi say, by
    its sorted pairs.  Neither form depends on the order the dict was
    filled in, and the two never meet: one is a tuple of ints, the other
    a tuple of pairs.
    """
    try:
        return tuple(map(f.__getitem__, range(len(f))))
    except KeyError:
        return tuple(sorted(f.items()))


# ---------------------------------------------------------------------------
# Lusin-Novikov section decomposition


class SectionDecomposition(Record):
    """A finite-section relation split into graphs of partial maps.

    graphs[i] sends x to the i-th smallest element of the section at x;
    the first graph is the least-element uniformization.
    """

    def __init__(self, relation: frozenset[tuple[int, int]], graphs: list[dict[int, int]]):
        self._set(relation, graphs)

    @property
    def uniformization(self) -> dict[int, int]:
        return self.graphs[0] if self.graphs else {}


def lusin_novikov_decompose(pairs) -> SectionDecomposition:
    """Split a finite relation into countably many function graphs."""
    rel = frozenset((int(a), int(b)) for a, b in pairs)
    sections: dict[int, list[int]] = {}
    for a, b in rel:
        sections.setdefault(a, []).append(b)
    for a in sections:
        sections[a].sort()
    width = max((len(s) for s in sections.values()), default=0)
    graphs = []
    for i in range(width):
        graphs.append({a: s[i] for a, s in sections.items() if len(s) > i})
    return SectionDecomposition(rel, graphs)


# ---------------------------------------------------------------------------
# classical construction on a finite carrier


class ClassicalResult(Record):
    """Involutions realizing an equivalence relation on a finite carrier."""

    def __init__(
        self, relation: Partition, bit_count: int,
        involutions: dict[tuple[int, int, int], dict[int, int]], generators: list[dict[int, int]]
    ):
        self._set(relation, bit_count, involutions, generators)

    def involution_for_pair(self, x: int, y: int) -> tuple[int, int, int] | None:
        for key, f in sorted(self.involutions.items()):
            if f.get(x) == y:
                return key
        return None


def classical_construction(rel: Partition) -> ClassicalResult:
    """The Feldman-Moore involutions of a relation on points 0..n-1.

    Graph m of the enumeration sends each point of a class B to B[m], the
    m-th smallest member of B, and the separating sets are the bits of the
    point index.  Involution (m, n, p) swaps B[m] and B[n] in every class
    B of more than max(m, n) points where bit p is clear in B[m] and set
    in B[n], and fixes every other point.  The generators are the distinct
    involutions that move a point, in triple order: two triples give the
    same involution exactly when they swap the same unordered pairs.
    A relation whose tables would pass MAX_CLASSICAL_ENTRIES entries is
    refused with BadParameters before any is built.
    """
    n = rel.n
    bit_count = (n - 1).bit_length() if n >= 2 else 0
    k = rel.index()
    entries = k * k * bit_count * n
    if entries > MAX_CLASSICAL_ENTRIES:
        raise BadParameters(
            f"{k}^2 * {bit_count} involution tables of {n} points hold {entries} entries,"
            f" above the cap of {MAX_CLASSICAL_ENTRIES}",
            witness=entries,
        )
    involutions = {}
    generators, seen = [], set()
    for m in range(k):
        for nn in range(k):
            pairs = [(b[m], b[nn]) for b in rel.blocks if len(b) > max(m, nn)]
            for p in range(bit_count):
                swaps = [(x, y) for x, y in pairs if not x >> p & 1 and y >> p & 1]
                table = involutions[(m, nn, p)] = identity_map(n)
                for x, y in swaps:
                    table[x], table[y] = y, x
                moved = frozenset(map(frozenset, swaps))
                if moved and moved not in seen:
                    seen.add(moved)
                    generators.append(table)
    return ClassicalResult(rel, bit_count, involutions, generators)


# ---------------------------------------------------------------------------
# splitting an enumeration into partial injections


def psi_split(phis: list[dict[int, int]]) -> list[dict[int, int]]:
    """Partial injections phi_a meet phi_b^-1, indexed row-major by (a, b).

    A family enumerated_partition has checked gives injections that cover
    the whole relation.  phi_a's pair (x, y) lies in psi_(a,b) exactly
    when (y, x) is a pair of phi_b, so one index from each pair to the
    graphs holding it serves all k^2 of them.
    """
    k = len(phis)
    holders: dict[tuple[int, int], list[int]] = {}
    for b, fb in enumerate(phis):
        for pair in fb.items():
            holders.setdefault(pair, []).append(b)
    psis = [{} for _ in range(k * k)]
    for a, fa in enumerate(phis):
        row = psis[a * k:(a + 1) * k]
        for x, y in fa.items():
            for b in holders.get((y, x), ()):
                row[b][x] = y
    return psis


def psi_split_int(phis: list[PiecewiseTranslation]) -> list[PiecewiseTranslation]:
    """Integer-lane splitting: graph of phi_a intersected with phi_b^-1.

    A map holds one piece per offset, so the piece of phi_b that can undo
    offset c of phi_a is its piece of offset -c, if any.
    """
    by_offset = [f.offsets() for f in phis]
    # each psi keeps parts of its phi_a's domains, which are disjoint
    return [
        PiecewiseTranslation._disjoint(
            (d.intersect(offs[-c].translate(-c)), c) for d, c in fa.pieces if -c in offs
        )
        for fa in phis
        for offs in by_offset
    ]


# ---------------------------------------------------------------------------
# greedy extension


def greedy_extend(
    g0: dict[int, int],
    psis: list[dict[int, int]],
    n: int,
    rel: Partition | None = None,
    sources: range | None = None,
) -> dict[int, int]:
    """Extend a partial injection by all non-clashing pairs of each psi.

    Processes the identity first (so untouched points pair with
    themselves), then each psi in order, keeping every pair whose source
    is not yet used as a source and whose target not yet as a target.

    A used source stays used, so each map is read only at the sources
    still free, in ascending order (the order of a sorted scan of its
    pairs), and the walk stops once no source is free.  The sources are
    0..n-1 and every source a psi offers, or the ascending ones given: the
    psis of a checked enumeration offer none outside 0..n-1.  Only the
    seed is checked, given rel, against it: each psi lies in the graph of
    a map its caller checked once, where the map entered.
    """
    w = injectivity_witness(g0)
    if w is not None:
        raise NotInjective(f"seed maps {w[0]} and {w[1]} to {w[2]}", witness=w)
    if rel is not None:
        w = graph_within_partition(g0, rel)
        if w is not None:
            raise NotWithinRelation(f"seed pair {w} leaves the relation", witness=w)
    g = dict(g0)
    rng = set(g.values())
    free = []
    for x in sorted(set(range(n)).union(*psis)) if sources is None else sources:
        if x in g:
            continue
        if 0 <= x < n and x not in rng:
            g[x] = x
            rng.add(x)
        else:
            free.append(x)
    for psi in psis:
        if not free:
            break
        still = []
        for x in free:
            y = psi.get(x)
            if y is None or y in rng:
                still.append(x)
            else:
                g[x] = y
                rng.add(y)
        free = still
    return g


def maximality_witness(g: dict[int, int], rel: Partition):
    """None when every related pair has its source used or target hit."""
    if g.keys() == set(range(rel.n)):
        return None
    rng = set(g.values())
    for block in rel.blocks:
        for y in block:
            if y in g:
                continue
            for z in block:
                if z not in rng:
                    return (y, z)
    return None


def greedy_extend_int(
    g0: PiecewiseTranslation,
    psis: list[PiecewiseTranslation],
    ambient: IntSet,
    rel: IntBlockRelation | None = None,
) -> PiecewiseTranslation:
    """Integer-lane greedy extension with exact IntSet bookkeeping.

    The ambient points not yet used as sources, and those not yet hit,
    are kept as the walk goes: each accepted part leaves both.  Only the
    seed is checked, as greedy_extend checks it.
    """
    w = g0.injectivity_witness()
    if w is not None:
        raise NotInjective(f"seed maps {w[0]} and {w[1]} to {w[2]}", witness=w)
    if rel is not None:
        w = rel.graph_within_witness(g0)
        if w is not None:
            raise NotWithinRelation(f"seed pair {w} leaves the relation", witness=w)
    queue = [PiecewiseTranslation.identity(ambient)] + list(psis)
    g = g0
    free_src = ambient.difference(g0.domain())
    free_tgt = ambient.difference(g0.range_set())
    for psi in queue:
        fresh = psi.restrict(free_src).corestrict(free_tgt)
        # psi is injective and filtering only removes pairs, so fresh is
        # injective; its sources avoid g's domain and its targets g's
        # range, so the union needs no check
        if not fresh.is_empty():
            g = PiecewiseTranslation._disjoint(g.pieces + fresh.pieces)
            free_src = free_src.difference(fresh.domain())
            free_tgt = free_tgt.difference(fresh.range_set())
    return g


def maximality_witness_int(g: PiecewiseTranslation, rel: IntBlockRelation):
    """Witness pair (y, z) related with y outside dom(g), z outside rng(g)."""
    return _unused_pair(rel, g.domain(), g.range_set())


def _unused_pair(rel: IntBlockRelation, dom: IntSet, rng: IntSet):
    """maximality_witness_int of a map with domain dom and range rng."""
    no_dom = rel.ambient.difference(dom)
    no_rng = rel.ambient.difference(rng)
    diag = no_dom.intersect(no_rng)
    if not diag.is_empty():
        x = diag.closest_to_zero()
        return (x, x)
    for b in rel.blocks:
        ys = b.intersect(no_dom)
        zs = b.intersect(no_rng)
        if not ys.is_empty() and not zs.is_empty():
            return (ys.closest_to_zero(), zs.closest_to_zero())
    return None


# ---------------------------------------------------------------------------
# level stratification


class FiniteLevels(Record):
    """Levels of a maximal partial injection on a finite point set."""

    def __init__(
        self, n: int, g: dict[int, int], ginv: dict[int, int], positive: list[frozenset[int]],
        negative: list[frozenset[int]], zero: frozenset[int]
    ):
        # positive holds X_1, X_2, ..., and negative X_-1, X_-2, ...
        self._set(n, g, ginv, positive, negative, zero)


def levels_finite(g: dict[int, int], n: int, rel: Partition) -> FiniteLevels:
    """Levels of a maximal injection inside a relation with finite classes.

    Such an injection maps each class injectively into itself and, being
    maximal, onto itself: it is a permutation, so every point lies in
    X_0 and all other levels are empty.  The levels hold g itself, not a
    copy, and its inverse.  g is checked first: NotInjective,
    NotWithinRelation or NotMaximal when it is not such an injection.
    """
    w = injectivity_witness(g)
    if w is not None:
        raise NotInjective(f"{w[0]} and {w[1]} both map to {w[2]}", witness=w)
    w = graph_within_partition(g, rel)
    if w is not None:
        raise NotWithinRelation(f"pair {w} leaves the relation", witness=w)
    w = maximality_witness(g, rel)
    if w is not None:
        raise NotMaximal(f"pair {w} is unused but extendable", witness=w)
    return FiniteLevels(n, g, invert_map(g), [], [], frozenset(range(n)))


class SideLevels(Frozen):
    """One side of the integer-lane stratification.

    explicit[i] is the level at depth i+1.  When accel is set as
    (base, period, offset), levels from depth base onward repeat with
    that period, translated by the offset; union is the exact union of
    the whole side.
    """

    def __init__(self, explicit: list[IntSet], accel: tuple[int, int, int] | None, union: IntSet):
        self._set(explicit, accel, union)

    def level(self, depth: int) -> IntSet:
        if depth < 1:
            raise ValueError("side levels start at depth 1")
        if self.accel is None:
            if depth <= len(self.explicit):
                return self.explicit[depth - 1]
            return IntSet.empty()
        base, period, offset = self.accel
        if depth < base:
            return self.explicit[depth - 1]
        k, i = divmod(depth - base, period)
        return self.explicit[base + i - 1].translate(k * offset)

    def parity_union(self, parity: int) -> IntSet:
        """Union of levels of the given parity (0 even, 1 odd)."""
        base = len(self.explicit) + 1 if self.accel is None else self.accel[0]
        sets = [self.explicit[d - 1] for d in range(1, base) if d % 2 == parity]
        if self.accel is not None:
            _, period, offset = self.accel
            # normalize to an even period so depth parity is constant per chain
            pp = period if period % 2 == 0 else 2 * period
            cc = offset * (pp // period)
            sets += [
                self.level(d).translates_union(cc)
                for d in range(base, base + pp)
                if d % 2 == parity
            ]
        return IntSet.empty().union(*sets)


class IntLevels(Frozen):
    """Integer-lane stratification with certified acceleration."""

    def __init__(
        self, ambient: IntSet, g: PiecewiseTranslation, ginv: PiecewiseTranslation,
        positive: SideLevels, negative: SideLevels, zero: IntSet
    ):
        self._set(ambient, g, ginv, positive, negative, zero)

    def level(self, depth: int) -> IntSet:
        if depth == 0:
            return self.zero
        if depth > 0:
            return self.positive.level(depth)
        return self.negative.level(-depth)


def _compatible_region(h: PiecewiseTranslation, c: int) -> IntSet:
    """Points x where h(x + c) = h(x) + c, both sides defined.

    h holds one piece per offset, so x and x + c lie in the same piece.
    """
    return IntSet.empty().union(*(d.intersect(d.translate(-c)) for d, _ in h.pieces))


def _side_levels(
    h: PiecewiseTranslation, first: IntSet, bound: int, max_period: int
) -> SideLevels:
    """Iterate depth levels of h from a first level and certify a period.

    A period (p, c) is accepted only when the whole claimed tail lies in
    the region where h commutes with translation by c, which makes the
    extrapolation exact rather than empirical.

    Candidates run period first (1..max_period), then base; a level is
    built only when the next candidate (base, period) reads it, since it
    reads depths base and base + period alone.  Stopping early changes
    nothing: an accepted tail lies in h's domain and is carried into
    itself by h, so every deeper level is non-empty and no empty level
    within bound could have made the side finite.
    """
    levels = [first]

    def reach(depth: int) -> bool:
        """Build levels through depth; False once an empty one is built."""
        while len(levels) < depth and not levels[-1].is_empty():
            levels.append(h.image(levels[-1]))
        return not levels[-1].is_empty()

    def finite() -> SideLevels:
        explicit = levels[:-1]
        return SideLevels(explicit, None, IntSet.empty().union(*explicit))

    for period in range(1, max_period + 1):
        for base in range(1, bound - period + 1):
            if not reach(base + period):
                return finite()
            a = levels[base - 1]
            b = levels[base + period - 1]
            if a.min() is not None and b.min() is not None:
                c = b.min() - a.min()
            elif a.max() is not None and b.max() is not None:
                c = b.max() - a.max()
            else:
                continue
            if b != a.translate(c):
                continue
            tail = IntSet.empty().union(
                *(levels[base + i - 1].translates_union(c) for i in range(period))
            )
            if not tail.is_subset(_compatible_region(h, c)):
                continue
            union = tail.union(*levels[: base - 1])
            return SideLevels(levels[: base + period - 1], (base, period, c), union)
    if not reach(bound):
        return finite()
    explored = [format_intset(s) for s in levels]
    raise NoAcceleration(
        f"no period up to {max_period} within {bound} levels",
        witness={"bound": bound, "max_period": max_period, "levels": explored},
    )


def levels_int(
    g: PiecewiseTranslation, rel: IntBlockRelation, bound: int = 32
) -> IntLevels:
    """Integer-lane stratification of a maximal partial injection.

    Computed once per run for an int bound, so an integer cover and the
    int_levels check that replays it share one stratification, frozen
    since every caller gets the same one.  Any other bound (a hand-edited
    32.0 or true) goes to the computation itself.
    """
    return (_levels_of if type(bound) is int else _levels_int)(g, rel, bound)


def _levels_int(g: PiecewiseTranslation, rel: IntBlockRelation, bound) -> IntLevels:
    _check_probe("level bound", bound, 1)
    ginv = g.inverse()  # NotInjective when two points share an image
    dom, rng = g.domain(), g.range_set()
    w = _unused_pair(rel, dom, rng)
    if w is not None:
        raise NotMaximal(f"pair {w} is unused but extendable", witness=w)
    ambient = rel.ambient
    pos_first = dom.difference(rng)
    neg_first = rng.difference(dom)
    pos = _side_levels(g, pos_first, bound, MAX_PERIOD)
    neg = _side_levels(ginv, neg_first, bound, MAX_PERIOD)
    zero = ambient.difference(pos.union).difference(neg.union)
    return IntLevels(ambient, g, ginv, pos, neg, zero)


_levels_of = _per_run(_levels_int)


def _mirror_levels(levels):
    """The levels of g^-1 from g's, on either lane: g and g^-1 swap, and so do the sides."""
    head, g, ginv, positive, negative, zero = levels._key()
    return type(levels)(head, ginv, g, negative, positive, zero)


# ---------------------------------------------------------------------------
# the two-bijection cover


class CoverPair(Record):
    """Two total bijections whose union of graphs covers the seed."""

    def __init__(self, first: dict | PiecewiseTranslation, second: dict | PiecewiseTranslation):
        self._set(first, second)


def cover_finite(levels: FiniteLevels) -> CoverPair:
    """The finite cover: all points sit in X_0, so it is (g, g^-1), the levels' own maps."""
    return CoverPair(levels.g, levels.ginv)


def cover_int(levels: IntLevels) -> CoverPair:
    """Assemble the two bijections from an integer stratification.  With
    both sides empty every point lies in X_0, and the cover is (g, g^-1)."""
    g, ginv = levels.g, levels.ginv
    if levels.positive.union.is_empty() and levels.negative.union.is_empty():
        return CoverPair(g.restrict(levels.zero), ginv.restrict(levels.zero))
    pos_odd = levels.positive.parity_union(1)
    pos_even = levels.positive.parity_union(0)
    neg_odd = levels.negative.parity_union(1)
    neg_even = levels.negative.parity_union(0)
    x1 = levels.positive.level(1)
    xm1 = levels.negative.level(1)
    gp = g.restrict(levels.zero).union(
        g.restrict(pos_odd),
        ginv.restrict(pos_even),
        ginv.restrict(neg_odd),
        g.restrict(neg_even),
    )
    gpp = ginv.restrict(levels.zero).union(
        PiecewiseTranslation.identity(x1.union(xm1)),
        g.restrict(pos_even),
        ginv.restrict(pos_odd.difference(x1)),
        ginv.restrict(neg_even),
        g.restrict(neg_odd.difference(xm1)),
    )
    return CoverPair(gp, gpp)


def _mirror_cover_int(levels: IntLevels, cover: CoverPair) -> CoverPair:
    """cover_int(levels) from the cover of g^-1: the two agree off X_0, where sides only swap."""
    on, back = levels.g.restrict(levels.zero), levels.ginv.restrict(levels.zero)
    if on == back:
        return cover
    return CoverPair(cover.first.graph_minus(back).union(on),
                     cover.second.graph_minus(on).union(back))


# ---------------------------------------------------------------------------
# end-to-end pipelines


class QuotientConstruction(Record):
    """Per-injection cover data and the generators it produced.

    Maps are dicts on the finite lane and piecewise translations on the
    integer lane; an extension met after its inverse mirrors that one's cover.
    Only the finite lane sets orbit, the partition the generators
    generate; the integer lane certifies orbit coverage on a window.
    """

    def __init__(
        self, relation: Partition | IntBlockRelation, psis: list, extended: list,
        covers: list[CoverPair], generators: list, orbit: Partition | None = None
    ):
        self._set(relation, psis, extended, covers, generators, orbit)


def _cover_each(rel, psis: list, key, extend, cover, mirror) -> QuotientConstruction:
    """The construction over rel: each psi's extension and cover, and generators.

    Equal psis extend equally and equal extensions cover equally, so each
    distinct psi (equal under key) is extended once over the queue of
    distinct psis, and each distinct extension covered once; a repeated
    psi adds nothing to a greedy extension either.  cover(g), the lane's
    cover step, gives g's cover, g^-1 and what mirror needs to cover g^-1:
    an h^-1 met after h is covered by mirror(that), with no cover step.  The
    generators are the distinct cover maps, in first-seen order.
    """
    keys = [key(psi) for psi in psis]
    distinct = dict(zip(keys, psis))
    queue = list(distinct.values())
    built, cover_of, inverses = {}, {}, {}
    generators, seen = [], set()
    known = {}  # the key of each map object: all stay held, so an id names one

    def key_of(f):
        return known[id(f)] if id(f) in known else known.setdefault(id(f), key(f))

    for k, psi in distinct.items():
        g = extend(psi, queue)
        g_key = key_of(g)
        if g_key not in cover_of:
            if g_key in inverses:  # g is the inverse of an extension covered before
                cov = mirror(inverses[g_key])
            else:
                cov, ginv, later = cover(g)
                inverses[key_of(ginv)] = later
            cover_of[g_key] = cov
            for f in (cov.first, cov.second):
                f_key = key_of(f)
                if f_key not in seen:
                    seen.add(f_key)
                    generators.append(f)
        built[k] = g, cover_of[g_key]
    extended, covers = [built[k][0] for k in keys], [built[k][1] for k in keys]
    return QuotientConstruction(rel, psis, extended, covers, generators)


def quotient_construction(enum: EnumeratedEquivalence) -> QuotientConstruction:
    """Run the full pipeline for a finite enumeration.

    The relation is the partition enumerated_partition checks the graphs
    against, once: a family that fails the checks or names a point outside
    0..n-1 raises NotAnEnumeration.  No psi is checked against the
    relation, as each lies in the graph of some phi_a, and each extension
    reads the sources 0..n-1, as no psi offers one outside them.  Nor is an
    extension, a permutation inside the classes: its cover is (g, g^-1), no
    levels built, and the certificate checks each cover map once, as a
    bijection within the relation, at certify and at verify.  The orbit is
    the partition the first maps of the distinct covers join, as each second
    map is its first's inverse; no generator is copied and no closure layers
    are built, since nothing here reads chain lengths.
    """
    n, phis = enum.n, enum.graph_dicts()
    rel = enumerated_partition(phis, n)
    qc = _cover_each(
        rel,
        psi_split(phis),
        _signature,
        lambda psi, queue: greedy_extend(psi, queue, n, sources=range(n)),
        lambda g: ((cp := CoverPair(g, invert_map(g))), cp.second, cp),
        lambda cp: CoverPair(cp.second, cp.first),
    )
    firsts = {id(cp): cp.first for cp in qc.covers}.values()
    qc.orbit = Partition.from_pairs(n, set().union(*(f.items() for f in firsts)))
    return qc


def check_maps_within_int(rel: IntBlockRelation, phis: list[PiecewiseTranslation]):
    """NotWithinRelation at the first map whose graph leaves rel: each
    integer command checks its maps here once, before anything else."""
    for i, f in enumerate(phis):
        w = rel.graph_within_witness(f)
        if w is not None:
            raise NotWithinRelation(f"graph {i} leaves the relation at {w}", witness=w)


def quotient_construction_int(
    rel: IntBlockRelation,
    phis: list[PiecewiseTranslation],
    bound: int = 32,
) -> QuotientConstruction:
    """Integer-lane pipeline for a generating family of translations.

    The family need not enumerate the relation exactly (infinite classes
    have no finite exact enumeration): each graph must stay inside it, as
    check_maps_within_int checks first.  Orbit coverage is certified on a
    probe window.  The cover step is levels_int then cover_int; the levels
    are kept, and mirrored for _mirror_cover_int only when an inverse turns up.
    """
    check_maps_within_int(rel, phis)

    def cover(g):
        levels = levels_int(g, rel, bound)
        cp = cover_int(levels)
        return cp, levels.ginv, (levels, cp)

    return _cover_each(
        rel,
        psi_split_int(phis),
        lambda f: f,
        lambda psi, queue: greedy_extend_int(psi, queue, rel.ambient),
        cover,
        lambda later: _mirror_cover_int(_mirror_levels(later[0]), later[1]),
    )


def orbit_window_witness(
    rel: IntBlockRelation,
    generators: list[PiecewiseTranslation],
    window: int = ORBIT_WINDOW,
):
    """None when generators connect every related window pair, else a pair.

    Breadth-first search over generator moves (both directions), allowed
    to roam ORBIT_SLACK beyond the window.  Each move is read from a table
    of its steps inside the roaming range, built once from its pieces.
    """
    _check_probe("window", window, 0)
    lo, hi = -window - ORBIT_SLACK, window + ORBIT_SLACK
    moves = list(generators)
    for f in generators:
        try:
            moves.append(f.inverse())
        except NotInjective:
            pass
    tables = [
        {x: x + c for d, c in f.pieces for x in d.window(lo, hi) if lo <= x + c <= hi}
        for f in moves
    ]
    for b in rel.blocks:
        points = b.window(-window, window)
        if len(points) < 2:
            continue
        inside = set(b.window(lo, hi))
        start = points[0]
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for t in tables:
                    y = t.get(x)
                    if y is not None and y not in seen and y in inside:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        for x in points:
            if x not in seen:
                return (start, x)
    return None


# ---------------------------------------------------------------------------
# weak uniformization


class Uniformization(Record):
    """Least-index selection from the union of a family of graphs."""

    def __init__(self, phi: dict[int, int], index_of: dict[int, int]):
        # index_of: point -> chosen graph index
        self._set(phi, index_of)


def weak_uniformize(fns: list[dict[int, int]]) -> Uniformization:
    """Each graph, in order, takes the points of its domain no earlier graph
    took: the least-index selection from the relation the graphs make up."""
    phi = {}
    index_of = {}
    for i, f in enumerate(fns):
        for x, y in f.items():
            if x not in phi:
                phi[x] = y
                index_of[x] = i
    return Uniformization(phi, index_of)


class UniformizationInt(Record):
    def __init__(self, phi: PiecewiseTranslation, levels: list[IntSet]):
        # levels[i] holds the points selecting graph i
        self._set(phi, levels)


def weak_uniformize_int(fns: list[PiecewiseTranslation]) -> UniformizationInt:
    """The least-index selection of weak_uniformize, with IntSets of points."""
    taken = IntSet.empty()
    levels = []
    pieces = []
    for f in fns:
        fresh = f.domain().difference(taken)
        levels.append(fresh)
        pieces.extend((d.intersect(fresh), c) for d, c in f.pieces)
        taken = taken.union(fresh)
    # each graph's part lies in its fresh points, which no other part holds
    return UniformizationInt(PiecewiseTranslation._disjoint(pieces), levels)
