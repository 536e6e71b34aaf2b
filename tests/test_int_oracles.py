"""The integer lane's sweeps against the pairwise searches they replaced.

Each reference below is the direct form of an integer-lane check: every
pair of domains, of parts, of images or of blocks intersected in turn,
every block read for every piece of a map, every window point probed
through `PiecewiseTranslation.get`, a greedy extension that recomputes
its free points from the whole map at each step, and a weak
uniformization that reads each graph's points off the relation's
per-offset sets.  The library must give the same results, raise the
same errors with the same messages and witnesses, on random sets with
strides 1-6 and gaps up to 10^3, overlapping or not.
"""

from hypothesis import example, given, strategies as st

from qborel.carriers import (
    IntSet,
    Piece,
    PiecewiseTranslation,
    _meets,
    _zero_order,
    offset_sets,
    parse_ptmap,
)
from qborel.errors import InvalidPartition, NotInjective, NotWithinRelation, clip
from qborel.feldman_moore import (
    ORBIT_SLACK,
    greedy_extend_int,
    levels_int,
    orbit_window_witness,
    psi_split_int,
    weak_uniformize_int,
)
from qborel.relations import IntBlockRelation

# ---------------------------------------------------------------------------
# references


def ref_ptmap(pairs):
    f = object.__new__(PiecewiseTranslation)
    f._merge(pairs)
    doms = [d for d, _ in f.pieces]
    for i in range(len(doms)):
        for j in range(i + 1, len(doms)):
            both = doms[i].intersect(doms[j])
            if not both.is_empty():
                x = both.closest_to_zero()
                raise ValueError(f"overlapping domains at {clip(str(x))}")
    return f


def ref_union(*parts):
    doms = [f.domain() for f in parts]
    for j in range(1, len(doms)):
        hits = [doms[i].intersect(doms[j]) for i in range(j)]
        hits = [h.closest_to_zero() for h in hits if not h.is_empty()]
        if hits:
            x = min(hits, key=_zero_order)
            raise ValueError(f"domains overlap at {clip(str(x))}")
    out = object.__new__(PiecewiseTranslation)
    out._merge(pc for f in parts for pc in f.pieces)
    return out


def ref_injectivity_witness(f):
    ps = f.pieces
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            (d1, c1), (d2, c2) = ps[i], ps[j]
            both = d1.translate(c1).intersect(d2.translate(c2))
            if not both.is_empty():
                y = both.closest_to_zero()
                return (y - c1, y - c2, y)
    return None


def ref_make(blocks, ambient=None):
    amb = ambient if ambient is not None else IntSet.all_integers()
    bs = [b for b in blocks if not b.is_empty()]
    for i in range(len(bs)):
        if not bs[i].is_subset(amb):
            raise InvalidPartition(f"block {i} leaves the ambient set")
        for j in range(i + 1, len(bs)):
            both = bs[i].intersect(bs[j])
            if not both.is_empty():
                raise InvalidPartition(
                    f"blocks {i} and {j} overlap", witness=both.closest_to_zero()
                )
    bs.sort(key=lambda b: _zero_order(b.closest_to_zero()))
    return IntBlockRelation(tuple(bs), amb)


def ref_graph_within_witness(rel, f):
    for d, c in f.pieces:
        if c == 0:
            stray = d.difference(rel.ambient)
            if not stray.is_empty():
                x = stray.closest_to_zero()
                return (x, x)
            continue
        allowed = IntSet.empty().union(*(b.intersect(b.translate(-c)) for b in rel.blocks))
        stray = d.difference(allowed)
        if not stray.is_empty():
            x = stray.closest_to_zero()
            return (x, x + c)
    return None


def ref_orbit_window_witness(rel, generators, window=64):
    lo, hi = -window - ORBIT_SLACK, window + ORBIT_SLACK
    moves = list(generators) + [f.inverse() for f in generators if f.is_injective()]
    for b in rel.blocks:
        points = b.window(-window, window)
        if len(points) < 2:
            continue
        start = points[0]
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for f in moves:
                    y = f.get(x)
                    if y is not None and lo <= y <= hi and y not in seen and y in b:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        for x in points:
            if x not in seen:
                return (start, x)
    return None


def ref_greedy_extend_int(g0, psis, ambient, rel=None):
    w = g0.injectivity_witness()
    if w is not None:
        raise NotInjective(f"seed maps {w[0]} and {w[1]} to {w[2]}", witness=w)
    if rel is not None:
        w = rel.graph_within_witness(g0)
        if w is not None:
            raise NotWithinRelation(f"seed pair {w} leaves the relation", witness=w)
    g = g0
    for psi in [PiecewiseTranslation.identity(ambient)] + list(psis):
        if rel is not None:
            w = rel.graph_within_witness(psi)
            if w is not None:
                raise NotWithinRelation(f"psi pair {w} leaves the relation", witness=w)
        fresh = psi.restrict(ambient.difference(g.domain()))
        fresh = fresh.corestrict(ambient.difference(g.range_set()))
        if not fresh.is_empty():
            g = PiecewiseTranslation._disjoint(g.pieces + fresh.pieces)
    return g


def ref_weak_uniformize_int(rel_graphs, fns):
    rel_offsets = offset_sets(pc for r in rel_graphs for pc in r.pieces)
    fn_offsets = offset_sets(pc for f in fns for pc in f.pieces)
    for c, d in sorted(rel_offsets.items()):
        left = d.difference(fn_offsets.get(c, IntSet.empty()))
        if not left.is_empty():
            x = left.closest_to_zero()
            raise AssertionError(f"pair ({x}, {x + c}) not on any graph")
    taken = IntSet.empty()
    levels = []
    pieces = []
    for f in fns:
        hit = IntSet.empty().union(
            *(d.intersect(rel_offsets.get(c, IntSet.empty())) for d, c in f.pieces)
        )
        fresh = hit.difference(taken)
        levels.append(fresh)
        pieces.extend((d.intersect(fresh), c) for d, c in f.pieces)
        taken = taken.union(fresh)
    return PiecewiseTranslation(pieces), levels


def outcome(fn, *args):
    """The result of a call, or its error's type, message and witness."""
    try:
        return ("ok", fn(*args))
    except Exception as e:  # the kind of error is part of what is compared
        return (type(e).__name__, str(e), getattr(e, "witness", None))


# ---------------------------------------------------------------------------
# strategies: near pieces meet often, far ones (gaps up to 10^3) rarely


pieces = st.builds(
    lambda a, d, n, down: Piece(a, d, n or None, down and not n),
    st.one_of(st.integers(-30, 30), st.integers(-1000, 1000)),
    st.integers(1, 6),
    st.integers(0, 9),
    st.booleans(),
)
sets = st.lists(pieces, max_size=3).map(IntSet)
offsets = st.integers(-12, 12)
raw_maps = st.lists(st.tuples(sets, offsets), max_size=5)


@st.composite
def ptmaps(draw, max_parts=4):
    """Maps whose domains are the drawn sets minus the ones before them."""
    taken, parts = IntSet.empty(), []
    for s, c in draw(st.lists(st.tuples(sets, offsets), max_size=max_parts)):
        parts.append((s.difference(taken), c))
        taken = taken.union(s)
    return PiecewiseTranslation(parts)


@st.composite
def relations(draw):
    """Disjoint blocks inside an ambient set that holds them all."""
    blocks, taken = [], IntSet.empty()
    for s in draw(st.lists(sets, max_size=5)):
        blocks.append(s.difference(taken))
        taken = taken.union(s)
    ambient = draw(st.one_of(st.none(), sets.map(taken.union)))
    return IntBlockRelation.make(blocks, ambient)


@st.composite
def relations_and_moves(draw):
    """A relation, shifts that stay inside its blocks, and random maps."""
    rel = draw(relations())
    inside = [
        PiecewiseTranslation.translation(
            IntSet.empty().union(*(b.intersect(b.translate(-c)) for b in rel.blocks)), c
        )
        for c in draw(st.lists(st.integers(1, 6), max_size=3))
    ]
    return rel, inside + draw(st.lists(ptmaps(), max_size=2))


# ---------------------------------------------------------------------------
# properties


@given(st.lists(sets, max_size=4), st.lists(sets, max_size=4))
@example([IntSet.segment(0, 5)], [IntSet.segment(5, 9)])  # the spans share only 5
def test_meets_finds_exactly_the_meeting_pairs(family, probes):
    want = {
        (i, j)
        for i, a in enumerate(family)
        for j, b in enumerate(probes)
        if not a.intersect(b).is_empty()
    }
    assert set(_meets(family, probes)) == want
    # one list: the unordered pairs of distinct members that meet
    want = {
        frozenset((i, j))
        for i, a in enumerate(family)
        for j, b in enumerate(family[:i])
        if not a.intersect(b).is_empty()
    }
    assert {frozenset(pair) for pair in _meets(family)} == want


@given(raw_maps)
@example([(IntSet.segment(0, 5), 1), (IntSet.ray_up(3, 2), 2), (IntSet.of(-4, 4), 3)])
def test_ptmap_overlap_matches_the_pairwise_search(pairs):
    got = outcome(PiecewiseTranslation, pairs)
    want = outcome(ref_ptmap, pairs)
    if got[0] == "ok" and want[0] == "ok":
        assert got[1].pieces == want[1].pieces
    else:
        assert got == want


@given(st.lists(ptmaps(max_parts=2), min_size=1, max_size=4))
@example([parse_ptmap("0..9 -> +1"), parse_ptmap("20.. -> +2"), parse_ptmap("..-5; 5 -> -1")])
# the last part meets both earlier ones: the point nearest 0 is met second
@example([parse_ptmap("-8 -> +1"), parse_ptmap("3 -> +1"), parse_ptmap("-8..10 -> +2")])
def test_union_overlap_matches_the_pairwise_search(parts):
    got = outcome(parts[0].union, *parts[1:])
    want = outcome(ref_union, *parts)
    if got[0] == "ok" and want[0] == "ok":
        assert got[1].pieces == want[1].pieces
    else:
        assert got == want


@given(ptmaps())
@example(parse_ptmap("0..9 -> +1 | 20..29 -> -9 | 40:+3*inf -> -30"))
def test_injectivity_witness_matches_the_pairwise_search(f):
    w = ref_injectivity_witness(f)
    assert f.injectivity_witness() == w
    if w is not None:
        message = f"{w[0]} and {w[1]} both map to {w[2]}"
        assert outcome(f.inverse) == ("NotInjective", message, w)
        # the level search refuses it with the same witness, before any other check
        assert outcome(levels_int, f, IntBlockRelation.make([])) == ("NotInjective", message, w)


@given(st.lists(sets, max_size=5), st.one_of(st.none(), sets))
@example([IntSet.segment(0, 9), IntSet.of(20), IntSet.segment(9, 12)], IntSet.segment(0, 12))
@example([IntSet.segment(0, 9), IntSet.of(20), IntSet.segment(9, 12)], None)
def test_block_relation_make_matches_the_pairwise_search(blocks, ambient):
    assert outcome(IntBlockRelation.make, blocks, ambient) == outcome(ref_make, blocks, ambient)


@given(relations_and_moves())
@example((  # one piece of the move meets both blocks
    IntBlockRelation.make([IntSet.segment(0, 4), IntSet.segment(10, 14)]),
    [parse_ptmap("0..3; 10..13 -> +1")],
))
def test_graph_within_witness_reads_every_block_it_needs(rel_moves):
    rel, maps = rel_moves
    for f in maps:
        assert rel.graph_within_witness(f) == ref_graph_within_witness(rel, f)


@given(relations_and_moves(), st.integers(0, 40))
@example(
    (
        IntBlockRelation.make([IntSet.segment(-3, 40), IntSet.ray_up(50, 2)]),
        [parse_ptmap("-3..39 -> +1"), parse_ptmap("50:+2*inf -> +2")],
    ),
    20,
)
@example(
    # 4 reaches 5 only through 10, past the window but inside the slack
    (
        IntBlockRelation.make([IntSet.segment(0, 10)]),
        [parse_ptmap("0..3 -> +1"), parse_ptmap("4 -> +6"), parse_ptmap("10 -> -5")],
    ),
    5,
)
def test_orbit_window_tables_match_point_probing(rel_moves, window):
    rel, generators = rel_moves
    assert orbit_window_witness(rel, generators, window) == ref_orbit_window_witness(
        rel, generators, window
    )


@st.composite
def greedy_cases(draw):
    """A seed, psis and an ambient set; moves inside the relation or random maps."""
    rel, moves = draw(relations_and_moves())
    pick = st.sampled_from(moves) | ptmaps(max_parts=2) if moves else ptmaps(max_parts=2)
    ambient = draw(st.just(rel.ambient) | sets)
    return draw(pick), draw(st.lists(pick, max_size=5)), ambient, rel


ONE_BLOCK = IntBlockRelation.make([IntSet.all_integers()])
UNIT_STEPS = psi_split_int(
    [parse_ptmap("..-1; 0.. -> +0"), parse_ptmap("..-1; 0.. -> +1"), parse_ptmap("..-1; 0.. -> -1")]
)


@given(greedy_cases(), st.booleans())
@example((parse_ptmap("0.. -> +1"), UNIT_STEPS, IntSet.all_integers(), ONE_BLOCK), True)
@example((parse_ptmap("0.. -> +1"), UNIT_STEPS, IntSet.ray_up(-5), ONE_BLOCK), False)
# the identity pass takes 2 -> 2, so 1 -> 2 finds its target used
@example(
    (parse_ptmap("0 -> +1"), [parse_ptmap("1 -> +1")], IntSet.segment(0, 2), ONE_BLOCK), False
)
def test_greedy_extend_int_matches_the_recomputing_loop(case, with_rel):
    g0, psis, ambient, rel = case
    args = (g0, psis, ambient, rel if with_rel else None)
    got, want = outcome(greedy_extend_int, *args), outcome(ref_greedy_extend_int, *args)
    if got[0] == "ok" and want[0] == "ok":
        assert got[1].pieces == want[1].pieces
    else:
        assert got == want


@st.composite
def map_families(draw):
    """Maps whose domains overlap, with empty maps and repeated maps, all
    moved by the same shift: none, or 10^12 either way."""
    fns = draw(st.lists(ptmaps(max_parts=3) | st.just(PiecewiseTranslation.empty()), max_size=4))
    if fns:
        fns += draw(st.lists(st.sampled_from(fns), max_size=2))
    t = draw(st.sampled_from([0, 10**12, -(10**12)]))
    return [PiecewiseTranslation([(d.translate(t), c) for d, c in f.pieces])
            for f in draw(st.permutations(fns))]


@given(map_families())
@example([parse_ptmap("0.. -> +1 | ..-5 -> +2"), parse_ptmap("..5 -> -1"),
          parse_ptmap("3:+2*inf -> +0 | -7 -> +0")])
def test_weak_uniformize_int_is_the_least_index_selection_from_the_union(fns):
    u = weak_uniformize_int(fns)
    phi, levels = ref_weak_uniformize_int(fns, fns)
    assert u.phi.pieces == phi.pieces
    assert u.levels == levels
