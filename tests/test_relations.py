"""Equivalence relations presented by generating partial maps.

The reference implementation for most checks is a naive breadth-first
closure over the undirected union graph; the library must agree with it
on every random instance.
"""

import math
import random
import time
import timeit

import pytest
from hypothesis import example, given, strategies as st

from qborel.carriers import IntBlockRelation, IntSet, PiecewiseTranslation as PT
from qborel.errors import NotAnEnumeration
from qborel.feldman_moore import quotient_construction
from qborel.record import _clear_memos
from qborel.relations import (
    _enumeration_check,
    ChainStep,
    CheckOutcome,
    EnumeratedEquivalence,
    EnumReport,
    IndexTooLarge,
    NotASelector,
    Partition,
    chain_witness,
    enumerated_partition,
    generate_equivalence,
    index2_involution,
    index_over,
    min_selector,
    selector_to_transversal,
    tail_equivalence,
    union_pairs,
    verify_enumeration,
)


def union_nbrs(n, fns):
    """Neighbours in the undirected union of the graphs, each point its own."""
    nbrs = {x: {x} for x in range(n)}
    for f in fns:
        for a, b in f.items():
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def bfs_distances(nbrs, source):
    dist, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def naive_closure(n, fns):
    nbrs = union_nbrs(n, fns)
    blocks = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp, frontier = {s}, [s]
        while frontier:
            x = frontier.pop()
            for y in nbrs[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        blocks.append(tuple(sorted(comp)))
    return Partition.from_blocks(n, blocks)


partial_maps = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1), max_size=n),
            max_size=4,
        ),
    )
)


def _shaped_maps(n):
    """Sparse partial maps, and paths and cycles through random points."""
    points = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    return st.one_of(
        st.dictionaries(
            st.integers(0, n - 1), st.integers(0, n - 1), max_size=n // 4 + 1
        ),
        points.map(lambda xs: dict(zip(xs, xs[1:]))),
        points.map(lambda xs: dict(zip(xs, xs[1:] + xs[:1]))),
    )


# several components of many shapes, up to 80 points and 5 maps
map_families = st.integers(1, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_shaped_maps(n), max_size=5))
)

partitions = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        Partition.from_class_map
    )
)


# -- closure ---------------------------------------------------------------

@given(partial_maps)
def test_generated_closure_matches_naive(nm):
    n, fns = nm
    p, layers = generate_equivalence(n, fns)
    assert p == naive_closure(n, fns)
    assert layers.partition == p


@given(partial_maps)
def test_layer_filtration_laws(nm):
    n, fns = nm
    _, layers = generate_equivalence(n, fns)
    assert layers.layers[0] == frozenset((x, x) for x in range(n))
    for a, b in zip(layers.layers, layers.layers[1:]):
        assert a < b  # strictly grows until stabilization
    assert layers.layers[-1] == layers.partition.pairs()
    assert layers.stabilization_index == len(layers.layers) - 1


@given(partial_maps)
def test_chain_witness_replays(nm):
    n, fns = nm
    p, layers = generate_equivalence(n, fns)
    rng = random.Random(n * 1000 + len(fns))
    for _ in range(10):
        x, y = rng.randrange(n), rng.randrange(n)
        steps = chain_witness(layers, x, y)
        if not p.same(x, y):
            assert steps is None
            continue
        assert steps[0].point == x and steps[-1].point == y
        here = x
        for s in steps[1:]:
            f = layers.generators[s.via]
            if s.reverse:
                assert f.get(s.point) == here
            else:
                assert f.get(here) == s.point
            here = s.point


def layered_fixpoint(n, fns):
    """Reference filtration: grow pair sets one chain step at a time."""
    nbrs = union_nbrs(n, fns)
    layers = [frozenset((x, x) for x in range(n))]
    current = set(layers[0])
    while True:
        nxt = set(current)
        for x, y in current:
            for z in nbrs[y]:
                nxt.add((x, z))
        if nxt == current:
            return layers
        layers.append(frozenset(nxt))
        current = nxt


@given(partial_maps)
def test_layers_match_layered_fixpoint(nm):
    n, fns = nm
    _, layers = generate_equivalence(n, fns)
    expected = layered_fixpoint(n, fns)
    assert layers.stabilization_index == len(expected) - 1
    assert layers.layers == expected


def test_long_successor_path():
    n = 1000
    p, layers = generate_equivalence(n, [{x: x + 1 for x in range(n - 1)}])
    assert p == Partition.from_blocks(n, [range(n)])
    assert layers.stabilization_index == n - 1
    steps = chain_witness(layers, 0, n - 1)
    assert len(steps) == n
    assert [s.point for s in steps] == list(range(n))
    assert all(s.via == 0 and not s.reverse for s in steps[1:])


def all_sources_index(n, fns):
    """Stabilization index by definition: a search from every point."""
    nbrs = union_nbrs(n, fns)
    return max((max(bfs_distances(nbrs, x).values()) for x in range(n)), default=0)


@given(map_families)
def test_stabilization_index_is_the_all_sources_maximum(nm):
    n, fns = nm
    _, layers = generate_equivalence(n, fns)
    assert layers.stabilization_index == all_sources_index(n, fns)


def _shifts(points):
    """One map per shift of the points: together a complete graph on them."""
    k = len(points)
    return [{points[i]: points[(i + s) % k] for i in range(k)} for s in range(1, k)]


@pytest.mark.parametrize("n, fns, index", [
    (12, [{x: x + 1 for x in range(11)}], 11),  # path
    (10, [{x: (x + 1) % 10 for x in range(10)}], 5),  # even cycle
    (11, [{x: (x + 1) % 11 for x in range(11)}], 5),  # odd cycle
    (9, [{x: 0 for x in range(1, 9)}], 2),  # star
    (6, _shifts(range(6)), 1),  # complete graph
    # lollipop: a complete graph on 0..4 and a path from 4 to 12
    (13, [*_shifts(range(5)), {x: x + 1 for x in range(4, 12)}], 9),
    # a cycle on 0..7, a path on 8..29 and the singleton 30; then a path
    # on 0..21 and a cycle on 22..30
    (31, [{x: (x + 1) % 8 for x in range(8)}, {x: x + 1 for x in range(8, 29)}], 21),
    (31, [{x: x + 1 for x in range(21)}, {x: 22 + (x - 21) % 9 for x in range(22, 31)}], 21),
], ids=["path", "even-cycle", "odd-cycle", "star", "complete", "lollipop",
        "cycle-then-path", "path-then-cycle"])
def test_stabilization_index_of_fixed_shapes(n, fns, index):
    _, layers = generate_equivalence(n, fns)
    assert layers.stabilization_index == index == all_sources_index(n, fns)


def test_stabilization_index_of_a_long_path_is_quick():
    # a search from every point is quadratic: seconds at this size
    n = 3000
    start = time.perf_counter()
    _, layers = generate_equivalence(n, [{x: x + 1 for x in range(n - 1)}])
    assert layers.stabilization_index == n - 1
    assert time.perf_counter() - start < 1.0


def scan_chain_witness(n, fns, x, y):
    """Reference chain: each step scans every pair of every generator."""
    nbrs = union_nbrs(n, fns)
    dist = bfs_distances(nbrs, y)
    if x not in dist:
        return None
    chain = [ChainStep(x, None)]
    while chain[-1].point != y:
        cur = chain[-1].point
        steps = []
        for j, f in enumerate(fns):
            if cur in f:
                steps.append(ChainStep(f[cur], j))
            for z in sorted(w for w, v in f.items() if v == cur):
                steps.append(ChainStep(z, j, reverse=True))
        chain.append(next(s for s in steps if dist.get(s.point) == dist[cur] - 1))
    return chain


@given(st.one_of(partial_maps, map_families))
@example((4, [{1: 0, 2: 0}, {1: 3, 2: 3}]))  # 0 -> 3 reverses f0 to 1, not 2
def test_chain_witness_matches_the_pair_scan(nm):
    # partial_maps are dense and seldom injective: points with several
    # preimages under one map exercise the least-point tie-break
    n, fns = nm
    _, layers = generate_equivalence(n, fns)
    rng = random.Random(n * 1000 + len(fns))
    pairs = [(x, y) for x in range(n) for y in range(n)] if n <= 9 else [
        (rng.randrange(n), rng.randrange(n)) for _ in range(20)
    ]
    for x, y in pairs:
        assert chain_witness(layers, x, y) == scan_chain_witness(n, fns, x, y)


def test_reverse_chain_along_a_long_path():
    # 3,000 steps back along x -> x + 1 cost about what 3,000 steps forward
    # cost: scanning every pair at each reverse step made them quadratic
    n = 3001
    _, layers = generate_equivalence(n, [{x: x + 1 for x in range(n - 1)}])
    steps = chain_witness(layers, n - 1, 0)
    assert [s.point for s in steps] == list(range(n - 1, -1, -1))
    assert all(s.via == 0 and s.reverse for s in steps[1:])
    forward, reverse = (
        min(timeit.repeat(lambda: chain_witness(layers, a, b), number=1, repeat=3))
        for a, b in ((0, n - 1), (n - 1, 0))
    )
    assert reverse < 5 * forward


def test_generate_rejects_out_of_range_graphs():
    with pytest.raises(ValueError):
        generate_equivalence(3, [{0: 5}])


@given(st.integers(1, 40))
def test_generate_empty_is_discrete(n):
    p, layers = generate_equivalence(n, [])
    assert p == Partition.discrete(n)
    assert layers.stabilization_index == 0


# -- tail relation -----------------------------------------------------------

def naive_tail(f, n):
    def orbit(x):
        seen = []
        while x not in seen:
            seen.append(x)
            x = f[x]
        return set(seen)

    pairs = [
        (x, y) for x in range(n) for y in range(n) if orbit(x) & orbit(y)
    ]
    return Partition.from_pairs(n, pairs)


@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, n - 1), min_size=n, max_size=n))))
def test_tail_matches_naive(nf):
    n, f = nf
    p, _ = tail_equivalence(f, n)
    assert p == naive_tail(f, n)


def test_tail_of_successor_map():
    # x -> x+1 with a cap: a single class
    n = 6
    f = [min(x + 1, n - 1) for x in range(n)]
    p, _ = tail_equivalence(f, n)
    assert p == Partition.from_blocks(n, [range(n)])


# -- enumerations ------------------------------------------------------------

def test_verify_enumeration_accepts_closure_generators():
    p = Partition.from_blocks(5, [(0, 1, 2), (3, 4)])
    graphs = [
        {x: x for x in range(5)},
        {0: 1, 1: 2, 2: 0, 3: 4, 4: 3},
        {1: 0, 2: 1, 0: 2},
    ]
    assert verify_enumeration(graphs, 5).ok
    e = EnumeratedEquivalence.make(5, graphs)
    assert enumerated_partition(e.graph_dicts(), 5) == p
    assert e.pairs() == p.pairs()


def test_verify_enumeration_witnesses():
    r = verify_enumeration([{0: 1}], 2)
    assert not r.reflexive.ok and r.reflexive.witness == 0
    assert not r.symmetric.ok and r.symmetric.witness == (1, 0)
    r2 = verify_enumeration(
        [{x: x for x in range(3)}, {0: 1, 1: 0}, {1: 2, 2: 1}], 3
    )
    assert r2.reflexive.ok and r2.symmetric.ok
    assert not r2.transitive.ok
    x, y, mid = r2.transitive.witness
    assert (x, y, mid) == (0, 2, 1)


@given(partitions)
def test_pair_listing_is_an_enumeration(p):
    # one singleton graph per related pair is always a valid enumeration
    graphs = [{a: b} for a, b in sorted(p.pairs())]
    assert verify_enumeration(graphs, p.n).ok


def test_enumeration_naming_points_outside_the_space():
    graphs = [{0: 0, 1: 1}, {0: 5, 5: 0}, {5: 5}]
    with pytest.raises(NotAnEnumeration) as ei:
        verify_enumeration(graphs, 2)
    assert ei.value.witness == (0, 5)
    enum = EnumeratedEquivalence.make(2, graphs)
    with pytest.raises(NotAnEnumeration):
        quotient_construction(enum)
    with pytest.raises(NotAnEnumeration) as ei:
        enumerated_partition(enum.graph_dicts(), 2)
    assert ei.value.witness == (0, 5)


def pairwise_join_report(graphs, n):
    """Reference enumeration check: join every pair with every pair."""
    union = set()
    for f in graphs:
        union.update(f.items())
    refl = CheckOutcome(True)
    for x in range(n):
        if (x, x) not in union:
            refl = CheckOutcome(False, x)
            break
    sym = CheckOutcome(True)
    for x, y in sorted(union):
        if (y, x) not in union:
            sym = CheckOutcome(False, (y, x))
            break
    trans = CheckOutcome(True)
    for x, y in sorted(union):
        for y2, z in sorted(union):
            if y2 == y and (x, z) not in union:
                trans = CheckOutcome(False, (x, z, y))
                break
        if not trans.ok:
            break
    return EnumReport(refl, sym, trans)


graph_families = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.booleans(),
        st.lists(
            st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1), max_size=n),
            max_size=5,
        ),
    )
)


@given(graph_families, partitions)
def test_enumeration_report_matches_pairwise_join(family, p):
    n, with_identity, graphs = family
    graphs = graphs + [{x: x for x in range(n)}] * with_identity
    assert verify_enumeration(graphs, n) == pairwise_join_report(graphs, n)
    # near-equivalences: a partition's pairs with some graphs dropped
    near = [{a: b} for a, b in sorted(p.pairs())][::2] + [{x: x for x in range(p.n)}]
    assert verify_enumeration(near, p.n) == pairwise_join_report(near, p.n)


def _rotations(p):
    """The graphs x -> the point k places on in x's class, for each k: an enumeration."""
    return [{x: b[(i + k) % len(b)] for b in p.blocks for i, x in enumerate(b)}
            for k in range(p.index())]


def _report(check, graphs, n):
    """What check(graphs, n) reports, with the types of its witnesses, or the error it raises."""
    try:
        return repr(check(graphs, n))
    except Exception as e:
        return type(e).__name__, str(e), repr(getattr(e, "witness", None))


# how the graphs a later check reads may differ from those a run has checked
ENUMERATION_EDITS = {
    "as checked": lambda n, graphs: (n, graphs),
    "n one more": lambda n, graphs: (n + 1, graphs),
    "n one less": lambda n, graphs: (n - 1, graphs),
    "n a float": lambda n, graphs: (float(n), graphs),
    "n a bool": lambda n, graphs: (bool(n), graphs),
    "graphs reversed": lambda n, graphs: (n, graphs[::-1]),
    "a graph dropped": lambda n, graphs: (n, graphs[1:]),
    "a pair moved": lambda n, graphs: (n, [{**g, x: (y + 1) % n} for g in graphs[:1]
                                            for x, y in list(g.items())[:1]] + graphs[1:]),
    "a pair read in another order": lambda n, graphs: (n, [dict(reversed(g.items()))
                                                           for g in graphs]),
}


@given(st.one_of(graph_families.map(lambda f: (f[0], f[2])),
                 partitions.map(lambda p: (p.n, _rotations(p)))),
       st.sampled_from(sorted(ENUMERATION_EDITS)))
# True is 1, and 5.0 is 5, to a dict: only an int n reads a kept verdict
@example((1, [{0: 0}]), "n a bool")
@example((2, [{0: 0, 1: 1}, {0: 1, 1: 0}]), "n a float")
def test_verify_enumeration_after_a_kept_verdict_gives_the_cold_report(family, edit):
    _clear_memos()
    n, graphs = family
    try:
        enumerated_partition(graphs, n)
    except NotAnEnumeration:
        pass
    n, graphs = ENUMERATION_EDITS[edit](n, graphs)
    cold = _report(lambda g, k: _enumeration_check(union_pairs(g), k)[1], graphs, n)
    assert _report(verify_enumeration, graphs, n) == cold


def test_union_pairs():
    assert union_pairs([{0: 1}, {1: 2}, {0: 1}]) == frozenset({(0, 1), (1, 2)})


# -- selectors and transversals ----------------------------------------------

@given(partitions)
def test_min_selector_laws(p):
    phi = min_selector(p)
    assert set(phi) == set(range(p.n))
    for x in range(p.n):
        assert p.same(x, phi[x])
        assert phi[phi[x]] == phi[x]
        assert phi[x] == min(p.block_of(x))


@given(partitions)
def test_selector_transversal_round_trip(p):
    phi = min_selector(p)
    t = selector_to_transversal(phi, p)
    assert len(t) == p.num_classes
    assert {x: next(y for y in p.block_of(x) if y in t) for x in range(p.n)} == phi


def test_selector_rejections():
    p = Partition.from_blocks(6, [(0, 1, 2), (3, 4, 5)])
    # value escapes the class
    with pytest.raises(NotASelector):
        selector_to_transversal({0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 0}, p)
    # two values inside one class
    with pytest.raises(NotASelector) as ei:
        selector_to_transversal({0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 4}, p)
    assert ei.value.witness == (3, 5)
    # not total
    with pytest.raises(NotASelector):
        selector_to_transversal({0: 0}, p)


def test_selector_value_outside_the_space():
    p = Partition.from_blocks(3, [(0, 1), (2,)])
    with pytest.raises(NotASelector) as ei:
        selector_to_transversal({0: 0, 1: 7, 2: 2}, p)
    assert ei.value.witness == (1, 7)


# -- index two -------------------------------------------------------------

@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.sampled_from([1, 2]), min_size=1, max_size=n)))
def test_index2_involution_on_small_blocks(sizes):
    blocks, at = [], 0
    for s in sizes:
        blocks.append(tuple(range(at, at + s)))
        at += s
    p = Partition.from_blocks(at, blocks)
    f = index2_involution(p)
    assert set(f) == set(range(at))
    for x in range(at):
        assert f[f[x]] == x and p.same(x, f[x])
    q, _ = generate_equivalence(at, [f])
    assert q == p


def test_index2_rejects_wide_blocks():
    with pytest.raises(IndexTooLarge) as ei:
        index2_involution(Partition.from_blocks(3, [(0, 1, 2)]))
    assert ei.value.witness == (0, 1, 2)


@given(partitions)
def test_single_involution_classes_have_size_le_2(p):
    if p.index() > 2:
        with pytest.raises(IndexTooLarge):
            index2_involution(p)
        return
    f = index2_involution(p)
    assert all(f[f[x]] == x and p.same(x, f[x]) for x in range(p.n))
    assert generate_equivalence(p.n, [f])[0] == p


# -- index ---------------------------------------------------------------------

@given(partitions)
def test_index_over_partition(p):
    assert index_over(p) == max(len(b) for b in p.blocks)


def test_index_over_int_blocks():
    r = IntBlockRelation.make(
        [IntSet.ray_down(-1), IntSet.ray_up(0)], ambient=IntSet.all_integers()
    )
    assert index_over(r) == math.inf
    r2 = IntBlockRelation.make(
        [IntSet.segment(0, 2), IntSet.all_integers().difference(IntSet.segment(0, 2))],
        ambient=IntSet.all_integers(),
    )
    assert index_over(r2) == math.inf
    r3 = IntBlockRelation.make(
        [IntSet.segment(0, 4)], ambient=IntSet.segment(0, 4)
    )
    assert index_over(r3) == 5


# -- integer-lane relations ------------------------------------------------------

def test_int_block_relation_queries():
    r = IntBlockRelation.make(
        [IntSet.ray_down(-1), IntSet.ray_up(0)], ambient=IntSet.all_integers()
    )
    g_in = PT.translation(IntSet.ray_up(0), 1)
    assert r.graph_within_witness(g_in) is None
    g_out = PT.translation(IntSet.of(-1), 1)
    assert r.graph_within_witness(g_out) == (-1, 0)
