"""The finite lane's fast paths against the plain searches they replaced.

Each reference below is the direct form of a finite-lane step: a sorted
scan of every pair for greedy extension, union-find for the partition of
a pair list, one comprehension per (a, b) for the psi split, a subset
test per related pair for the enumeration laws (with union-find over
their union for the relation they give), a per-point walk through
the enumeration graphs for the classical involutions, a search of the
graphs for the first one through each related pair for the weak
uniformization, a map's sorted pairs for its signature and for the
pairs a certificate writes, and an ordered
search for each witness.  The library
must give the same results, raise the same errors with the same
witnesses, and build its dicts in the same order,
on random partial maps that need not be injective, need not stay in
range and need not form an enumeration.
"""

import pathlib
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qborel.cli.certificates import CHECKERS, _blocks_partition, _pairs_to_map
from qborel.cli.commands import _graph_pairs
from qborel.cli.main import main
from qborel.errors import (
    InvalidPartition,
    NotAnEnumeration,
    NotInjective,
    NotWithinRelation,
    QBorelError,
)
from qborel.feldman_moore import (
    _signature,
    classical_construction,
    graph_within_partition,
    greedy_extend,
    injectivity_witness,
    invert_map,
    lusin_novikov_decompose,
    maximality_witness,
    psi_split,
    quotient_construction,
    weak_uniformize,
)
from qborel.quotient import Partition
from qborel.relations import (
    CheckOutcome,
    EnumeratedEquivalence,
    EnumReport,
    enumerated_partition,
    union_pairs,
    verify_enumeration,
)

# ---------------------------------------------------------------------------
# references


def ref_injectivity_witness(f):
    seen = {}
    for x in sorted(f):
        y = f[x]
        if y in seen:
            return (seen[y], x, y)
        seen[y] = x
    return None


def ref_graph_within_partition(f, rel):
    for x in sorted(f):
        y = f[x]
        if not (0 <= x < rel.n and 0 <= y < rel.n and rel.same(x, y)):
            return (x, y)
    return None


def ref_maximality_witness(g, rel):
    rng = set(g.values())
    for block in rel.blocks:
        for y in block:
            if y in g:
                continue
            for z in block:
                if z not in rng:
                    return (y, z)
    return None


def ref_invert_map(f):
    inv = {}
    for x, y in f.items():
        if y in inv:
            raise NotInjective(f"{inv[y]} and {x} both map to {y}", witness=(inv[y], x, y))
        inv[y] = x
    return inv


def ref_greedy_extend(g0, psis, n, rel=None):
    w = ref_injectivity_witness(g0)
    if w is not None:
        raise NotInjective(f"seed maps {w[0]} and {w[1]} to {w[2]}", witness=w)
    if rel is not None:
        w = ref_graph_within_partition(g0, rel)
        if w is not None:
            raise NotWithinRelation(f"seed pair {w} leaves the relation", witness=w)
    queue = [{x: x for x in range(n)}] + list(psis)
    g = dict(g0)
    rng = set(g.values())
    for psi in queue:
        for x in sorted(psi):
            y = psi[x]
            if x not in g and y not in rng:
                g[x] = y
                rng.add(y)
    return g


def ref_from_pairs(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidPartition(f"pair ({a}, {b}) outside 0..{n - 1}", witness=(a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return Partition.from_class_map([find(x) for x in range(n)])


def ref_verify_enumeration(graphs, n):
    union = union_pairs(graphs)
    pairs = sorted(union)
    refl = CheckOutcome(True)
    for x in range(n):
        if (x, x) not in union:
            refl = CheckOutcome(False, x)
            break
    sym = CheckOutcome(True)
    rows = {}
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise NotAnEnumeration(f"graph pair ({x}, {y}) outside 0..{n - 1}", witness=(x, y))
        if sym.ok and (y, x) not in union:
            sym = CheckOutcome(False, (y, x))
        rows.setdefault(x, set()).add(y)
    trans = CheckOutcome(True)
    for x, y in pairs:
        onward = rows.get(y, frozenset())
        if not onward <= rows[x]:
            trans = CheckOutcome(False, (x, min(onward - rows[x]), y))
            break
    return EnumReport(refl, sym, trans)


def ref_psi_split(phis):
    return [
        {x: y for x, y in fa.items() if fb.get(y) == x} for fa in phis for fb in phis
    ]


def ref_classical_construction(rel):
    """Involutions, generators and bit count, read point by point off the graphs."""
    n = rel.n
    enumeration = lusin_novikov_decompose(rel.pairs()).graphs
    bit_count = (n - 1).bit_length() if n >= 2 else 0

    def bit(x, p):
        return (x >> p) & 1 == 1

    involutions = {}
    k = len(enumeration)
    for m in range(k):
        fm = enumeration[m]
        for nn in range(k):
            fn = enumeration[nn]
            for p in range(bit_count):
                table = {}
                for x in range(n):
                    y = fm.get(x)
                    if bit(x, p) and y is not None and not bit(y, p) and fn.get(y) == x:
                        table[x] = y
                        continue
                    z = fn.get(x)
                    if not bit(x, p) and z is not None and bit(z, p) and fm.get(z) == x:
                        table[x] = z
                        continue
                    table[x] = x
                involutions[(m, nn, p)] = table
    seen = set()
    generators = []
    ident = {x: x for x in range(n)}
    for key in sorted(involutions):
        f = involutions[key]
        sig = tuple(sorted(f.items()))
        if f != ident and sig not in seen:
            seen.add(sig)
            generators.append(f)
    return involutions, generators, bit_count


def ref_bijection_family_within(data):
    rel = Partition.from_blocks(data["n"], data["blocks"])
    n = data["n"]
    for i, g in enumerate(data["maps"]):
        f = {int(x): int(y) for x, y in g}
        if sorted(f) != list(range(n)) or sorted(f.values()) != list(range(n)):
            return False, {"map": i, "law": "bijection"}
        for x, y in f.items():
            if not rel.same(x, y):
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


def ref_converted_bijection_family_within(data):
    """The bijection_family_within checker before its passing-map path: each
    stored map converted by _pairs_to_map, then judged."""
    label = _blocks_partition(data["n"], data["blocks"]).class_of
    points = set(range(data["n"]))
    for i, g in enumerate(data["maps"]):
        f = _pairs_to_map(g)
        if f.keys() != points or set(f.values()) != points:
            return False, {"map": i, "law": "bijection"}
        for x, y in f.items():
            if label[x] != label[y]:
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


def ref_involution_family_within(data):
    rel = Partition.from_blocks(data["n"], data["blocks"])
    for i, g in enumerate(data["maps"]):
        f = {int(x): int(y) for x, y in g}
        for x, y in f.items():
            if f.get(y) != x:
                return False, {"map": i, "pair": (x, y), "law": "involution"}
            if not (0 <= x < rel.n and 0 <= y < rel.n and rel.same(x, y)):
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


def ref_weak_uniformize(rel_pairs, fns):
    rel = frozenset((int(a), int(b)) for a, b in rel_pairs)
    for a, b in sorted(rel):
        if not any(f.get(a) == b for f in fns):
            raise AssertionError(f"pair ({a}, {b}) not on any graph")
    phi = {}
    index_of = {}
    for a in {a for a, _ in rel}:
        for i, f in enumerate(fns):
            y = f.get(a)
            if y is not None and (a, y) in rel:
                phi[a] = y
                index_of[a] = i
                break
    return phi, index_of


def outcome(fn, *args):
    """What a call gives: its value, or the error's kind, message and witness."""
    try:
        return "value", fn(*args)
    except QBorelError as e:
        return type(e).__name__, str(e), e.witness


def ordered(value):
    """A dict with its insertion order; lists of dicts likewise."""
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, list):
        return [ordered(v) for v in value]
    return value


def same_outcome(got, want):
    assert got[0] == want[0]
    if got[0] == "value":
        assert ordered(got[1]) == ordered(want[1])
    else:
        assert got[1:] == want[1:]


# ---------------------------------------------------------------------------
# strategies: points run two past either end of 0..n-1


def partial_maps(n):
    points = st.integers(-2, n + 1)
    return st.dictionaries(points, points, max_size=n + 3)


def partitions_of(n):
    return st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        Partition.from_class_map
    )


@st.composite
def within(draw, rel):
    """A partial injection inside the classes of rel."""
    f = {}
    for block in rel.blocks:
        k = draw(st.integers(0, len(block)))
        sources = draw(st.permutations(block))[:k]
        targets = draw(st.permutations(block))[:k]
        f.update(zip(sources, targets))
    return f


sizes = st.integers(0, 7)


@st.composite
def enumerations(draw):
    """Cyclic shifts of every class, maybe with extra in-class maps,
    sometimes with one pair dropped or one stray pair added."""
    n = draw(st.integers(1, 7))
    rel = draw(partitions_of(n))
    k = max(len(b) for b in rel.blocks)
    graphs = [
        {b[a]: b[(a + j) % len(b)] for b in rel.blocks for a in range(len(b))}
        for j in range(k)
    ]
    graphs += draw(st.lists(within(rel), max_size=2))
    damage = draw(st.sampled_from(["none", "drop", "add"]))
    if damage == "drop":
        i = draw(st.integers(0, len(graphs) - 1))
        if graphs[i]:
            x = draw(st.sampled_from(sorted(graphs[i])))
            graphs[i] = {a: b for a, b in graphs[i].items() if a != x}
    elif damage == "add":
        x, y = draw(st.integers(-1, n)), draw(st.integers(-1, n))
        graphs.append({x: y})
    return n, graphs


@st.composite
def random_families(draw):
    n = draw(sizes)
    return n, draw(st.lists(partial_maps(n), max_size=4))


families = enumerations() | random_families()


# ---------------------------------------------------------------------------
# properties


@st.composite
def maps_and_partitions(draw):
    """A partial map, often inside the relation but for one moved pair."""
    n = draw(sizes)
    rel = draw(partitions_of(n))
    f = draw(partial_maps(n) | within(rel))
    if f and draw(st.booleans()):
        f[draw(st.sampled_from(sorted(f)))] = draw(st.integers(-2, n + 1))
    return f, rel


@given(maps_and_partitions())
@example(({0: 3}, Partition.discrete(3)))                 # a target past the points
@example(({0: -1}, Partition.from_class_map([0, 1, 0])))  # -1 would index the end
@example(({-1: 0}, Partition.from_class_map([0, 1, 0])))
@example(({0: 0, 5: 5}, Partition.from_class_map([0, 0])))  # n pairs, not on 0..n-1
def test_witness_searches_match(args):
    f, rel = args
    assert injectivity_witness(f) == ref_injectivity_witness(f)
    assert graph_within_partition(f, rel) == ref_graph_within_partition(f, rel)
    assert maximality_witness(f, rel) == ref_maximality_witness(f, rel)
    same_outcome(outcome(invert_map, f), outcome(ref_invert_map, f))


@st.composite
def total_maps(draw, n):
    """A map total on 0..n-1, its pairs inserted in shuffled order."""
    images = draw(st.lists(st.integers(-2, n + 1), min_size=n, max_size=n))
    return {x: images[x] for x in draw(st.permutations(range(n)))}


@st.composite
def map_pairs(draw):
    """Two maps, or one map and its pairs inserted in another order."""
    n = draw(sizes)
    maps = partial_maps(n) | total_maps(n)
    f = draw(maps)
    g = dict(draw(st.permutations(list(f.items())))) if draw(st.booleans()) else draw(maps)
    return f, g


@given(map_pairs())
@example(({0: 1}, {1: 1}))                  # one image from two sources
@example(({0: 0, 1: 1}, {1: 1, 0: 0}))      # one total map, two insertion orders
@example(({0: 0, 1: 1}, {0: 0, 1: 1, 3: 3}))
def test_signature_tells_maps_apart_exactly_when_they_differ(args):
    f, g = args
    assert (_signature(f) == _signature(g)) == (sorted(f.items()) == sorted(g.items()))


# the successor path on 0..88 with a gap at 80, as the closure workloads generate
GAPPED = {x: x + 1 for x in range(88) if x != 80}


@given(sizes.flatmap(lambda n: partial_maps(n) | total_maps(n)))
@example({1: 0, 0: 1})          # total, filled in image order
@example({2: 0, 0: 2, 3: 3, 1: 1})  # total, filled in shuffled order
@example({0: 0, 2: 2})          # two pairs, one missing point
@example({1: 1})
@example({-1: 0, 1: 1})         # a point below 0 and a gap, but none at len(f)
@example({})
@example(GAPPED)
def test_graph_pairs_are_the_sorted_pairs(f):
    assert _graph_pairs(f) == sorted(f.items())


class ReadCounted(dict):
    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


def test_graph_pairs_reads_a_gapped_map_at_no_point():
    # a successor path with a gap at 80 holds the point len(f) = 87: it is
    # sorted at once, not read up to its gap first
    f = ReadCounted(GAPPED)
    assert _graph_pairs(f) == sorted(GAPPED.items()) and f.reads == 0


@st.composite
def greedy_cases(draw):
    n = draw(sizes)
    m = draw(st.sampled_from([n, n + 1, max(n - 1, 0)]))
    rel = draw(st.none() | partitions_of(m))
    if rel is not None and draw(st.booleans()):
        maps = within(rel)
    else:
        maps = partial_maps(n)
    return draw(maps), draw(st.lists(maps, max_size=5)), n, rel


@given(greedy_cases())
def test_greedy_extend_matches_sorted_scan(case):
    same_outcome(outcome(greedy_extend, *case), outcome(ref_greedy_extend, *case))


def test_greedy_extend_reads_sources_outside_the_points_without_a_relation():
    # 5 is no point of 0..2, but psi offers it as a source and nothing checks it
    g0, psis = {0: 1}, [{5: 0, 1: 2}, {2: 5}]
    assert greedy_extend(g0, psis, 3) == ref_greedy_extend(g0, psis, 3) == {
        0: 1, 2: 2, 5: 0
    }


@given(sizes.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12)
)))
def test_from_pairs_matches_union_find(args):
    n, pairs = args
    got, want = outcome(Partition.from_pairs, n, pairs), outcome(ref_from_pairs, n, pairs)
    same_outcome(got, want)
    if got[0] == "value":
        assert got[1].class_of == want[1].class_of


@given(families)
def test_verify_enumeration_matches_pairwise_subsets(family):
    n, graphs = family
    same_outcome(
        outcome(verify_enumeration, graphs, n), outcome(ref_verify_enumeration, graphs, n)
    )


@given(families)
def test_psi_split_matches_comprehensions(family):
    # the family is split as given, whether or not it enumerates a relation
    same_outcome(outcome(psi_split, family[1]), outcome(ref_psi_split, family[1]))


PATH_0_1_2 = [{0: 0, 1: 1, 2: 2}, {0: 1, 1: 2}, {1: 0, 2: 1}]


@given(families)
@example((0, []))
@example((10**12, [{0: 1, 1: 0}]))         # a stored n far above the points listed
@example((2, [{0: 0, 1: 1}, {1: 2}]))      # a pair outside 0..n-1
@example((3, PATH_0_1_2))                  # 7 pairs in one class of 3 points: 9 cells
def test_enumerated_partition_is_the_union_find_partition(family):
    # the union's classes count out its pairs exactly when the laws hold
    n, graphs = family
    tracemalloc.start()
    start = time.perf_counter()
    got = outcome(enumerated_partition, graphs, n)
    took = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert took < 0.01 and peak < 1 << 20  # no list of n cells
    want = outcome(ref_verify_enumeration, graphs, n)
    if want[0] != "value":
        assert got == want
    elif want[1].ok:
        assert got == ("value", Partition.from_pairs(n, union_pairs(graphs)))
    else:
        assert got == ("NotAnEnumeration", "graphs fail the closure checks", want[1])


@st.composite
def classical_partitions(draw):
    """Up to 60 points, shuffled into classes of 1 to 12."""
    n = draw(st.integers(0, 60))
    points = draw(st.permutations(range(n)))
    blocks, start = [], 0
    while start < n:
        size = draw(st.integers(1, 12))
        blocks.append(points[start:start + size])
        start += size
    return Partition.from_blocks(n, blocks)


@settings(max_examples=500)
@given(classical_partitions())
# B[0] = 1 and B[1] = 2 differ in both bits, so (0, 1, 1) and (1, 0, 0) swap them alike
@example(Partition.from_blocks(3, [(0,), (1, 2)]))
def test_classical_construction_matches_per_point_walk(rel):
    r = classical_construction(rel)
    involutions, generators, bit_count = ref_classical_construction(rel)
    assert list(r.involutions.items()) == list(involutions.items())
    assert r.generators == generators
    assert r.bit_count == bit_count


@given(classical_partitions())
def test_classical_involution_swaps_two_members_per_class(rel):
    r = classical_construction(rel)
    for (m, nn, _), f in r.involutions.items():
        for b in rel.blocks:
            moved = {x for x in b if f[x] != x}
            assert moved <= ({b[m], b[nn]} if len(b) > max(m, nn) else set())


@st.composite
def bijection_families(draw):
    n = draw(st.integers(1, 7))
    rel = draw(partitions_of(n))
    inside = st.tuples(*(st.permutations(b) for b in rel.blocks)).map(
        lambda images: [
            [x, y] for b, im in zip(rel.blocks, images) for x, y in zip(b, im)
        ]
    )
    anywhere = st.permutations(range(n)).map(lambda p: [[x, y] for x, y in enumerate(p)])
    broken = st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)).map(list), max_size=n + 1)
    maps = draw(st.lists(inside | anywhere | broken, max_size=4))
    return {"n": n, "blocks": [list(b) for b in rel.blocks], "maps": maps}


@given(bijection_families())
def test_bijection_family_checker_matches_ordered_search(data):
    assert CHECKERS["bijection_family_within"](data) == ref_bijection_family_within(data)


@st.composite
def families_with_strays(draw):
    """Maps on n points: involutions and permutations, inside the classes or
    anywhere, some completed by fixed points to a bijection of 0..n-1, and
    partial maps; pairs may hold points below 0 or at or above n."""
    n = draw(st.integers(1, 7))
    rel = draw(partitions_of(n))

    def involution(pairs):
        f = {}
        for x, y in pairs:
            if x not in f and y not in f:
                f[x], f[y] = y, x
        return f

    in_class = st.sampled_from(rel.blocks).flatmap(lambda b: st.tuples(*[st.sampled_from(b)] * 2))
    anywhere = st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))
    involutions = st.lists(in_class | anywhere, max_size=n).map(involution)
    one_map = (
        involutions
        | involutions.map(lambda f: {**{x: x for x in range(n)}, **f})
        | within(rel)
        | st.permutations(range(n)).map(lambda p: dict(enumerate(p)))
        | partial_maps(n)
    )
    maps = draw(st.lists(one_map, max_size=4))
    blocks = [list(b) for b in rel.blocks]
    return {"n": n, "blocks": blocks, "maps": [list(f.items()) for f in maps]}


@given(families_with_strays())
@example({"n": 3, "blocks": [[0, 2], [1]], "maps": [[[0, 2], [2, 0], [-1, -1]]]})
@example({"n": 3, "blocks": [[0, 2], [1]], "maps": [[[0, 0], [1, 3], [3, 1], [2, 2]]]})
def test_label_searches_match_the_same_calls(data):
    rel = Partition.from_blocks(data["n"], data["blocks"])
    for g in data["maps"]:
        assert graph_within_partition(dict(g), rel) == ref_graph_within_partition(dict(g), rel)
    for kind, ref in (
        ("involution_family_within", ref_involution_family_within),
        ("bijection_family_within", ref_bijection_family_within),
    ):
        assert CHECKERS[kind](data) == ref(data)


@st.composite
def stored_bijection_families(draw):
    """Families as a certificate may store them, edited by hand: mostly
    permutations of 0..n-1, inside the classes or not, some points written
    as floats, bools or text, and pairs repeated, dropped, strayed or of
    the wrong length."""
    n = draw(st.integers(1, 5))
    rel = draw(partitions_of(n))
    points = [x for b in rel.blocks for x in b]
    inside = st.tuples(*(st.permutations(b) for b in rel.blocks)).map(
        lambda images: dict(zip(points, (y for im in images for y in im)))
    )

    def edited(x):
        return st.just(x) | st.sampled_from([x, float(x), str(x), x + 0.5, bool(x)])

    anywhere = st.permutations(range(n)).map(lambda images: dict(enumerate(images)))
    maps = []
    for f in draw(st.lists(inside | anywhere, max_size=3)):
        pairs = [[draw(edited(x)), draw(edited(y))] for x, y in sorted(f.items())]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(pairs)))
            pairs[i:i] = [draw(st.sampled_from([
                [draw(st.integers(-1, n)), draw(st.integers(-1, n))],
                [0, 0, 0], [0], pairs[i % len(pairs)],
            ]))]
        if pairs and draw(st.booleans()):
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        maps.append(pairs)
    return {"n": n, "blocks": [list(b) for b in rel.blocks], "maps": maps}


def verdict(checker, data):
    """A checker's verdict and witness, or the kind and message of its error."""
    try:
        return "value", checker(data)
    except (TypeError, ValueError) as e:
        return type(e).__name__, str(e)


def _two_points(pairs, blocks=None, n=2):
    """The identity on 0..n-1, then pairs: in one class unless blocks are given."""
    blocks = [list(range(n))] if blocks is None else blocks
    return {"n": n, "blocks": blocks, "maps": [[[x, x] for x in range(n)], pairs]}


@given(stored_bijection_families())
@example(_two_points([[0, 1.0], [1.0, 0]]))           # float points
@example(_two_points([[0, True], [True, 0]]))         # true points
@example(_two_points([["0", 1], [1, "0"]]))           # text points
@example(_two_points([[0, 1], [1, 0], [0, 0]]))       # a source listed twice
@example(_two_points([[0, 0], [1, 2]]))               # a point out of range
@example(_two_points([[0, 1], [1, 0]], [[0], [1]]))   # a within failure
@example(_two_points([[0, 1], [1, 1], [2, 0]], n=3))  # not a bijection
@example(_two_points([[0, 1, 2], [1, 0]]))            # a pair of length 3
def test_bijection_checker_passes_maps_as_stored_and_judges_the_rest_as_before(data):
    checker = CHECKERS["bijection_family_within"]
    assert verdict(checker, data) == verdict(ref_converted_bijection_family_within, data)


SAMPLE_RUNS = [
    [command, "--input", str(pathlib.Path(__file__).resolve().parent.parent / "samples" / sample)]
    for command in ("fm-quotient", "cover") for sample in ("five_points.qb", "shifts6.qb")
]


def test_built_extensions_are_stratified_without_levels_finite():
    # greedy_extend builds a permutation inside the classes from a checked
    # seed and the psis, and the certificate checks its cover: the
    # construction takes the unchecked cover step (g, g^-1), and each
    # extension passes the law checks that step leaves out
    blocks = [[0, 3, 5], [1, 2], [4]]
    graphs = [{x: b[(i + d) % len(b)] for b in blocks for i, x in enumerate(b)} for d in range(3)]
    qc = quotient_construction(EnumeratedEquivalence.make(6, graphs))
    for g, cp in zip(qc.extended, qc.covers):
        assert injectivity_witness(g) is None
        assert graph_within_partition(g, qc.relation) is None
        assert maximality_witness(g, qc.relation) is None
        assert (cp.first, cp.second) == (g, invert_map(g))


def test_finite_runs_take_the_one_cover_step_and_no_maximality_check(capsys, monkeypatch):
    # a finite cover run takes its cover from cover_finite, once per
    # certificate, and no finite run checks its extension's maximality again
    import qborel.feldman_moore as fm
    from qborel.cli.certificates import Certificate

    steps, laws = [], []
    cover, certify, maximality = fm.cover_finite, Certificate.certify, fm.maximality_witness

    def covered(g):
        steps.append("cover_finite")
        return cover(g)

    def certified(self, *args):
        steps.append("certify")
        return certify(self, *args)

    def checked(*args):
        laws.append(args)
        return maximality(*args)

    monkeypatch.setattr(fm, "cover_finite", covered)
    monkeypatch.setattr(Certificate, "certify", certified)
    monkeypatch.setattr(fm, "maximality_witness", checked)
    shifts6 = SAMPLE_RUNS[-1]
    assert shifts6[0] == "cover" and shifts6[-1].endswith("shifts6.qb")
    assert main(shifts6) == 0
    assert steps == ["cover_finite", "certify"]
    for argv in SAMPLE_RUNS:
        assert main(argv) == 0
    capsys.readouterr()
    assert laws == []


@pytest.mark.parametrize("pairs", [
    [[0, 1], [1, 0]],
    [[0, 1], [0, 2]],            # a repeated source: the last pair wins
    [],
    [[True, 1], [1.0, 2]],       # edited by hand: converted
    [["3", "4"]],
    ["12"],                      # a two-character string unpacks
    [[1, 2, 3]],
    [["x", 1]],
    [[None, 1]],
    {"0": 1},
])
def test_stored_pairs_read_as_the_conversion_reads_them(pairs):
    def convert(pairs):
        return {int(x): int(y) for x, y in pairs}

    def read(fn):
        try:
            return "value", list(fn(pairs).items())
        except (TypeError, ValueError) as e:
            return type(e).__name__, str(e)

    assert read(_pairs_to_map) == read(convert)


@pytest.mark.parametrize("n, graphs", [
    (3, [{0: 0, 1: 1, 2: 2}, {0: 1, 1: 0}]),   # an enumeration
    (3, [{0: 0, 1: 1, 2: 2}, {0: 1, 1: 2}]),   # neither symmetric nor transitive
    (2, [{0: 0, 1: 1}, {0: 5, 5: 0}, {5: 5}]),  # closed, but 5 is no point
    (3, [{0: 0, 1: 1}]),                        # 2 is not reflexive
])
def test_verify_enumeration_examples(n, graphs):
    same_outcome(
        outcome(verify_enumeration, graphs, n), outcome(ref_verify_enumeration, graphs, n)
    )


@st.composite
def graph_families(draw):
    """Partial maps whose domains overlap, with empty maps and repeated maps."""
    n = draw(sizes)
    fns = draw(st.lists(partial_maps(n) | st.just({}), max_size=5))
    if fns:
        fns += draw(st.lists(st.sampled_from(fns), max_size=2))
    return draw(st.permutations(fns))


@given(graph_families())
@example([{0: 1, 1: 2}, {}, {0: 0, 2: 2}, {0: 1, 1: 2}])
def test_weak_uniformize_is_the_least_index_selection_from_the_union(fns):
    u = weak_uniformize(fns)
    # dicts compared without their order: the reference walks a set, and
    # the certificate stores both sorted
    assert (u.phi, u.index_of) == ref_weak_uniformize(union_pairs(fns), fns)
