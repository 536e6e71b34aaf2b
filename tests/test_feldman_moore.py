"""Constructions that turn an enumerated relation into generating bijections.

Finite instances are verified exhaustively or against closures computed by
independent means; the integer lane is verified on windows plus the frozen
values of the shifted-ray example worked out by hand:

    seed  g0 : x -> x+1 on 0..
    g     = ..-1 -> +0 | 0.. -> +1
    X_1   = {0}, X_n = {n-1}, acceleration (base 1, period 1, offset 1)
    X_0   = ..-1, negative side empty
    g'    = 1:+2*inf -> -1 | ..-1 -> +0 | 0:+2*inf -> +1
    g''   = 2:+2*inf -> -1 | ..0  -> +0 | 1:+2*inf -> +1
"""

import itertools
import json
import pathlib
import random

import pytest
from hypothesis import example, given, strategies as st

from qborel.cantor import example_gallery
from qborel.carriers import IntBlockRelation, IntSet, PiecewiseTranslation as PT, format_intset
from qborel.errors import BadParameters, NoAcceleration, NotInjective, NotMaximal
from qborel.feldman_moore import (
    SideLevels,
    _compatible_region,
    _side_levels,
    classical_construction,
    cover_finite,
    cover_int,
    greedy_extend,
    greedy_extend_int,
    identity_map,
    invert_map,
    levels_finite,
    levels_int,
    lusin_novikov_decompose,
    maximality_witness,
    maximality_witness_int,
    orbit_window_witness,
    psi_split,
    psi_split_int,
    quotient_construction,
    quotient_construction_int,
    weak_uniformize,
    weak_uniformize_int,
)
from qborel.relations import (
    EnumeratedEquivalence,
    Partition,
    generate_equivalence,
    union_pairs,
    verify_enumeration,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

partitions = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        Partition.from_class_map
    )
)


def enumeration_of(p):
    """Cycle powers of every block: a genuine enumeration of the partition."""
    graphs = [identity_map(p.n)]
    for b in p.blocks:
        m = len(b)
        for d in range(1, m):
            graphs.append({b[i]: b[(i + d) % m] for i in range(m)})
    return EnumeratedEquivalence.make(p.n, graphs)


# -- section decomposition ----------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=40))
def test_decomposition_splits_into_injections(pairs):
    d = lusin_novikov_decompose(pairs)
    rel = frozenset(pairs)
    assert union_pairs(d.graphs) == rel
    # sections split by rank, so graph i is defined exactly where the
    # section has more than i elements
    widths = {}
    for a, _ in rel:
        widths[a] = widths.get(a, 0) + 1
    assert len(d.graphs) == max(widths.values(), default=0)
    for i, g in enumerate(d.graphs):
        assert set(g) == {a for a, w in widths.items() if w > i}
    if rel:
        assert d.uniformization == {a: min(b for x, b in rel if x == a) for a, _ in rel}


def test_decomposition_empty():
    d = lusin_novikov_decompose([])
    assert d.graphs == [] and d.uniformization == {}


# -- classical construction ----------------------------------------------------

def exhaustive_partitions(n):
    for cm in itertools.product(range(n), repeat=n):
        yield Partition.from_class_map(cm)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classical_exhaustive_small(n):
    for p in exhaustive_partitions(n):
        r = classical_construction(p)
        pairs = p.pairs()
        for f in r.involutions.values():
            assert all(f[f[x]] == x for x in f)  # involution
            assert all(p.same(x, f[x]) for x in f)  # within the relation
        for x, y in pairs:
            key = r.involution_for_pair(x, y)
            if x == y and not r.involutions:
                continue  # discrete relation: no bits, no involutions
            assert key is not None
            assert r.involutions[key][x] == y
        got, _ = generate_equivalence(p.n, list(r.generators))
        assert got == p


@given(partitions)
def test_classical_random(p):
    r = classical_construction(p)
    got, _ = generate_equivalence(p.n, list(r.generators))
    assert got == p
    for x, y in p.pairs():
        if x == y and not r.involutions:
            continue
        assert r.involution_for_pair(x, y) is not None


def test_classical_bit_count_separates():
    p = Partition.from_blocks(5, [(0, 1, 2), (3, 4)])
    r = classical_construction(p)
    assert 2 ** r.bit_count >= max(len(b) for b in p.blocks)


CAP = "qborel.feldman_moore.MAX_CLASSICAL_ENTRIES"


@pytest.mark.parametrize("blocks, entries", [
    ([range(160)], 32_768_000),  # one class of 160 points
    ([range(80)], 3_584_000),  # one class of 80 points
    # 8,000 points in classes of 6 and one of 2
    ([range(6 * i, 6 * i + 6) for i in range(1333)] + [range(7998, 8000)], 3_744_000),
])
def test_classical_table_entries_are_k_squared_b_n(monkeypatch, blocks, entries):
    p = Partition.from_blocks(max(b[-1] for b in blocks) + 1, blocks)
    monkeypatch.setattr(CAP, entries - 1)
    with pytest.raises(BadParameters, match=f"hold {entries} entries") as e:
        classical_construction(p)
    assert e.value.witness == entries


def test_classical_table_cap_is_inclusive(monkeypatch):
    p = Partition.from_blocks(5, [(0, 1, 2), (3, 4)])
    monkeypatch.setattr(CAP, 3 * 3 * 3 * 5)
    assert classical_construction(p).bit_count == 3
    monkeypatch.setattr(CAP, 3 * 3 * 3 * 5 - 1)
    with pytest.raises(BadParameters):
        classical_construction(p)


# -- psi split -------------------------------------------------------------------

@given(partitions)
def test_psi_split_row_major(p):
    e = enumeration_of(p)
    phis = e.graph_dicts()
    psis = psi_split(phis)
    k = len(phis)
    assert len(psis) == k * k
    inv = [invert_map(f) for f in phis]
    for a in range(k):
        for b in range(k):
            want = {
                x: y
                for x, y in phis[a].items()
                if x in inv[b] and inv[b][x] == y
            }
            # psi_{a k + b} = graph of phi_a intersected with inverse of phi_b
            want = {
                x: y for x, y in phis[a].items() if phis[b].get(y) == x
            }
            assert psis[a * k + b] == want


# -- greedy extension --------------------------------------------------------------

@given(partitions, st.randoms(use_true_random=False))
def test_greedy_extension_is_maximal_permutation(p, rng):
    e = enumeration_of(p)
    psis = psi_split(e.graph_dicts())
    # random partial injection within the relation as seed
    g0 = {}
    used = set()
    for x in range(p.n):
        if rng.random() < 0.4:
            choices = [y for y in p.block_of(x) if y not in used]
            if choices:
                y = rng.choice(choices)
                g0[x] = y
                used.add(y)
    g = greedy_extend(g0, psis, p.n, rel=p)
    assert set(g) == set(range(p.n))
    assert sorted(g.values()) == list(range(p.n))  # a full permutation
    for x, y in g0.items():
        assert g[x] == y  # seed preserved
    for x in range(p.n):
        assert p.same(x, g[x])
    assert maximality_witness(g, p) is None


def test_greedy_rejects_seed_outside_relation():
    p = Partition.from_blocks(4, [(0, 1), (2, 3)])
    psis = psi_split([identity_map(4), {0: 1, 1: 0, 2: 3, 3: 2}])
    from qborel.errors import NotWithinRelation

    with pytest.raises(NotWithinRelation):
        greedy_extend({0: 2}, psis, 4, rel=p)


# -- levels, finite degeneracy -------------------------------------------------------

@given(partitions, st.randoms(use_true_random=False))
def test_finite_levels_all_empty(p, rng):
    e = enumeration_of(p)
    psis = psi_split(e.graph_dicts())
    g = greedy_extend({}, psis, p.n, rel=p)
    lv = levels_finite(g, p.n, p)
    # a maximal injection on finite classes is a bijection: no levels at all
    assert lv.positive == [] and lv.negative == []
    assert lv.zero == frozenset(range(p.n))
    cp = cover_finite(lv)
    got = union_pairs([cp.first, cp.second])
    assert got >= frozenset(g.items())
    assert got >= frozenset(invert_map(g).items())


def test_levels_finite_rejects_non_injection():
    with pytest.raises(NotInjective):
        levels_finite({0: 1, 1: 1, 2: 0}, 3, Partition.from_blocks(3, [range(3)]))


def test_levels_finite_rejects_non_maximal():
    with pytest.raises(NotMaximal):
        levels_finite({0: 1, 1: 0}, 3, Partition.from_blocks(3, [range(3)]))


def test_levels_finite_rejects_map_leaving_relation():
    from qborel.errors import NotWithinRelation

    # injective and maximal, but 0 and 1 are not related
    with pytest.raises(NotWithinRelation) as exc:
        levels_finite({0: 1}, 2, Partition.discrete(2))
    assert exc.value.witness == (0, 1)


def test_graph_within_partition_flags_points_outside_range():
    from qborel.feldman_moore import graph_within_partition

    p = Partition.discrete(2)
    assert graph_within_partition({6: 7}, p) == (6, 7)
    assert graph_within_partition({-1: 1}, p) == (-1, 1)
    assert graph_within_partition({0: 0, 1: 1}, p) is None


# -- full finite pipeline ----------------------------------------------------------

@given(partitions)
def test_quotient_construction_orbit_matches(p):
    e = enumeration_of(p)
    qc = quotient_construction(e)
    assert qc.orbit == p
    k = len(e.graph_dicts())
    assert len(qc.psis) == k * k
    assert len(qc.extended) == len(qc.psis) == len(qc.covers)
    for g, cp in zip(qc.extended, qc.covers):
        assert sorted(g.values()) == list(range(p.n))
        got = union_pairs([cp.first, cp.second])
        assert got >= frozenset(g.items())
        assert got >= frozenset(invert_map(g).items())
        for f in (cp.first, cp.second):
            assert sorted(f.values()) == list(range(p.n))
            assert all(p.same(x, y) for x, y in f.items())
    got, _ = generate_equivalence(p.n, list(qc.generators))
    assert got == p


@given(partitions)
def test_quotient_construction_matches_per_seed_pipeline(p):
    # extending and covering each distinct psi once gives, for every seed,
    # what the pipeline run on that seed alone gives
    qc = quotient_construction(enumeration_of(p))
    for psi, g, cp in zip(qc.psis, qc.extended, qc.covers):
        alone = greedy_extend(psi, qc.psis, p.n, p)
        assert g == alone
        assert cp == cover_finite(levels_finite(alone, p.n, p))


def test_quotient_construction_rejects_broken_enumeration():
    from qborel.errors import NotAnEnumeration

    e = EnumeratedEquivalence.make(2, [{0: 1}])
    with pytest.raises(NotAnEnumeration):
        quotient_construction(e)


# -- weak uniformization -------------------------------------------------------------

@given(partitions)
def test_weak_uniformize_least_index(p):
    e = enumeration_of(p)
    fns = e.graph_dicts()
    u = weak_uniformize(fns)
    dom = {a for a, _ in p.pairs()}
    assert set(u.phi) == dom
    for x, y in u.phi.items():
        i = u.index_of[x]
        assert fns[i].get(x) == y
        assert (x, y) in p.pairs()
        for j in range(i):
            assert (x, fns[j].get(x)) not in p.pairs() or fns[j].get(x) is None
    # least index really is least
    for x in dom:
        i = u.index_of[x]
        for j in range(i):
            v = fns[j].get(x)
            assert v is None or not p.same(x, v) or (x, v) not in p.pairs()


# -- integer lane ----------------------------------------------------------------------

AMB = IntSet.all_integers()
FULL = IntBlockRelation.make([AMB], ambient=AMB)


def shift_family():
    return [PT.identity(AMB), PT.translation(AMB, 1), PT.translation(AMB, -1)]


def test_psi_split_int_count_and_graphs():
    psis = psi_split_int(shift_family())
    assert len(psis) == 9
    # psi_{a*3+b} is phi_a cut to where phi_b inverts it
    phis = shift_family()
    for a in range(3):
        for b in range(3):
            ps = psis[a * 3 + b]
            for x in range(-10, 10):
                y = phis[a].get(x)
                expect = y if (y is not None and phis[b].get(y) == x) else None
                assert ps.get(x) == expect


def test_greedy_extend_int_frozen_values():
    g0 = PT.translation(IntSet.ray_up(0), 1)
    g = greedy_extend_int(g0, psi_split_int(shift_family()), AMB, rel=FULL)
    assert str(g) == "..-1 -> +0 | 0.. -> +1"
    assert maximality_witness_int(g, FULL) is None


def test_levels_int_names_an_unused_source_then_an_unused_target():
    # on 0..9, 0..8 -> +1 leaves 9 unused as a source and 0 as a target
    seg = IntSet.segment(0, 9)
    g = PT.translation(IntSet.segment(0, 8), 1)
    rel = IntBlockRelation.make([seg], ambient=seg)
    assert maximality_witness_int(g, rel) == (9, 0)
    with pytest.raises(NotMaximal) as info:
        levels_int(g, rel)
    assert info.value.witness == (9, 0)


def test_levels_int_frozen_values():
    g0 = PT.translation(IntSet.ray_up(0), 1)
    g = greedy_extend_int(g0, psi_split_int(shift_family()), AMB, rel=FULL)
    lv = levels_int(g, FULL)
    assert str(lv.zero) == "..-1"
    assert [str(s) for s in lv.positive.explicit] == ["0"]
    assert lv.positive.accel == (1, 1, 1)
    assert str(lv.positive.union) == "0.."
    assert lv.negative.union.is_empty()
    for n in range(1, 30):
        assert lv.level(n) == IntSet.of(n - 1)
        assert lv.level(-n).is_empty()
    assert lv.positive.parity_union(0) == IntSet.ray_up(1, 2)  # X_2 u X_4 u ...
    assert lv.positive.parity_union(1) == IntSet.ray_up(0, 2)  # X_1 u X_3 u ...


def test_cover_int_frozen_values():
    g0 = PT.translation(IntSet.ray_up(0), 1)
    g = greedy_extend_int(g0, psi_split_int(shift_family()), AMB, rel=FULL)
    cp = cover_int(levels_int(g, FULL))
    assert str(cp.first) == "1:+2*inf -> -1 | ..-1 -> +0 | 0:+2*inf -> +1"
    assert str(cp.second) == "2:+2*inf -> -1 | ..0 -> +0 | 1:+2*inf -> +1"
    for f in (cp.first, cp.second):
        assert f.domain() == AMB and f.range_set() == AMB
        assert f.injectivity_witness() is None
    # the union of the two covers the extension and its inverse
    assert g.graph_minus(cp.first, cp.second).is_empty()
    assert g.inverse().graph_minus(cp.first, cp.second).is_empty()


def ref_cover_int(levels):
    """cover_int's full assembly, which an extension with no sides skips: the oracle."""
    g, ginv = levels.g, levels.ginv
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
        PT.identity(x1.union(xm1)),
        g.restrict(pos_even),
        ginv.restrict(pos_odd.difference(x1)),
        ginv.restrict(neg_even),
        g.restrict(neg_odd.difference(xm1)),
    )
    return gp, gpp


def _two_ray_identity_extension():
    rel, fam = two_ray_family(265)
    psis = psi_split_int(fam)
    return greedy_extend_int(psis[0], psis, rel.ambient), rel


def _shifted_ray_extension():
    g0 = PT.translation(IntSet.ray_up(0), 1)
    return greedy_extend_int(g0, psi_split_int(shift_family()), AMB, rel=FULL), FULL


@pytest.mark.parametrize("extension, sideless", [
    *((lambda c=c: (PT.translation(AMB, c), FULL), True) for c in (0, 1, -1, 2, -2, 5, -5)),
    (_two_ray_identity_extension, True),
    (_shifted_ray_extension, False),  # X_1 = {0}: one side, so the assembly runs
], ids=[*(f"translation{c:+d}" for c in (0, 1, -1, 2, -2, 5, -5)), "two_ray_identity",
        "one_sided"])
def test_cover_int_of_an_extension_with_no_sides_is_its_assembly(extension, sideless):
    g, rel = extension()
    levels = levels_int(g, rel)
    assert (levels.positive.union.is_empty() and levels.negative.union.is_empty()) is sideless
    assert cover_int(levels)._key() == ref_cover_int(levels)


def test_levels_int_window_agrees_with_direct_iteration():
    g0 = PT.translation(IntSet.ray_up(0), 1)
    g = greedy_extend_int(g0, psi_split_int(shift_family()), AMB, rel=FULL)
    lv = levels_int(g, FULL)
    # direct: X_1 = dom minus rng, X_{n+1} = g[X_n]
    x = g.domain().difference(g.range_set())
    for n in range(1, 20):
        assert lv.level(n) == x
        x = g.image(x)


def eager_side_levels(h, first, bound, max_period):
    """Eager level search: all bound levels first, then the period scan.

    The reference the lazy `_side_levels` must equal, witness included.
    """
    levels = [first]
    while len(levels) < bound and not levels[-1].is_empty():
        levels.append(h.image(levels[-1]))
    if levels[-1].is_empty():
        explicit = [s for s in levels if not s.is_empty()]
        return SideLevels(explicit, None, IntSet.empty().union(*explicit))
    for period in range(1, max_period + 1):
        for base in range(1, len(levels) - period + 1):
            a = levels[base - 1]
            b = levels[base + period - 1]
            if a.is_empty() or b.is_empty():
                continue
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
    explored = [format_intset(s) for s in levels]
    raise NoAcceleration(
        f"no period up to {max_period} within {bound} levels",
        witness={"bound": bound, "max_period": max_period, "levels": explored},
    )


level_terms = st.one_of(
    st.builds(IntSet.progression, st.integers(-12, 12), st.integers(1, 3), st.integers(1, 6)),
    st.builds(IntSet.ray_up, st.integers(-12, 12), st.integers(1, 3)),
    st.builds(IntSet.ray_down, st.integers(-12, 12), st.integers(1, 3)),
)
level_sets = st.lists(level_terms, min_size=1, max_size=2).map(
    lambda ts: IntSet.empty().union(*ts)
)
first_levels = st.one_of(st.just(IntSet.empty()), level_sets)


def _partial_map(parts):
    """A partial map from (domain, offset) parts: later parts only where undefined."""
    f = PT.empty()
    for dom, c in parts:
        f = f.union(PT.translation(dom.difference(f.domain()), c))
    return f


level_maps = st.lists(
    st.tuples(level_sets, st.integers(-3, 3)), min_size=1, max_size=3
).map(_partial_map)


def _side_outcome(search, h, first, bound, max_period):
    try:
        side = search(h, first, bound, max_period)
    except NoAcceleration as e:
        return "NoAcceleration", e.witness
    return side.explicit, side.accel, side.union


@given(level_maps, first_levels, st.integers(1, 40), st.integers(1, 8))
@example(PT.translation(IntSet.ray_up(0), 1), IntSet.empty(), 1, 8)  # finite without a candidate
@example(PT.translation(IntSet.ray_up(0), 1), IntSet.of(0), 32, 8)  # (1, 1, 1) at once
@example(PT.translation(IntSet.ray_up(0), 1), IntSet.of(0), 1, 8)  # bound 1: no candidate
@example(PT.translation(IntSet.segment(0, 5), 1), IntSet.of(0), 40, 8)  # empty at depth 7
@example(  # evens +1, odds +3: period 2, offset 4
    PT([(IntSet.ray_up(0, 2), 1), (IntSet.ray_up(1, 2), 3)]), IntSet.of(0), 40, 8,
)
@example(  # 0..39 -> +1 | 40.. -> +2 repeats only past depth 40: the witness
    PT([(IntSet.segment(0, 39), 1), (IntSet.ray_up(40), 2)]),
    IntSet.of(0).union(IntSet.progression(41, 2, 20)), 40, 8,
)
def test_lazy_level_search_equals_the_eager_oracle(h, first, bound, max_period):
    assert _side_outcome(_side_levels, h, first, bound, max_period) == _side_outcome(
        eager_side_levels, h, first, bound, max_period
    )


def test_quotient_construction_int_pipeline():
    qc = quotient_construction_int(FULL, shift_family())
    assert len(qc.psis) == 9 and len(qc.extended) == 9 and len(qc.covers) == 9
    for g, cp in zip(qc.extended, qc.covers):
        assert maximality_witness_int(g, FULL) is None
        assert g.graph_minus(cp.first, cp.second).is_empty()
        assert g.inverse().graph_minus(cp.first, cp.second).is_empty()
        for f in (cp.first, cp.second):
            assert FULL.graph_within_witness(f) is None
    assert orbit_window_witness(FULL, list(qc.generators)) is None


def test_quotient_construction_int_alternating_family():
    # family moving evens up and odds down; psis stay within the relation
    evens = IntSet.ray_up(0, 2).union(IntSet.ray_down(-2, 2))
    fam = [
        PT.identity(AMB),
        PT.translation(evens, 1),
        PT.translation(evens.translate(1), -1),
    ]
    qc = quotient_construction_int(FULL, fam)
    for g, cp in zip(qc.extended, qc.covers):
        assert maximality_witness_int(g, FULL) is None
        assert g.graph_minus(cp.first, cp.second).is_empty()
        assert g.inverse().graph_minus(cp.first, cp.second).is_empty()


def two_ray_family(span):
    """Rays ..-1 and span.. as two blocks, with unit steps inside each."""
    amb = IntSet.ray_down(-1).union(IntSet.ray_up(span))
    rel = IntBlockRelation.make([IntSet.ray_down(-1), IntSet.ray_up(span)], ambient=amb)
    fam = [
        PT.identity(amb),
        PT([(IntSet.ray_down(-2), 1), (IntSet.ray_up(span), 1)]),
        PT([(IntSet.ray_down(-1), -1), (IntSet.ray_up(span + 1), -1)]),
    ]
    return rel, fam


@pytest.mark.parametrize("family", [
    lambda: (example_gallery("et_shift").data["relation"],
             example_gallery("et_shift").data["maps"]),
    lambda: two_ray_family(1000),
], ids=["et_shift", "two_ray"])
def test_quotient_construction_int_matches_per_seed_pipeline(family):
    # extending and covering each distinct psi once gives, for every seed,
    # what the pipeline run on that seed alone gives
    rel, fam = family()
    qc = quotient_construction_int(rel, fam)
    assert len(qc.extended) == len(qc.covers) == len(qc.psis) == 9
    assert len(set(qc.psis)) < len(qc.psis)
    for psi, g, cp in zip(qc.psis, qc.extended, qc.covers):
        alone = greedy_extend_int(psi, qc.psis, rel.ambient, rel)
        assert g == alone
        assert cp == cover_int(levels_int(alone, rel))


@pytest.mark.parametrize("lane", ["finite", "int"])
def test_construction_does_each_step_once(lane, monkeypatch):
    # one extension per distinct psi; one cover step (levels and cover on
    # the integer lane, no levels on the finite one) per distinct extension
    # whose inverse was not covered before, which takes its cover from that
    # one's; and each distinct cover map once among the generators, in the
    # order seen
    import qborel.feldman_moore as fm

    seeds, stratified, covered = [], [], []

    def counted(name, log):
        step = getattr(fm, name)

        def run(*args, **kwargs):
            log.append(args[0])
            return step(*args, **kwargs)

        monkeypatch.setattr(fm, name, run)

    if lane == "finite":
        counted("greedy_extend", seeds)
        counted("FiniteLevels", stratified)  # none: the finite lane builds no levels
        counted("invert_map", covered)  # the cover step, (g, g^-1)
        qc = quotient_construction(enumeration_of(Partition.from_class_map([0, 0, 0, 1, 1, 2])))
        key = lambda f: tuple(sorted(f.items()))  # noqa: E731
        inverse = lambda f: {y: x for x, y in f.items()}  # noqa: E731
    else:
        counted("greedy_extend_int", seeds)
        counted("levels_int", stratified)
        counted("cover_int", covered)
        qc = quotient_construction_int(*two_ray_family(1000))
        key = lambda f: f  # noqa: E731
        inverse = PT.inverse
    psis = [key(psi) for psi in qc.psis]
    assert len(set(psis)) < len(psis)
    assert [key(psi) for psi in seeds] == list(dict.fromkeys(psis))
    extended = {key(g): g for g in qc.extended}
    fresh, inverses = [], set()
    for g_key, g in extended.items():
        if g_key not in inverses:
            fresh.append(g_key)
            inverses.add(key(inverse(g)))
    assert len(fresh) < len(extended) < len(seeds)
    assert [key(g) for g in stratified] == ([] if lane == "finite" else fresh)
    assert [key(g if lane == "finite" else g.g) for g in covered] == fresh
    maps = [key(f) for cp in qc.covers for f in (cp.first, cp.second)]
    assert [key(f) for f in qc.generators] == list(dict.fromkeys(maps))


@pytest.mark.parametrize("command", ["fm-quotient", "cover"])
def test_finite_construction_checks_the_enumeration_once(command, monkeypatch, tmp_path):
    # the construction takes its relation from the one check of its graphs,
    # enumerated_partition, and the certificate's enumeration_laws row reads
    # back the verdict of that check
    import qborel.cli.commands
    import qborel.feldman_moore
    import qborel.relations
    from qborel.cli.certificates import Certificate
    from qborel.cli.main import main

    checks, partitions, at_certify = [], [], []
    check, certify = qborel.relations._enumeration_check, Certificate.certify
    partition = qborel.relations.enumerated_partition

    def counted(graphs, n):
        checks.append(n)
        return check(graphs, n)

    def partitioned(graphs, n):
        rel = partition(graphs, n)
        partitions.append(len(checks))
        return rel

    def certified(self, *args):
        at_certify.append(len(checks))
        return certify(self, *args)

    monkeypatch.setattr(qborel.relations, "_enumeration_check", counted)
    for module in (qborel.cli.commands, qborel.feldman_moore):
        monkeypatch.setattr(module, "enumerated_partition", partitioned)
    monkeypatch.setattr(Certificate, "certify", certified)
    cert = tmp_path / "cert.json"
    assert main([command, "--input", str(SAMPLES / "five_points.qb"), "--out", str(cert)]) == 0
    kinds = [c["kind"] for c in json.loads(cert.read_text())["checks"]]
    assert at_certify == [1] and kinds.count("enumeration_laws") == 1 and checks == [5]
    assert partitions == [1]


def test_finite_construction_builds_no_closure_layers(monkeypatch):
    # the orbit is the partition the generators join: nothing reads chain lengths
    import qborel.relations

    def unread(*args):
        raise AssertionError("closure layers built")

    monkeypatch.setattr(qborel.relations, "ClosureLayers", unread)
    qc = quotient_construction(enumeration_of(Partition.from_class_map([0, 0, 0, 1, 1, 2])))
    assert qc.orbit == qc.relation


def test_weak_uniformize_int():
    fam = [PT.translation(AMB, 1), PT.identity(AMB)]
    u = weak_uniformize_int(fam)
    # least index is the +1 graph everywhere
    assert u.phi == PT.translation(AMB, 1)
    assert str(u.levels[0]) == str(AMB)
