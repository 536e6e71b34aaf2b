"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py`; each criterion reports as a
single PASSED/FAILED line.  Every tolerance here is zero: any mismatch
against an oracle fails the criterion outright.
"""

import random

from qborel.actions import (
    FiniteGroup,
    GroupAction,
    cocycle_from_free_action,
    freeness_witness,
    verify_cocycle,
)
from qborel.cantor import canonicalize, e0_equivalent, et_equivalent, example_gallery
from qborel.carriers import IntSet, PiecewiseTranslation as PT, parse_intset, parse_ptmap
from qborel.feldman_moore import (
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
    psi_split_int,
    quotient_construction,
    weak_uniformize,
)
from qborel.relations import (
    EnumeratedEquivalence,
    IntBlockRelation,
    Partition,
    generate_equivalence,
    tail_equivalence,
    union_pairs,
)

WINDOW = range(-64, 65)


# -- shared generators ---------------------------------------------------------

def all_partitions(n):
    """Every partition of 0..n-1, via restricted growth strings."""
    def grow(prefix, mx):
        if len(prefix) == n:
            yield Partition.from_class_map(prefix)
            return
        for c in range(mx + 2):
            yield from grow(prefix + [c], max(mx, c))

    yield from grow([0], 0) if n else iter(())


def random_partition(rng, n):
    return Partition.from_class_map([rng.randrange(n) for _ in range(n)])


def enumeration_of(p):
    graphs = [identity_map(p.n)]
    for b in p.blocks:
        m = len(b)
        for d in range(1, m):
            graphs.append({b[i]: b[(i + d) % m] for i in range(m)})
    return EnumeratedEquivalence.make(p.n, graphs)


def random_partial_injection(rng, p):
    """A random member of the partial-injection semigroup of p."""
    g0, used = {}, set()
    for x in range(p.n):
        if rng.random() < 0.5:
            choices = [y for y in p.block_of(x) if y not in used]
            if choices:
                y = rng.choice(choices)
                g0[x] = y
                used.add(y)
    return g0


def finite_cover_case(rng, n):
    p = random_partition(rng, n)
    g0 = random_partial_injection(rng, p)
    psis = [{a: b} for a, b in sorted(p.pairs())]
    g = greedy_extend(g0, psis, p.n, rel=p)
    lv = levels_finite(g, p.n, p)
    return p, g0, g, lv, cover_finite(lv)


ET_FAMILY = [
    PT.identity(IntSet.all_integers()),
    PT.translation(IntSet.all_integers(), 1),
    PT.translation(IntSet.all_integers(), -1),
]
ET_REL = IntBlockRelation.make([IntSet.all_integers()], ambient=IntSet.all_integers())


def et_shift_case():
    g0 = PT.translation(IntSet.ray_up(0), 1)
    g = greedy_extend_int(g0, psi_split_int(ET_FAMILY), IntSet.all_integers(), rel=ET_REL)
    lv = levels_int(g, ET_REL)
    return g0, g, lv, cover_int(lv)


# -- criteria ---------------------------------------------------------------------

def test_criterion_01_quotient_construction_orbits_match_exactly():
    checked = 0
    for n in range(1, 6):
        for p in all_partitions(n):
            qc = quotient_construction(enumeration_of(p))
            assert qc.orbit == p
            got, _ = generate_equivalence(p.n, list(qc.generators))
            assert got == p
            for f in qc.generators:
                assert sorted(f.values()) == list(range(p.n))
                assert all(p.same(x, y) for x, y in f.items())
            checked += 1
    rng = random.Random(101)
    for _ in range(500):
        p = random_partition(rng, rng.randrange(6, 9))
        qc = quotient_construction(enumeration_of(p))
        assert qc.orbit == p
        got, _ = generate_equivalence(p.n, list(qc.generators))
        assert got == p
        checked += 1
    assert checked >= 500 + 75


def test_criterion_02_two_bijection_cover():
    rng = random.Random(202)
    for _ in range(500):
        p, g0, g, _, cp = finite_cover_case(rng, rng.randrange(1, 9))
        both = union_pairs([cp.first, cp.second])
        for f in (cp.first, cp.second):
            assert set(f) == set(range(p.n))
            assert sorted(f.values()) == list(range(p.n))  # total bijection
            assert all(p.same(x, y) for x, y in f.items())  # graph inside F
        assert frozenset(g0.items()) <= both
        assert frozenset(invert_map(g0).items()) <= both
    # integer carrier: the shifted-ray instance, verified again pointwise
    g0, g, _, cp = et_shift_case()
    for f in (cp.first, cp.second):
        assert f.domain() == IntSet.all_integers()
        assert f.injectivity_witness() is None
        assert f.range_set() == IntSet.all_integers()
    for x in WINDOW:
        y0 = g0.get(x)
        if y0 is not None:
            assert cp.first.get(x) == y0 or cp.second.get(x) == y0
            assert cp.first.get(y0) == x or cp.second.get(y0) == x
        # totality and injectivity on the window
        assert cp.first.get(x) is not None and cp.second.get(x) is not None
    for f in (cp.first, cp.second):
        seen = {}
        for x in WINDOW:
            y = f.get(x)
            assert y not in seen
            seen[y] = x


def test_criterion_03_level_partition_laws():
    rng = random.Random(303)
    for _ in range(500):
        p, g0, g, lv, _ = finite_cover_case(rng, rng.randrange(1, 9))
        dom, rng_ = set(g), set(g.values())
        # finite degeneracy: maximal injections are bijections, levels vanish
        assert dom == rng_ == set(range(p.n))
        assert lv.positive == [] and lv.negative == []
        assert lv.zero == frozenset(range(p.n))
    g0, g, lv, _ = et_shift_case()
    dom, rng_ = g.domain(), g.range_set()
    assert lv.level(1) == dom.difference(rng_)
    assert lv.level(-1) == rng_.difference(dom)
    seen = lv.zero
    x = lv.level(1)
    for n in range(1, 40):
        assert lv.level(n) == x
        assert x.intersect(seen).is_empty()  # disjointness
        seen = seen.union(x)
        x = g.image(x)
    assert lv.level(-1).is_empty()
    # full cover: explicit prefix + accelerated tail + zero part fill the line
    assert lv.zero.union(lv.positive.union).union(lv.negative.union) == IntSet.all_integers()


def test_criterion_04_classical_involutions():
    def check(p):
        r = classical_construction(p)
        for f in r.involutions.values():
            assert all(f[f[x]] == x for x in f)
            assert all(p.same(x, f[x]) for x in f)
        for x, y in p.pairs():
            if x != y:
                key = r.involution_for_pair(x, y)
                assert key is not None
                assert r.involutions[key][x] == y
        got, _ = generate_equivalence(p.n, list(r.generators))
        assert got == p

    for n in range(1, 6):
        for p in all_partitions(n):
            check(p)
    rng = random.Random(404)
    for _ in range(500):
        check(random_partition(rng, rng.randrange(6, 9)))


def test_criterion_05_closure_and_tail_oracles():
    def naive_closure(n, fns):
        pairs = {(x, x) for x in range(n)}
        for f in fns:
            pairs |= set(f.items())
        pairs |= {(b, a) for a, b in pairs}
        while True:
            more = pairs | {
                (a, d) for a, b in pairs for c, d in pairs if b == c
            }
            if more == pairs:
                break
            pairs = more
        return Partition.from_pairs(n, pairs)

    rng = random.Random(505)
    for _ in range(1000):
        n = rng.randrange(1, 11)
        fns = [
            {x: rng.randrange(n) for x in range(n) if rng.random() < 0.5}
            for _ in range(rng.randrange(0, 4))
        ]
        p, _ = generate_equivalence(n, fns)
        assert p == naive_closure(n, fns)
    for _ in range(1000):
        n = rng.randrange(1, 11)
        f = [rng.randrange(n) for _ in range(n)]
        p, _ = tail_equivalence(f, n)
        # forward orbits with exponents bounded by the carrier size
        orbits = []
        for x in range(n):
            seen, y = {x}, x
            for _ in range(n):
                y = f[y]
                seen.add(y)
            orbits.append(seen)
        for x in range(n):
            for y in range(n):
                assert p.same(x, y) == bool(orbits[x] & orbits[y])


def test_criterion_06_uniformization():
    rng = random.Random(606)
    for _ in range(500):
        n = rng.randrange(1, 9)
        p = random_partition(rng, n)
        fns = [{a: b} for a, b in sorted(p.pairs())]
        rng.shuffle(fns)
        u = weak_uniformize(fns)
        dom = {a for a, _ in p.pairs()}
        assert set(u.phi) == dom  # dom = dom R
        for x, y in u.phi.items():
            assert p.same(x, y)  # graph inside R
            i = u.index_of[x]
            assert fns[i].get(x) == y
            for j in range(i):  # least covering index
                v = fns[j].get(x)
                assert v is None or not p.same(x, v)
        # section decomposition of the same relation
        d = lusin_novikov_decompose(p.pairs())
        assert union_pairs(d.graphs) == p.pairs()
        assert set(d.uniformization) == dom


def test_criterion_07_cocycles():
    for name in ("ex34", "ex36"):
        act = example_gallery(name).data["action"]
        assert freeness_witness(act) is None
        assert verify_cocycle(cocycle_from_free_action(act)).ok, name
    assert verify_cocycle(example_gallery("ex37").data["cocycle"]).ok
    rng = random.Random(707)
    groups = [
        FiniteGroup.trivial(),
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.cyclic(5),
        FiniteGroup.cyclic(6),
        FiniteGroup.symmetric(3),
    ]
    for _ in range(200):
        grp = rng.choice(groups)
        copies = rng.randrange(1, 4)
        n = grp.size * copies
        points = list(range(n))
        rng.shuffle(points)
        maps = [[0] * n for _ in range(grp.size)]
        for c in range(copies):
            block = points[c * grp.size : (c + 1) * grp.size]
            for a in range(grp.size):
                for b in range(grp.size):
                    maps[a][block[b]] = block[grp.mul(a, b)]
        act = GroupAction(grp, n, tuple(tuple(m) for m in maps))
        assert freeness_witness(act) is None
        rep = verify_cocycle(cocycle_from_free_action(act))
        assert rep.ok


def test_criterion_08_worked_example_values():
    ex35 = example_gallery("ex35")
    assert ex35.summary["index"] == 3
    ex36 = example_gallery("ex36")
    assert ex36.summary["normalizer"] == ("012", "102")
    assert ex36.checks["normalizer_is_delta"]
    ex34 = example_gallery("ex34")
    assert ex34.summary["index"] == 2
    assert ex34.checks["involution_squares_to_identity"]
    assert ex34.checks["involution_generates_orbit"]


def test_criterion_09_word_procedures():
    rng = random.Random(909)

    def rand_word(k):
        u = "".join(str(rng.randrange(k)) for _ in range(rng.randrange(0, 5)))
        w = "".join(str(rng.randrange(k)) for _ in range(rng.randrange(1, 4)))
        return canonicalize(u, w, k)

    def stream(x, length):
        reps = (length - len(x.u)) // len(x.w) + 2
        return (x.u + x.w * reps)[:length]

    def oracles(x, y):
        """Bounded letter-stream comparison, exact on eventually periodic
        words: positions past 4x the combined description length, over a
        window longer than any combined period."""
        b = 4 * (len(x.u) + len(x.w) + len(y.u) + len(y.w))
        lx, ly = len(x.u) + len(x.w), len(y.u) + len(y.w)
        sx = stream(x, lx + 2 * b + 1)
        sy = stream(y, ly + 2 * b + 1)
        e0 = sx[b : 2 * b + 1] == sy[b : 2 * b + 1]
        et = any(
            sx[l + b : l + 2 * b + 1] == sy[m + b : m + 2 * b + 1]
            for l in range(lx + 1)
            for m in range(ly + 1)
        )
        return e0, et

    for _ in range(2000):
        k = rng.choice((2, 2, 3))
        x, y = rand_word(k), rand_word(k)
        want_e0, want_et = oracles(x, y)
        assert e0_equivalent(x, y) == want_e0
        assert et_equivalent(x, y) == want_et
    # law checks over a deduplicated pool of >= 100 canonical words
    pool = []
    seen = set()
    while len(pool) < 100:
        x = rand_word(2)
        if x not in seen:
            seen.add(x)
            pool.append(x)
    for relation in (e0_equivalent, et_equivalent):
        m = [[relation(x, y) for y in pool] for x in pool]
        for i in range(len(pool)):
            assert m[i][i]  # reflexive
            for j in range(len(pool)):
                assert m[i][j] == m[j][i]  # symmetric
        for i in range(len(pool)):
            row_i = m[i]
            for j in range(len(pool)):
                if row_i[j]:
                    row_j = m[j]
                    for l in range(len(pool)):
                        if row_j[l]:
                            assert row_i[l]  # transitive


def test_criterion_10_carrier_algebra_window_oracle():
    rng = random.Random(1010)

    def rand_atom():
        c = rng.randrange(5)
        if c == 0:
            a = rng.randrange(-20, 21)
            return IntSet.segment(a, a + rng.randrange(0, 12))
        if c == 1:
            return IntSet.ray_up(rng.randrange(-20, 21), rng.randrange(1, 5))
        if c == 2:
            return IntSet.ray_down(rng.randrange(-20, 21), rng.randrange(1, 5))
        if c == 3:
            return IntSet.progression(
                rng.randrange(-20, 21), rng.randrange(1, 5), rng.randrange(1, 7)
            )
        return IntSet.all_integers()

    def rand_set(depth):
        if depth == 0:
            return rand_atom()
        op = rng.randrange(5)
        if op == 0:
            return rand_set(depth - 1).union(rand_set(depth - 1))
        if op == 1:
            return rand_set(depth - 1).intersect(rand_set(depth - 1))
        if op == 2:
            return rand_set(depth - 1).difference(rand_set(depth - 1))
        if op == 3:
            return rand_set(depth - 1).translate(rng.randrange(-6, 7))
        return rand_atom()

    def model(s, lo=-200, hi=200):
        return set(s.window(lo, hi))

    for _ in range(1200):
        depth = rng.randrange(1, 6)
        a, b = rand_set(depth), rand_set(depth)
        c = rng.randrange(-6, 7)
        assert model(a.union(b)) == model(a) | model(b)
        assert model(a.intersect(b)) == model(a) & model(b)
        assert model(a.difference(b)) == model(a) - model(b)
        got = {x for x in WINDOW if x in a.translate(c)}
        want = {x + c for x in model(a)} & set(WINDOW)
        assert got == want
        # normalization idempotent: formatting and reparsing changes nothing
        assert parse_intset(str(a)) == a
    for _ in range(800):
        parts = []
        taken = IntSet.empty()
        for _ in range(rng.randrange(1, 4)):
            dom = rand_set(2).difference(taken)
            if dom.is_empty():
                continue
            taken = taken.union(dom)
            parts.append(PT.translation(dom, rng.randrange(-6, 7)))
        f = PT.empty()
        for part in parts:
            f = f.union(part)
        g_dom = rand_set(2)
        g = PT.translation(g_dom, rng.randrange(-6, 7))
        fd = {x: f.get(x) for x in range(-90, 91) if f.get(x) is not None}
        gd = {x: g.get(x) for x in range(-90, 91) if g.get(x) is not None}
        comp = f.compose(g)
        for x in WINDOW:
            want = fd.get(gd[x]) if x in gd and gd[x] in fd else None
            assert comp.get(x) == want
        rs = rand_set(2)
        restricted = f.restrict(rs)
        for x in WINDOW:
            want = fd[x] if x in fd and x in rs else None
            assert restricted.get(x) == want
        assert parse_ptmap(str(f)) == f or f.is_empty()
