"""One answer on both lanes: finite instances run through the integer lane.

A finite instance embeds in the integer lane without loss: point x is
the integer x, each map becomes singleton pieces x -> +(y-x), and each
class a finite block (all other integers are singletons).  On the
embedded instance the integer lane must return the finite lane's
`fm-quotient` generators in the same order and its `cover` triple, read
back on the points 0..n-1, and must reject a faulty cover seed with the
same kind of error and witness.  On either lane the inverse of an
extension has the extension's levels with the sides swapped, and the
cover the construction reads off the extension's.
"""

import contextlib
import io
import random
import time

from hypothesis import assume, example, given, settings, strategies as st

from qborel.carriers import (
    IntBlockRelation,
    IntSet,
    PiecewiseTranslation,
    parse_intset,
    parse_ptmap,
)
from qborel.cli.main import main
from qborel.errors import QBorelError
from qborel.feldman_moore import (
    CoverPair,
    _mirror_cover_int,
    _mirror_levels,
    cover_finite,
    cover_int,
    greedy_extend,
    greedy_extend_int,
    levels_finite,
    levels_int,
    psi_split,
    psi_split_int,
    quotient_construction,
    quotient_construction_int,
)
from qborel.relations import EnumeratedEquivalence

# ---------------------------------------------------------------------------
# the embedding


def embed_map(f: dict[int, int]) -> PiecewiseTranslation:
    return PiecewiseTranslation((IntSet.of(x), y - x) for x, y in f.items())


def embed_classes(classes) -> IntBlockRelation:
    return IntBlockRelation.make([IntSet.of(*c) for c in classes])


def embed_text(classes, maps) -> str:
    """The embedded instance as an instance file for `fm-quotient`."""
    lines = ["space Z carrier = int"]
    for j, f in enumerate(maps):
        body = " | ".join(f"{x} -> {y - x:+d}" for x, y in sorted(f.items()))
        lines.append(f"ptmap s{j} : Z : {body}")
    blocks = ", ".join("{" + "; ".join(map(str, sorted(c))) + "}" for c in classes)
    lines += [
        f"rel B on Z blocks = {{ {blocks} }}",
        "set rel = B",
        "set maps = " + ",".join(f"s{j}" for j in range(len(maps))),
    ]
    return "\n".join(lines) + "\n"


def on_points(f: PiecewiseTranslation, n: int) -> dict[int, int]:
    """An integer-lane map read back on the points 0..n-1."""
    return {x: f(x) for x in range(n) if f.get(x) is not None}


def shifts(classes, k: int) -> list[dict[int, int]]:
    """The k cyclic shifts of every class: an enumeration of the classes."""
    return [
        {c[a]: c[(a + j) % len(c)] for c in classes for a in range(len(c))}
        for j in range(k)
    ]


def random_classes(rng, n: int, k: int) -> list[list[int]]:
    """Classes of size 1..k over a shuffled 0..n-1 (the finite_fm shape)."""
    points = list(range(n))
    rng.shuffle(points)
    classes, i = [], 0
    while i < n:
        m = rng.randint(1, k)
        classes.append(points[i:i + m])
        i += m
    return classes


# ---------------------------------------------------------------------------
# both lanes


def both_quotients(n, classes, maps):
    fin = quotient_construction(EnumeratedEquivalence.make(n, maps))
    intq = quotient_construction_int(embed_classes(classes), [embed_map(f) for f in maps])
    return fin.generators, [on_points(g, n) for g in intq.generators]


def finite_cover(n, maps, seed):
    enum = EnumeratedEquivalence.make(n, maps)
    part = enum.partition()
    g = greedy_extend(seed, psi_split(enum.graph_dicts()), n, part)
    pair = cover_finite(levels_finite(g, n, part))
    return g, pair.first, pair.second


def int_cover(classes, maps, seed):
    rel = embed_classes(classes)
    g = greedy_extend_int(
        embed_map(seed), psi_split_int([embed_map(f) for f in maps]), rel.ambient, rel
    )
    pair = cover_int(levels_int(g, rel))
    return g, pair.first, pair.second


def both_covers(n, classes, maps, seed):
    embedded = int_cover(classes, maps, seed)
    return finite_cover(n, maps, seed), tuple(on_points(f, n) for f in embedded)


def rejection(cover, *args):
    """The kind and witness of the error a cover run raises."""
    try:
        cover(*args)
    except QBorelError as e:
        return type(e).__name__, e.witness
    raise AssertionError("the faulty seed was accepted")


def random_seed(rng, classes) -> dict[int, int]:
    """A partial injection inside the classes, on about half of them.

    Its sources and targets overlap or are disjoint; disjoint ones leave
    several free points per class, where the order of the greedy
    extension shows.
    """
    seed = {}
    for c in classes:
        if len(c) > 1 and rng.random() < 0.5:
            perm = rng.sample(c, len(c))
            m = rng.randint(1, len(c))
            j = rng.randint(0, len(c) - m)
            seed.update(zip(perm[:m], perm[j:j + m]))
    return seed


@st.composite
def instances(draw, max_n=140):
    """An enumeration of random classes, and a cover seed inside them or none."""
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    classes = random_classes(rng, n, k)
    # any order: with the identity shift first the greedy identity pass is idle
    maps = rng.sample(shifts(classes, k), k)
    seed = random_seed(rng, classes) if draw(st.booleans()) else {}
    return n, classes, maps, seed


@settings(max_examples=100)
@given(instances())
def test_both_lanes_give_one_answer(instance):
    n, classes, maps, seed = instance
    fin, embedded = both_quotients(n, classes, maps)
    assert embedded == fin
    fin, embedded = both_covers(n, classes, maps, seed)
    assert embedded == fin


@st.composite
def faulty_seeds(draw, max_n=30):
    """An enumeration as above, and a seed inside it but for one fault.

    The fault is two sources on one target, or one pair across two
    classes; the rest of the seed keeps to the other classes.
    """
    n, k = draw(st.integers(2, max_n)), draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    classes = random_classes(rng, n, k)
    maps = rng.sample(shifts(classes, k), k)
    if draw(st.booleans()):
        large = [c for c in classes if len(c) > 1]
        assume(large)
        touched = [rng.choice(large)]
        a, b = rng.sample(touched[0], 2)
        y = rng.choice(touched[0])
        fault = {a: y, b: y}
    else:
        assume(len(classes) > 1)
        touched = rng.sample(classes, 2)
        fault = {rng.choice(touched[0]): rng.choice(touched[1])}
    rest = random_seed(rng, [c for c in classes if c not in touched])
    return n, classes, maps, {**rest, **fault}


@settings(max_examples=100)
@given(faulty_seeds())
def test_both_lanes_reject_a_faulty_seed_alike(instance):
    """Both lanes raise the same kind of error, with the same witness.

    A NotInjective witness (x1, x2, y) names its two sources in another
    order on each lane: the finite lane lists them in ascending order,
    the integer lane in the order of their pieces' offsets y - x, which
    is descending.
    """
    n, classes, maps, seed = instance
    kind, witness = rejection(finite_cover, n, maps, seed)
    assert kind in ("NotInjective", "NotWithinRelation")
    if kind == "NotInjective":
        x1, x2, y = witness
        witness = (x2, x1, y)
    assert rejection(int_cover, classes, maps, seed) == (kind, witness)


# ---------------------------------------------------------------------------
# the inverse of an extension: its levels mirrored, its cover read off


LINE = IntBlockRelation.make([IntSet.all_integers()])
RAYS = IntBlockRelation.make([parse_intset("..-1"), parse_intset("0..")])
CYCLES = "-3:-3*inf; -2:-3*inf -> +1 | -1:-3*inf -> -2"  # 3-cycles on ..-1


@st.composite
def translations(draw):
    """(relation, h, None): h translates Z by c in the one-class relation,
    or the ray 0.. up or down by c next to the identity or 3-cycles on ..-1."""
    c = draw(st.sampled_from([1, 2, 3, 5]))
    rest = draw(st.sampled_from([None, "..-1 -> +0", CYCLES]))
    if rest is None:
        c *= draw(st.sampled_from([1, -1]))
        return LINE, PiecewiseTranslation.translation(IntSet.all_integers(), c), None
    ray = draw(st.sampled_from([f"0.. -> +{c}", f"{c}.. -> -{c}"]))
    return RAYS, parse_ptmap(f"{rest} | {ray}"), None


@st.composite
def embedded_extensions(draw):
    """(relation, h, (n, maps, finite h)): h extends one psi of an embedded
    finite instance, and the finite extension of that psi rides along."""
    n, classes, maps, _ = draw(instances(max_n=30))
    i = draw(st.integers(0, len(maps) ** 2 - 1))
    psis = psi_split(maps)
    int_psis = psi_split_int([embed_map(f) for f in maps])
    rel = embed_classes(classes)
    h = greedy_extend_int(int_psis[i], int_psis, rel.ambient)
    return rel, h, (n, maps, greedy_extend(psis[i], psis, n))


# translations and 3-cycles, in finite classes too, are no involution on
# X_0, and a ray gives h a side
@given(translations() | embedded_extensions())
# X_0 = Z, where h = +2 and h^-1 = -2 differ
@example((LINE, PiecewiseTranslation.translation(IntSet.all_integers(), 2), None))
# one positive side, and X_0 = ..-1 held in 3-cycles
@example((RAYS, parse_ptmap(CYCLES + " | 0.. -> +2"), None))
# the two-ray shape: X_0 = ..-1 fixed, one positive side
@example((RAYS, parse_ptmap("..-1 -> +0 | 0.. -> +1"), None))
def test_an_inverse_is_covered_from_the_mirrored_levels(case):
    rel, h, twin = case
    levels, inverse = levels_int(h, rel), levels_int(h.inverse(), rel)
    assert _mirror_levels(levels) == inverse
    assert _mirror_cover_int(inverse, cover_int(levels)) == cover_int(inverse)
    if twin is not None:
        n, maps, h = twin
        part = EnumeratedEquivalence.make(n, maps).partition()
        levels = levels_finite(h, n, part)
        inverse = levels_finite(levels.ginv, n, part)
        assert _mirror_levels(levels) == inverse
        assert cover_finite(inverse) == CoverPair(levels.ginv, h)


def test_two_sources_on_one_target_are_named_in_offset_order():
    classes = [[0, 1, 2]]
    maps, seed = shifts(classes, 3), {0: 1, 2: 1}
    assert rejection(finite_cover, 3, maps, seed) == ("NotInjective", (0, 2, 1))
    assert rejection(int_cover, classes, maps, seed) == ("NotInjective", (2, 0, 1))


def test_both_lanes_agree_at_140_points():
    rng = random.Random(140)
    classes = random_classes(rng, 140, 5)
    maps = shifts(classes, 5)
    fin, embedded = both_quotients(140, classes, maps)
    assert embedded == fin and len(fin) > 1
    fin, embedded = both_covers(140, classes, maps, random_seed(rng, classes))
    assert embedded == fin


def test_embedded_160_points_certify_and_verify_within_2_s(tmp_path):
    classes = random_classes(random.Random(160), 160, 4)
    inst, cert = tmp_path / "embedded.qb", tmp_path / "embedded.json"
    inst.write_text(embed_text(classes, shifts(classes, 4)), encoding="utf-8")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fm-quotient", "--input", str(inst), "--out", str(cert)]) == 0
        assert main(["verify", "--input", str(cert)]) == 0
    assert time.perf_counter() - t0 < 2.0
