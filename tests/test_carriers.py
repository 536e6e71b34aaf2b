"""Semilinear subsets of the integer line and their partial translations.

Every operation is checked two ways: against frozen textual normal forms,
and against a brute-force window oracle that materialises sets as plain
Python sets over a bounded range.
"""

import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from qborel.carriers import (
    IntBlockRelation,
    IntSet,
    NotInjective,
    Piece,
    PiecewiseTranslation,
    _canonical_pieces,
    _iv_complement,
    _iv_difference,
    _iv_intersect,
    _iv_norm,
    _min_shift_period,
    _negate_piece,
    _piece_near_zero,
    _piece_translates_union,
    _relation_of_texts,
    _residue_algebra,
    format_intset,
    format_ptmap,
    offset_sets,
    parse_intset,
    parse_ptmap,
)
from qborel.record import _clear_memos

WIN = 80


def win(s, lo=-WIN, hi=WIN):
    return set(s.window(lo, hi))


# -- strategies ----------------------------------------------------------

# built, not filtered: a strategy that rejects many of its draws fails
# Hypothesis's filter_too_much health check on some seeds
segments = st.builds(
    lambda a, b: IntSet.segment(min(a, b), max(a, b)), st.integers(-20, 20), st.integers(-20, 20)
)
progressions = st.builds(
    IntSet.progression, st.integers(-20, 20), st.integers(1, 5), st.integers(1, 6)
)
atoms = st.one_of(
    segments,
    st.builds(IntSet.ray_up, st.integers(-20, 20), st.integers(1, 5)),
    st.builds(IntSet.ray_down, st.integers(-20, 20), st.integers(1, 5)),
    progressions,
    st.just(IntSet.empty()),
    st.just(IntSet.all_integers()),
)
# the finite members of atoms
finite_atoms = st.one_of(segments, progressions, st.just(IntSet.empty()))


def combine(children):
    return st.one_of(
        st.builds(lambda a, b: a.union(b), children, children),
        st.builds(lambda a, b: a.intersect(b), children, children),
        st.builds(lambda a, b: a.difference(b), children, children),
        st.builds(lambda a, c: a.translate(c), children, st.integers(-7, 7)),
    )


intsets = st.recursive(atoms, combine, max_leaves=6)


# -- normal form ---------------------------------------------------------

FROZEN = [
    (IntSet.segment(0, 4).union(IntSet.segment(5, 9)), "0..9"),
    (IntSet.ray_up(0, 2).union(IntSet.ray_up(1, 2)), "0.."),
    (IntSet.progression(0, 3, 4), "0:+3*4"),
    (IntSet.ray_down(-1).union(IntSet.ray_up(3)), "..-1; 3.."),
    (IntSet.all_integers().difference(IntSet.of(0)), "..-1; 1.."),
    (IntSet.ray_up(0, 2), "0:+2*inf"),
    (IntSet.ray_down(0, 2), "0:-2*inf"),
    (IntSet.of(3, 1, 7), "1:+2*2; 7"),
    (IntSet.empty(), "empty"),
    (IntSet.of(0).translates_union(3), "0:+3*inf"),
    (IntSet.segment(0, 4).translates_union(5), "0.."),
]


@pytest.mark.parametrize("s, text", FROZEN)
def test_frozen_normal_forms(s, text):
    assert format_intset(s) == text
    assert parse_intset(text) == s


HUGE = 10**12

# normalisation works on residue intervals, so the size of the
# coordinates does not matter
FROZEN_HUGE = [
    ("0..1000000000000", lambda: IntSet.segment(0, HUGE)),
    ("..-1000000000000; 1000000000000..",
     lambda: IntSet.ray_down(-HUGE) | IntSet.ray_up(HUGE)),
    ("0:+7*1000000000000", lambda: IntSet.progression(0, 7, HUGE)),
    ("..10", lambda: parse_intset("..5; ..10")),
    # a piece of two points has no period: its gap does not set the modulus
    ("-1..1000000000",
     lambda: IntSet.of(-1, 10**9) | IntSet.segment(0, 10**9 - 1)),
    ("-1..1000000000", lambda: parse_intset("-1:+1000000001*2; 0..999999999")),
    ("1000000000", lambda: IntSet.of(-1, 10**9) & IntSet.ray_up(0)),
    ("..-2; 0..999999999", lambda: IntSet.ray_down(10**9) - IntSet.of(-1, 10**9)),
]


@pytest.mark.parametrize("text, build", FROZEN_HUGE)
def test_frozen_normal_forms_at_huge_span(text, build):
    start = time.perf_counter()
    assert format_intset(build()) == text
    assert format_intset(parse_intset(text)) == text
    assert time.perf_counter() - start < 1.0


def test_iv_norm_merges_intervals_unbounded_below():
    ivs = _iv_norm([(None, 5), (None, 10)])
    assert ivs == [(None, 10)]
    assert _iv_complement(ivs) == [(11, None)]


@given(st.lists(atoms, min_size=1, max_size=4))
def test_translate_far_commutes_with_normalisation(parts):
    raw = [pc for s in parts for pc in s.pieces]
    far = IntSet(pc.translate(10**9) for pc in raw)
    assert IntSet(raw).translate(10**9) == far
    assert win(far, 10**9 - WIN, 10**9 + WIN) == {x + 10**9 for x in win(IntSet(raw))}


far_pairs = st.builds(
    IntSet.progression, st.integers(-20, 20), st.integers(1, 10**6), st.just(2)
)
# rays of stride 1 only: rays of two residue classes below a point far
# above them make the normal form list every member up to that point
far_atoms = st.one_of(
    finite_atoms,
    st.builds(IntSet.ray_up, st.integers(-20, 20)),
    st.builds(IntSet.ray_down, st.integers(-20, 20)),
    far_pairs,
)
raw_with_far_pairs = st.lists(far_atoms, min_size=1, max_size=3).map(
    lambda parts: [pc for s in parts for pc in s.pieces]
)


@given(raw_with_far_pairs, raw_with_far_pairs)
def test_far_point_pairs_against_pointwise_oracle(ra, rb):
    a, b = IntSet(ra), IntSet(rb)

    def raw_has(raw, x):
        return any(x in pc for pc in raw)

    cases = [
        (a, lambda x: raw_has(ra, x)),
        (a | b, lambda x: raw_has(ra, x) or raw_has(rb, x)),
        (a & b, lambda x: raw_has(ra, x) and raw_has(rb, x)),
        (a - b, lambda x: raw_has(ra, x) and not raw_has(rb, x)),
    ]
    probes = set(range(-WIN, WIN + 1))
    for pc in ra + rb + [pc for s, _ in cases for pc in s.pieces]:
        for end in (pc.start, pc.max):
            if end is not None:
                probes.update((end - 1, end, end + 1))
    for s, has in cases:
        assert {x for x in probes if x in s} == {x for x in probes if has(x)}


def _iv_union(x, y):
    return _iv_norm(list(x) + list(y))


def per_residue_union(a, b):
    """The former IntSet.union: merge both operands residue by residue."""
    return _residue_algebra(_iv_union, a.pieces, b.pieces)


def union_operands(far):
    # A far point above rays of two or more strides makes the normal form
    # list every member below it, so far pairs come with stride-1 rays only.
    stride = st.just(1) if far else st.integers(1, 6)
    return st.one_of(
        finite_atoms,
        st.builds(IntSet.progression, st.integers(-20, 20), st.integers(1, 6), st.integers(3, 8)),
        st.builds(
            IntSet.progression,
            st.integers(-20, 20),
            st.integers(1, 10**6 if far else 10),
            st.just(2),
        ),
        st.builds(IntSet.ray_up, st.integers(-20, 20), stride),
        st.builds(IntSet.ray_down, st.integers(-20, 20), stride),
    )


union_lists = st.booleans().flatmap(
    lambda far: st.lists(union_operands(far), min_size=1, max_size=5)
)


@given(union_lists)
def test_union_is_the_per_residue_merge(sets):
    expected = sets[0]
    for s in sets[1:]:
        expected = per_residue_union(expected, s)
    assert sets[0].union(*sets[1:]).pieces == expected.pieces


@given(
    st.booleans().flatmap(
        lambda far: st.lists(
            st.tuples(union_operands(far), st.integers(-2, 2)), max_size=8
        )
    )
)
def test_offset_sets_is_the_per_offset_merge(pairs):
    expected = {}
    for d, c in pairs:
        expected[c] = per_residue_union(expected[c], d) if c in expected else d
    expected = {c: d for c, d in expected.items() if not d.is_empty()}
    assert offset_sets(pairs) == expected


def test_piece_is_a_validated_tuple():
    # a tuple with no instance dict, so memo keys hash and compare in C
    pc = Piece(3, 2, 4)
    assert isinstance(pc, tuple) and not hasattr(pc, "__dict__")
    assert pc == (3, 2, 4, False) and hash(pc) == hash((3, 2, 4, False))
    assert (pc.start, pc.stride, pc.length, pc.down) == (3, 2, 4, False)
    assert (pc.min, pc.max) == (3, 9) and 7 in pc and 8 not in pc
    assert pc.translate(-3) == Piece(0, 2, 4)
    assert repr(Piece(0, 1, None, down=True)) == "Piece(start=0, stride=1, length=None, down=True)"
    for args, message in [
        ((0, 0, 1), "stride must be positive, got 0"),
        ((0, 1, 0), "length must be positive, got 0"),
        ((0, 1, 2, True), "finite pieces are stored ascending"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Piece(*args)


memo_pieces = st.lists(
    st.one_of(
        st.builds(Piece, st.integers(-20, 20), st.integers(1, 6), st.integers(1, 8)),
        st.builds(Piece, st.integers(-20, 20), st.integers(1, 6), st.none(), st.booleans()),
    ),
    max_size=4,
)


@given(memo_pieces, memo_pieces, st.integers(-7, 7))
def test_memoised_algebra_equals_a_cold_memo(ra, rb, c):
    # both operand orders of each operation share one warm memo, so a memo
    # key without the operation or the operand order returns a wrong entry
    a, b = IntSet(ra), IntSet(rb)
    ops = [
        lambda: a.intersect(b), lambda: b.intersect(a),
        lambda: a.difference(b), lambda: b.difference(a),
        lambda: a.union(b), lambda: b.union(a),
        lambda: a.translate(c), lambda: b.translate(c),
    ]
    warm = [op().pieces for op in ops]
    cold = []
    for op in ops:
        _clear_memos()
        cold.append(op().pieces)
    assert warm == cold


def hull_interval(s, pad):
    """The interval from pad below s's least member to pad above its greatest."""
    lo, hi = s.min(), s.max()
    if lo is None:
        return IntSet.all_integers() if hi is None else IntSet.ray_down(hi + pad)
    return IntSet.ray_up(lo - pad) if hi is None else IntSet.segment(lo - pad, hi + pad)


def beside(a, b, gap):
    """b translated so that its hull starts gap after a's ends (or ends before
    a's starts), or None when the hulls are unbounded on the sides that face."""
    if a.max() is not None and b.min() is not None:
        return b.translate(a.max() + gap - b.min())
    if a.min() is not None and b.max() is not None:
        return b.translate(a.min() - gap - b.max())
    return None


@st.composite
def rule_pairs(draw):
    """Operand pairs that reach each hull rule of intersect and difference,
    and pairs just outside one: hulls touching, adjacent rays."""
    # mapped, not filtered: empty draws become a point
    nonempty = st.builds(lambda s, x: IntSet.of(x) if s.is_empty() else s,
                         intsets, st.integers(-20, 20))
    a = draw(nonempty)
    kind = draw(st.sampled_from(
        ["equal", "empty", "all", "hull", "apart", "touch", "rays", "other"]))
    if kind == "equal":
        b = a
    elif kind == "empty":
        b = IntSet.empty()
    elif kind == "all":
        b = IntSet.all_integers()
    elif kind == "hull":
        b = hull_interval(a, draw(st.integers(0, 3)))
        if draw(st.booleans()):  # an interval of the hull that misses an end
            b = b.difference(IntSet.of(draw(st.sampled_from([a.min(), a.max()])) or 0))
    elif kind in ("apart", "touch"):
        b = beside(a, draw(nonempty), draw(st.integers(1, 3)) if kind == "apart" else 0)
        b = draw(intsets) if b is None else b
    elif kind == "rays":
        k = draw(st.integers(-20, 20))
        a = IntSet.ray_down(k, draw(st.integers(1, 3)))
        b = IntSet.ray_up(k + draw(st.integers(0, 1)), draw(st.integers(1, 3)))
    else:
        b = draw(intsets)
    if draw(st.booleans()):
        a, b = b, a
    t = draw(st.sampled_from([0, 10**12, -(10**12)]))
    return a.translate(t), b.translate(t)


@settings(max_examples=400)
@given(rule_pairs())
@example((IntSet.segment(0, 5), IntSet.segment(5, 9)))  # hulls that share their end point
@example((IntSet.of(3), parse_intset("0:+2*10")))  # one piece of stride 2 is no interval
def test_hull_rules_give_the_general_paths_pieces(pair):
    a, b = pair
    for got, op in ((a.intersect(b), _iv_intersect), (a.difference(b), _iv_difference)):
        assert got.pieces == _residue_algebra(op, a.pieces, b.pieces).pieces
    union = IntSet(a.pieces + b.pieces + a.pieces).pieces
    assert a.union(b, a).pieces == union
    assert IntSet.empty().union(b, IntSet.empty(), a).pieces == union


def test_decided_pairs_skip_the_residue_algebra():
    a = parse_intset("1; 5:+3*5; 40:+4*inf")
    far = IntSet.ray_down(-HUGE)
    _clear_memos()
    misses = _residue_algebra.cache_info().misses
    assert a.intersect(a) is a and a.union(a, IntSet.empty()) is a
    assert a.difference(a).is_empty()
    assert a.difference(IntSet.all_integers()).is_empty()
    assert a.intersect(IntSet.ray_up(0)) is a
    assert IntSet.ray_up(0).intersect(a) is a
    assert a.intersect(far).is_empty() and a.difference(far) is a
    assert _residue_algebra.cache_info().misses == misses
    assert IntSet.empty() is IntSet.empty()


# -- what a normal form carries ------------------------------------------

# unions of residue classes: the one normal form whose shift is no normal form
RESIDUE_CLASSES = [
    parse_intset("-2:-2*inf; 0:+2*inf"),  # the evens
    IntSet.all_integers(),
    parse_intset("-3:-3*inf; -2:-3*inf; 0:+3*inf; 1:+3*inf"),
]


@given(st.one_of(intsets, st.sampled_from(RESIDUE_CLASSES)),
       st.one_of(st.integers(-7, 7), st.just(HUGE)))
@example(RESIDUE_CLASSES[0], 1)
@example(RESIDUE_CLASSES[1], -1)
@example(RESIDUE_CLASSES[2], 2)
def test_translate_is_the_normalised_shift(s, c):
    got = s.translate(c)
    want = IntSet(pc.translate(c) for pc in s.pieces)
    assert (got.pieces, got.hull) == (want.pieces, want.hull)


@given(memo_pieces)
def test_normal_forms_are_fixed_points_from_a_cold_memo(raw):
    out = IntSet(raw).pieces
    _clear_memos()
    assert _canonical_pieces(out) == out


@given(intsets)
def test_the_carried_hull_is_the_least_and_greatest_member(s):
    mins, maxs = [pc.min for pc in s.pieces], [pc.max for pc in s.pieces]
    if not s.pieces:
        assert s.hull == (math.inf, -math.inf)
        return
    assert s.hull == (-math.inf if None in mins else min(mins),
                      math.inf if None in maxs else max(maxs))


def _parsed(build):
    try:
        return build()
    except Exception as e:  # noqa: BLE001 - the outcome compared is any error
        return type(e), str(e)


block_values = st.one_of(
    st.sampled_from(["0..3", "5..", "..-9", "2:+3*4", "2..4", "nonsense", "4..1"]),
    st.integers(-3, 3), st.none(), st.lists(st.just("0..3"), max_size=1),
)


@given(
    st.one_of(st.lists(block_values, max_size=3), st.tuples(block_values),
              st.sampled_from(["0..3", 5, None, {"0..3": 1}])),
    st.one_of(st.sampled_from(["..-1; 0..", "-20..20", "1..2", "nonsense"]), st.none(),
              st.integers(-3, 3)),
)
def test_relation_parse_is_the_parsers_outcome_and_caches_no_error(blocks, ambient):
    want = _parsed(lambda: IntBlockRelation.make(
        [parse_intset(b) for b in blocks], parse_intset(ambient)))
    cached = _relation_of_texts.cache_info().currsize
    for _ in range(2):  # a second parse reads the memo when the first was cached
        assert _parsed(lambda: IntBlockRelation.parse(blocks, ambient)) == want
    if isinstance(want, tuple):
        assert _relation_of_texts.cache_info().currsize == cached


@given(st.integers(1, 60).flatmap(
    lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p - 1)))))
def test_min_shift_period_is_the_least_period(case):
    p, residues = case
    least = next(q for q in range(1, p + 1)
                 if p % q == 0 and all((r + q) % p in residues for r in residues))
    assert _min_shift_period(residues, p) == (least, {r % least for r in residues})


def test_rays_of_large_coprime_strides_normalise_in_time():
    # the modulus is 10007 * 10009; only its divisors can be periods
    start = time.perf_counter()
    s = parse_intset("0:+10007*inf; 1:+10009*inf")
    assert time.perf_counter() - start < 1.0
    assert len(s.pieces) == 20015 and 10007 * 5 in s and 10009 * 3 + 1 in s


def test_parse_reorders_and_merges():
    assert format_intset(parse_intset("5..; ..-3; 0:+2*3")) == "..-3; 0:+2*2; 4.."


def _outcome(build) -> str:
    try:
        return str(build())
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("build, want", [
    # text forms: a descending progression, one of no members, and two refused terms
    (lambda: parse_intset("5:-2*3"), "1:+2*3"),
    (lambda: parse_intset("5:+2*0"), "empty"),
    (lambda: parse_intset("5:+2*0; 1"), "1"),
    (lambda: parse_intset("3:+0*4"), "ValueError: zero stride in term '3:+0*4'"),
    (lambda: parse_intset("3:-0*inf"), "ValueError: zero stride in term '3:-0*inf'"),
    (lambda: parse_intset("5..2"), "ValueError: descending segment '5..2'"),
    # constructors: an empty segment, and progressions of no length, no stride or a
    # negative one
    (lambda: IntSet.segment(5, 2), "empty"),
    (lambda: IntSet.progression(3, 2, 0), "empty"),
    (lambda: IntSet.progression(3, 0, 1), "3"),
    (lambda: IntSet.progression(3, 0, 2), "ValueError: zero stride needs length 1"),
    (lambda: IntSet.progression(5, -2, 3), "1:+2*3"),
], ids=[
    "descending_text", "length_0_text", "length_0_and_point", "zero_stride_text",
    "zero_stride_ray", "descending_segment", "empty_segment", "length_0", "stride_0",
    "stride_0_length_2", "negative_stride",
])
def test_edge_forms_of_text_and_constructors(build, want):
    assert _outcome(build) == want


@given(intsets)
def test_format_parse_round_trip(s):
    assert parse_intset(format_intset(s)) == s


@given(intsets, intsets)
def test_equal_windows_on_equal_sets(a, b):
    # canonical form makes syntactic equality the semantic one
    if a == b:
        assert win(a) == win(b)
    elif win(a, -300, 300) == win(b, -300, 300):
        # agree on a window far wider than any stored threshold: must be equal
        if all(abs(p.min if p.min is not None else 0) < 100 and
               abs(p.max if p.max is not None else 0) < 100 for p in a.pieces + b.pieces):
            assert a == b


# -- set algebra against the window oracle --------------------------------

@given(intsets, intsets)
def test_union_window(a, b):
    assert win(a.union(b)) == win(a) | win(b)


@given(intsets, intsets)
def test_intersect_window(a, b):
    assert win(a.intersect(b)) == win(a) & win(b)


@given(intsets, intsets)
def test_difference_window(a, b):
    assert win(a.difference(b)) == win(a) - win(b)


@given(intsets, st.integers(-10, 10))
def test_translate_window(s, c):
    assert win(s.translate(c), -WIN + 10, WIN - 10) == {
        x + c for x in win(s, -WIN - 10, WIN + 10)
    } & set(range(-WIN + 10, WIN - 9))


@given(intsets, intsets)
def test_subset_agrees_with_intersection(a, b):
    assert a.is_subset(b) == (a.intersect(b) == a)


@given(intsets)
def test_complement_partitions_the_line(s):
    c = IntSet.all_integers().difference(s)
    assert win(s) | win(c) == set(range(-WIN, WIN + 1))
    assert win(s) & win(c) == set()


@given(intsets, st.integers(-6, 6).filter(bool))
def test_translates_union_window(s, c):
    got = win(s.translates_union(c), -40, 40)
    base = win(s, -240, 240)
    want = set()
    for k in range(0, 80):
        want |= {x + k * c for x in base}
    assert got == want & set(range(-40, 41))


def old_piece_translates_union(pc, c):
    """The former per-kind translates union: one ray per member of a
    finite piece, a numerical-semigroup reach array for an upward ray."""
    if c < 0:
        mirrored = old_piece_translates_union(_negate_piece(pc), -c)
        return [_negate_piece(q) for q in mirrored]
    d = pc.stride
    if pc.length is not None:
        return [Piece(pc.start + i * d, c, None) for i in range(pc.length)]
    e = math.gcd(d, c)
    if pc.down:
        return [Piece(pc.start, e, None), Piece(pc.start - e, e, None, down=True)]
    pp, qq = d // e, c // e
    bound = e * (pp - 1) * (qq - 1)  # all multiples of e >= bound are hit
    reach = [False] * (bound // e + 1)
    reach[0] = True
    for idx in range(len(reach)):
        if not reach[idx]:
            continue
        v = idx * e
        for step in (d, c):
            nxt = v + step
            if nxt <= bound:
                reach[nxt // e] = True
    out = [Piece(pc.start + bound, e, None)]
    out.extend(Piece(pc.start + i * e, 1, 1) for i in range(bound // e) if reach[i])
    return out


def old_piece_near_zero(pc):
    """The former per-kind candidates for a piece's member closest to zero."""
    d = pc.stride
    if pc.down:
        if pc.start <= 0:
            return [pc.start]
        k = pc.start // d
        cands = {pc.start - k * d, pc.start - (k + 1) * d, pc.start % d}
        return [x for x in cands if x in pc]
    if pc.length is None:
        if pc.start >= 0:
            return [pc.start]
        k = (-pc.start) // d
        cands = {pc.start + k * d, pc.start + (k + 1) * d}
        return [x for x in cands if x in pc]
    lo, hi = pc.start, pc.start + (pc.length - 1) * d
    if lo >= 0:
        return [lo]
    if hi <= 0:
        return [hi]
    k = (-lo) // d
    cands = {lo + k * d, lo + (k + 1) * d}
    return [x for x in cands if x in pc]


# raw pieces of every kind, near zero or near +-10**9
raw_pieces = st.builds(
    lambda anchor, start, stride, length, down: Piece(
        anchor + start, stride, length, down and length is None
    ),
    st.sampled_from([0, 10**9, -(10**9)]),
    st.integers(-60, 60),
    st.integers(1, 40),
    st.one_of(st.none(), st.integers(1, 60)),
    st.booleans(),
)


@given(raw_pieces, st.integers(-40, 40).filter(bool))
def test_closed_forms_match_the_per_kind_oracles(pc, c):
    want = IntSet(old_piece_translates_union(pc, c))
    assert IntSet(_piece_translates_union(pc, c)) == want
    near = min(old_piece_near_zero(pc), key=lambda x: (abs(x), x < 0))
    assert _piece_near_zero(pc) == near
    assert IntSet((pc,)).closest_to_zero() == near


# a translates union costs c / gcd(stride, c) rays per piece, whatever the
# piece's length
TRANSLATES_UNION_TIMED = [
    ("0..", lambda: IntSet.segment(0, 10**6).translates_union(3)),
    (
        "..199994; 199996:+2*2",
        lambda: IntSet.progression(0, 2, 10**5).translates_union(-5),
    ),
]


@pytest.mark.parametrize("text, build", TRANSLATES_UNION_TIMED)
def test_translates_union_of_a_long_piece_is_fast(text, build):
    _clear_memos()
    start = time.perf_counter()
    got = build()
    assert time.perf_counter() - start < 0.05
    assert format_intset(got) == text


@given(intsets)
def test_size_and_finiteness(s):
    if s.is_finite():
        assert s.size() == len(s.elements())
        assert s.size() == len(win(s, -10**6, 10**6)) or s.size() == 0
    else:
        assert s.size() == math.inf
        with pytest.raises(ValueError):
            s.elements()


@given(intsets)
def test_min_max_closest(s):
    w = win(s, -500, 500)
    if s.is_empty():
        with pytest.raises(ValueError):
            s.min()
        with pytest.raises(ValueError):
            s.max()
        return
    lo, hi = s.min(), s.max()
    # against a scan of every piece: None when some piece is a ray that way
    mins, maxs = [pc.min for pc in s.pieces], [pc.max for pc in s.pieces]
    assert lo == (None if None in mins else min(mins))
    assert hi == (None if None in maxs else max(maxs))
    # the hull each set carries, which the algebra reads
    assert s.hull == (-math.inf if lo is None else lo, math.inf if hi is None else hi)
    if s.min() is not None and abs(s.min()) < 500:
        assert s.min() == min(w)
    if s.max() is not None and abs(s.max()) < 500:
        assert s.max() == max(w)
    if w:
        c = s.closest_to_zero()
        best = min(w, key=lambda x: (abs(x), -(x >= 0)))
        if abs(best) < 400:
            assert c == best


# -- piecewise translations ----------------------------------------------

ptmaps = st.lists(
    st.tuples(intsets, st.integers(-8, 8)), min_size=0, max_size=4
).map(
    lambda parts: _pt_of(parts)
)


def _pt_of(parts):
    f = PiecewiseTranslation.empty()
    for dom, c in parts:
        g = PiecewiseTranslation.translation(dom, c)
        # keep it a partial map: later parts only add where f is undefined
        g = g.restrict(IntSet.all_integers().difference(f.domain()))
        f = f.union(g)
    return f


def pt_dict(f, lo=-WIN, hi=WIN):
    return {x: f.get(x) for x in range(lo, hi + 1) if f.get(x) is not None}


def test_ptmap_text_round_trip():
    text = "..-1 -> +0 | 0.. -> +1"
    f = parse_ptmap(text)
    assert format_ptmap(f) == text
    assert f.get(-3) == -3 and f.get(4) == 5


@given(ptmaps)
def test_ptmap_format_parse_round_trip(f):
    assert parse_ptmap(format_ptmap(f)) == f


@given(ptmaps, intsets)
def test_restrict_corestrict_windows(f, s):
    d = pt_dict(f)
    r = pt_dict(f.restrict(s))
    assert r == {x: y for x, y in d.items() if x in win(s)}
    c = pt_dict(f.corestrict(s))
    assert c == {x: y for x, y in d.items() if y in win(s, -WIN - 8, WIN + 8)}


@given(ptmaps, ptmaps)
def test_compose_window(f, g):
    h = pt_dict(f.compose(g), -40, 40)
    gd = pt_dict(g, -60, 60)
    fd = pt_dict(f, -80, 80)
    want = {x: fd[gd[x]] for x in gd if gd[x] in fd}
    assert h == {x: y for x, y in want.items() if -40 <= x <= 40}


@given(ptmaps)
def test_inverse_of_injective(f):
    w = f.injectivity_witness()
    if w is not None:
        x1, x2, y = w
        assert x1 != x2 and f.get(x1) == f.get(x2) == y
        with pytest.raises(NotInjective):
            f.inverse()
        return
    inv = f.inverse()
    d = pt_dict(f, -60, 60)
    assert {y: x for x, y in d.items() if -40 <= y <= 40} == pt_dict(inv, -40, 40)


@given(ptmaps, ptmaps)
def test_union_requires_disjoint_domains(f, g):
    overlap = f.domain().intersect(g.domain())
    if not overlap.is_empty():
        with pytest.raises(ValueError):
            f.union(g)
    else:
        assert pt_dict(f.union(g)) == {**pt_dict(g), **pt_dict(f)}
        # union skips the constructor's overlap check, not its merge
        assert f.union(g) == PiecewiseTranslation(f.pieces + g.pieces)


def test_union_of_overlapping_maps_with_one_offset_is_an_error():
    # merged by offset, the two domains would no longer show the overlap
    f = PiecewiseTranslation.translation(IntSet.segment(3, 9), 1)
    g = PiecewiseTranslation.translation(IntSet.segment(-9, 5), 1)
    with pytest.raises(ValueError, match=r"^domains overlap at 3$"):
        f.union(g)
    with pytest.raises(ValueError, match=r"^overlapping domains at 3$"):
        PiecewiseTranslation(f.pieces + ((IntSet.segment(-9, 5), 2),))


@given(ptmaps, intsets)
def test_image_preimage_windows(f, s):
    d = pt_dict(f, -2 * WIN, 2 * WIN)
    sw = win(s, -2 * WIN, 2 * WIN)
    assert win(f.image(s), -WIN, WIN) == {y for x, y in d.items() if x in sw and -WIN <= y <= WIN}
    # the preimage of s is the domain of f corestricted to s
    assert win(f.corestrict(s).domain(), -WIN, WIN) == {
        x for x, y in d.items() if y in sw and -WIN <= x <= WIN
    }


@given(ptmaps)
def test_domain_range_fixed_points(f):
    d = pt_dict(f)
    assert win(f.domain()) == set(d)
    assert {y for y in d.values() if -WIN <= y <= WIN} <= win(f.range_set())
    assert win(f.offsets().get(0, IntSet.empty())) == {x for x, y in d.items() if x == y}


@given(ptmaps, ptmaps)
def test_graph_subset_witness(f, g):
    w = f.graph_subset_witness(g)
    fd, gd = pt_dict(f, -200, 200), pt_dict(g, -200, 200)
    inside = all(gd.get(x) == y for x, y in fd.items())
    if w is None:
        assert inside or not f.is_empty()  # witness may sit outside the window
        assert all(g.get(x) == y for x, y in fd.items())
    else:
        x, y = w
        assert f.get(x) == y and g.get(x) != y


@given(ptmaps, ptmaps)
def test_graph_minus_window(f, g):
    d = pt_dict(f.graph_minus(g))
    fd, gd = pt_dict(f), pt_dict(g)
    assert d == {x: y for x, y in fd.items() if gd.get(x) != y}


def test_identity_and_offsets():
    f = parse_ptmap("0..4 -> +2 | 10.. -> -1")
    assert f.offsets() == {2: IntSet.segment(0, 4), -1: IntSet.ray_up(10)}
    i = PiecewiseTranslation.identity(IntSet.segment(0, 3))
    assert pt_dict(i) == {0: 0, 1: 1, 2: 2, 3: 3}

