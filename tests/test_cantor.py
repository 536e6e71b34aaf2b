"""Eventually periodic binary-and-beyond words, their tail relations, and
the worked model gallery.

The oracle for word procedures is the letter stream itself: two words are
tail-equal iff their letters agree from max(preperiod) onward over a full
common period, and shift-equal iff some bounded pair of shifts tail-agree.
"""

import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from qborel.cantor import (
    AlphabetMismatch,
    BadParameters,
    EventuallyPeriodicWord,
    UnknownExample,
    canonicalize,
    e0_equivalent,
    et_equivalent,
    example_gallery,
    letter_action,
    make_restricted_model,
    make_truncated_model,
)
from qborel.actions import freeness_witness, involution_fiber_report, orbit_equivalence
from qborel.quotient import Partition


def words(k=2, max_u=4, max_w=3):
    digits = st.integers(0, k - 1).map(str)
    return st.tuples(
        st.lists(digits, max_size=max_u).map("".join),
        st.lists(digits, min_size=1, max_size=max_w).map("".join),
    ).map(lambda uw: canonicalize(uw[0], uw[1], k))


def stream_equal_from(x, y, start, length):
    return all(
        x.letter_at(i) == y.letter_at(i) for i in range(start, start + length)
    )


def shift(x):
    """Drop the first letter."""
    if x.u:
        return canonicalize(x.u[1:], x.w, x.k)
    return canonicalize("", x.w[1:] + x.w[0], x.k)


def oracle_e0(x, y):
    start = max(len(x.u), len(y.u))
    length = math.lcm(len(x.w), len(y.w))
    return stream_equal_from(x, y, start, length)


def oracle_et(x, y):
    lx, ly = len(x.u) + len(x.w), len(y.u) + len(y.w)
    xs, ys = x, y
    for l in range(lx + 1):
        ys = y
        for m in range(ly + 1):
            if oracle_e0(xs, ys):
                return True
            ys = shift(ys)
        xs = shift(xs)
    return False


# -- canonical form -------------------------------------------------------------

def test_canonicalize_absorbs_rotations():
    x = canonicalize("0110", "10", 2)
    assert (x.u, x.w) == ("01", "10")
    assert canonicalize("1", "1", 2) == canonicalize("", "1", 2)
    assert canonicalize("", "0101", 2) == canonicalize("", "01", 2)


def test_canonicalize_validation():
    with pytest.raises(ValueError):
        canonicalize("", "0", 1)
    with pytest.raises(ValueError):
        canonicalize("", "0", 11)
    with pytest.raises(ValueError):
        canonicalize("2", "0", 2)
    with pytest.raises(ValueError):
        canonicalize("", "", 2)


@given(words(2), st.integers(0, 30))
def test_canonicalize_preserves_letters(x, i):
    # recanonicalizing with padding gives the same stream
    y = canonicalize(x.u + x.w, x.w, x.k)
    assert x == y
    assert x.letter_at(i) == y.letter_at(i)


@given(words(3))
def test_canonical_period_is_primitive(x):
    w = x.w
    for d in range(1, len(w)):
        if len(w) % d == 0:
            assert w != w[: d] * (len(w) // d)


@given(words(2), words(2))
def test_identity_of_canonical_forms_is_stream_identity(x, y):
    same_stream = stream_equal_from(
        x, y, 0, max(len(x.u), len(y.u)) + math.lcm(len(x.w), len(y.w))
    )
    assert (x == y) == same_stream


def test_prefix():
    x = canonicalize("01", "10", 2)
    assert x.prefix(8) == "01101010"


# -- tail equality ----------------------------------------------------------------

@given(words(2), words(2))
def test_e0_matches_stream_oracle(x, y):
    assert e0_equivalent(x, y) == oracle_e0(x, y)


@given(words(3, max_u=3, max_w=3), words(3, max_u=3, max_w=3))
def test_e0_matches_stream_oracle_k3(x, y):
    assert e0_equivalent(x, y) == oracle_e0(x, y)


@given(words(2))
def test_e0_reflexive_and_shift_invariant_tail(x):
    assert e0_equivalent(x, x)
    # changing finitely many letters stays equivalent
    flipped = canonicalize(
        "".join("1" if c == "0" else "0" for c in x.u), x.w, 2
    )
    assert e0_equivalent(x, flipped)


def test_e0_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        e0_equivalent(canonicalize("", "0", 2), canonicalize("", "0", 3))


# -- shift equivalence ---------------------------------------------------------------

@given(words(2), words(2))
def test_et_matches_shift_oracle(x, y):
    assert et_equivalent(x, y) == oracle_et(x, y)


@given(words(2), st.integers(0, 6))
def test_et_absorbs_shifts(x, n):
    y = x
    for _ in range(n):
        y = shift(y)
    assert et_equivalent(x, y)


@given(words(2), words(2))
def test_et_coarsens_e0(x, y):
    if e0_equivalent(x, y):
        assert et_equivalent(x, y)


def test_et_distinguishes_periods():
    assert not et_equivalent(
        canonicalize("", "01", 2), canonicalize("", "0", 2)
    )
    assert et_equivalent(
        canonicalize("111", "01", 2), canonicalize("0", "10", 2)
    )


# -- the shift oracle -------------------------------------------------------------------

@given(words(2), st.integers(0, 20))
def test_shift_moves_the_stream(x, i):
    assert shift(x).letter_at(i) == x.letter_at(i + 1)


# -- truncated models --------------------------------------------------------------------

def test_truncated_model_shape():
    m = make_truncated_model(2, 3, 1)
    assert len(m.words) == 8 and m.quotient.size == 4
    assert not m.restricted
    # classes collect words sharing the length-(n-t) suffix
    for w in m.words:
        q = m.class_of_word(w)
        assert m.class_suffix(q) == m.suffix_of(w)
    for q in range(4):
        members = m.quotient.class_members(q)
        assert len(members) == 2  # k^t


def test_truncated_model_validation():
    with pytest.raises(BadParameters):
        make_truncated_model(2, 3, 3)
    with pytest.raises(BadParameters):
        make_truncated_model(2, 0, 0)
    with pytest.raises(BadParameters):
        make_truncated_model(1, 3, 1)


def test_model_word_count_is_capped():
    assert len(make_truncated_model(2, 8, 1).words) == 256
    for k, n in ((2, 9), (3, 6), (2, 10**9)):
        with pytest.raises(BadParameters, match="exceed the model cap"):
            make_truncated_model(k, n, 1)
    with pytest.raises(BadParameters):
        example_gallery("ex35", n=40)


def test_restricted_model_drops_fixed_suffixes():
    r = make_restricted_model(3, 3, 1)
    assert r.restricted
    assert r.quotient.size == 6  # 9 suffixes minus 3 constant ones
    assert len(r.words) == 18
    suffixes = {r.class_suffix(q) for q in range(6)}
    assert all(len(set(s)) > 1 for s in suffixes)  # nothing constant survives


def test_letter_action_on_restricted_model():
    r = make_restricted_model(3, 3, 1)
    act = letter_action(r)
    assert act.group.labels == ("012", "021", "102", "120", "201", "210")
    assert act.n == 6
    # permuting letters permutes suffix classes accordingly
    sigma = act.group.permutation_of(2)  # "102"
    for q in range(6):
        s = r.class_suffix(q)
        moved = "".join(str(sigma[int(c)]) for c in s)
        assert r.class_suffix(act.act(2, q)) == moved


# -- gallery ---------------------------------------------------------------------------------

def test_gallery_all_instances_pass_their_checks():
    for name in ("ex34", "ex35", "ex36", "ex37", "et_shift"):
        g = example_gallery(name)
        assert g.ok, (name, g.checks)


def test_gallery_ex34_values():
    g = example_gallery("ex34")
    assert g.summary == {"classes": 4, "orbit_classes": 2, "index": 2}
    assert g.checks["involution_generates_orbit"]


def test_gallery_ex35_values():
    g = example_gallery("ex35")
    assert g.summary["index"] == 3
    assert g.summary["carrier_points"] == 16
    assert g.summary["transversal"] == (0, 1)


def _ex35_pairwise(words, t):
    """Oracle: the ex35 partitions joined pair by pair, as first written."""
    m = len(words)

    def suffix(i):
        return words[i % m][t:]

    def flip(s):
        return s.translate(str.maketrans("01", "10"))

    eq_pairs = []
    for i in range(m):
        for j in range(m):
            if suffix(i) == suffix(j):
                eq_pairs += [(i, j), (m + i, m + j)]
            if suffix(i) == flip(suffix(j)):
                eq_pairs.append((i, j))
    fine = Partition.from_pairs(2 * m, eq_pairs)
    coarse = Partition.from_pairs(2 * m, [
        (i, j)
        for i in range(2 * m)
        for j in range(2 * m)
        if suffix(i) == suffix(j) or suffix(i) == flip(suffix(j))
    ])
    over = Partition.from_pairs(fine.num_classes, [
        (fine.class_of[i], fine.class_of[j])
        for i in range(2 * m)
        for j in range(2 * m)
        if coarse.same(i, j)
    ])
    return fine, over


@pytest.mark.parametrize("n", range(2, 7))
def test_gallery_ex35_matches_pairwise_oracle(n):
    for t in range(n):
        g = example_gallery("ex35", n=n, t=t)
        fine, over = _ex35_pairwise(g.data["base"].words, t)
        assert g.data["space"].partition == fine
        assert g.data["over"] == over


def test_gallery_ex35_at_the_word_cap_is_fast():
    start = time.perf_counter()
    g = example_gallery("ex35", n=8)
    assert time.perf_counter() - start < 0.2
    assert g.summary["carrier_points"] == 512


def test_gallery_ex36_values():
    g = example_gallery("ex36")
    assert g.summary["index"] == 3
    assert g.summary["normalizer"] == ("012", "102")
    assert g.summary["excess_size"] == 6
    act, sub = g.data["action"], g.data["sub"]
    assert freeness_witness(act.subaction(sub)) is None


def test_gallery_ex37_values():
    g = example_gallery("ex37")
    assert g.summary["fiber_sizes"] == {0: 3, 1: 3, 2: 3}
    assert g.summary["fiber_mapping"] == {0: 0, 1: 2, 2: 1}
    rep = involution_fiber_report(g.data["cocycle"], g.data["involution"])
    assert rep["mapping"] == {0: 0, 1: 2, 2: 1}


def test_gallery_et_shift_values():
    g = example_gallery("et_shift")
    assert g.summary["g"] == "..-1 -> +0 | 0.. -> +1"
    assert g.summary["acceleration"] == (1, 1, 1)
    assert g.summary["cover_first"] == "1:+2*inf -> -1 | ..-1 -> +0 | 0:+2*inf -> +1"
    assert g.summary["cover_second"] == "2:+2*inf -> -1 | ..0 -> +0 | 1:+2*inf -> +1"


def test_gallery_parameter_overrides():
    g = example_gallery("ex34", k=2, n=4, t=2)
    assert g.ok
    assert g.params == {"k": 2, "n": 4, "t": 2}


def test_gallery_unknown_name():
    with pytest.raises(UnknownExample):
        example_gallery("nope")
