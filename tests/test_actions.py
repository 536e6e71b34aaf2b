"""Finite group actions on quotient points, cocycles, and displacement fibers."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qborel.actions import (
    Cocycle,
    FiniteGroup,
    GroupAction,
    NotASubgroup,
    NotFree,
    Partition,
    cocycle_from_free_action,
    excess_domain,
    freeness_witness,
    involution_fiber_report,
    normalizer,
    orbit_equivalence,
    verify_cocycle,
)
from qborel.relations import generate_equivalence


# -- groups ------------------------------------------------------------------

def test_trivial_and_cyclic():
    t = FiniteGroup.trivial()
    assert t.size == 1 and t.mul(0, 0) == 0 and t.inv(0) == 0
    c4 = FiniteGroup.cyclic(4)
    assert c4.size == 4
    for a, b in itertools.product(range(4), repeat=2):
        assert c4.mul(a, b) == (a + b) % 4
    assert c4.inv(3) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symmetric_group_law(k):
    g = FiniteGroup.symmetric(k)
    import math

    assert g.size == math.factorial(k)
    # table composes the stored permutations
    for a in range(g.size):
        pa = g.permutation_of(a)
        for b in range(g.size):
            pb = g.permutation_of(b)
            composed = tuple(pa[pb[i]] for i in range(k))
            assert g.permutation_of(g.mul(a, b)) == composed


def test_symmetric_labels_sorted():
    s3 = FiniteGroup.symmetric(3)
    assert s3.labels == ("012", "021", "102", "120", "201", "210")
    assert s3.labels[0] == "012"  # identity first


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), ((0, 1), (1, 1)))  # repeated row entry
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), ((1, 0), (0, 1)))  # identity not first
    # associativity failure: a 3-table that is a quasigroup but not a group
    with pytest.raises(ValueError):
        FiniteGroup(
            ("e", "a", "b"),
            ((0, 1, 2), (1, 0, 2), (2, 1, 0)),
        )


def test_subgroup_witness():
    s3 = FiniteGroup.symmetric(3)
    swap01 = s3.labels.index("102")
    assert s3.subgroup_witness([0, swap01]) is None
    rot = s3.labels.index("120")
    w = s3.subgroup_witness([0, rot])  # not closed: rot*rot missing
    assert w is not None
    assert s3.subgroup_witness([swap01]) is not None  # identity missing


# -- actions -----------------------------------------------------------------

def regular_action(g):
    """The group acting on itself by left multiplication."""
    maps = tuple(
        tuple(g.mul(a, x) for x in range(g.size)) for a in range(g.size)
    )
    return GroupAction(g, g.size, maps)


@pytest.mark.parametrize("k", [2, 3])
def test_regular_action_is_free_and_transitive(k):
    g = FiniteGroup.symmetric(k)
    act = regular_action(g)
    assert freeness_witness(act) is None
    assert orbit_equivalence(act) == Partition.indiscrete(g.size)


def test_action_validation():
    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        GroupAction(c2, 2, ((0, 1), (0, 0)))  # non-bijective generator
    with pytest.raises(ValueError):
        GroupAction(c2, 2, ((1, 0), (0, 1)))  # identity must act as identity
    c4 = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError):
        # square of the generator acts wrong: not a homomorphism
        GroupAction(
            c4, 4, (
                (0, 1, 2, 3),
                (1, 2, 3, 0),
                (0, 1, 2, 3),
                (3, 0, 1, 2),
            )
        )


def test_orbit_equivalence_matches_closure():
    c3 = FiniteGroup.cyclic(3)
    act = GroupAction(
        c3, 6, (
            (0, 1, 2, 3, 4, 5),
            (1, 2, 0, 4, 5, 3),
            (2, 0, 1, 5, 3, 4),
        )
    )
    p = orbit_equivalence(act)
    maps = [{x: act.act(a, x) for x in range(6)} for a in range(3)]
    q, _ = generate_equivalence(6, maps)
    assert p == q == Partition.from_blocks(6, [(0, 1, 2), (3, 4, 5)])


def test_non_free_witness():
    c2 = FiniteGroup.cyclic(2)
    act = GroupAction(c2, 2, ((0, 1), (1, 0)))
    assert freeness_witness(act) is None
    fixing = GroupAction(c2, 2, ((0, 1), (0, 1)))
    w = freeness_witness(fixing)
    assert w is not None
    a, x = w
    assert a != 0 and fixing.act(a, x) == x


def test_subaction_reindexes():
    s3 = FiniteGroup.symmetric(3)
    act = regular_action(s3)
    rotations = [0, s3.labels.index("120"), s3.labels.index("201")]
    sub = act.subaction(rotations)
    assert sub.group.size == 3
    assert orbit_equivalence(sub).num_classes == 2
    with pytest.raises(NotASubgroup):
        act.subaction([0, s3.labels.index("120")])


# -- cocycles ------------------------------------------------------------------

def two_orbit_free_action():
    c3 = FiniteGroup.cyclic(3)
    return GroupAction(
        c3, 6, (
            (0, 1, 2, 3, 4, 5),
            (1, 2, 0, 4, 5, 3),
            (2, 0, 1, 5, 3, 4),
        )
    )


def test_cocycle_from_free_action_laws():
    act = two_orbit_free_action()
    coc = cocycle_from_free_action(act)
    for (x, y), a in coc.theta.items():
        assert act.act(a, x) == y
    rep = verify_cocycle(coc)
    assert rep.ok and rep.moves is None and rep.chains is None
    # composition law directly
    for x, y in itertools.product(range(3), repeat=2):
        for z in range(3):
            ab = coc(x, y)
            bc = coc(y, z)
            assert coc(x, z) == act.group.mul(bc, ab)


def test_cocycle_rejects_non_free():
    c2 = FiniteGroup.cyclic(2)
    fixing = GroupAction(c2, 2, ((0, 1), (0, 1)))
    with pytest.raises(NotFree):
        cocycle_from_free_action(fixing)


def test_verify_cocycle_catches_tampering():
    act = two_orbit_free_action()
    coc = cocycle_from_free_action(act)
    theta = dict(coc.theta)
    # break one move
    (x, y), a = next(iter(sorted(theta.items())))
    bad_a = (a + 1) % 3
    broken = Cocycle(act, {**theta, (x, y): bad_a})
    rep = verify_cocycle(broken)
    assert not rep.ok
    assert rep.moves is not None or rep.chains is not None


def test_verify_cocycle_chain_failure_without_move_failure():
    # swap the values on a 3-chain so each move is still valid but the
    # composition law breaks
    act = two_orbit_free_action()
    coc = cocycle_from_free_action(act)
    theta = dict(coc.theta)
    theta[(0, 1)] = 1   # correct: 1 sends 0 to 1
    theta[(1, 2)] = 1   # correct
    theta[(0, 2)] = 1   # wrong composite (should be 2) but a valid move? no:
    # act(1, 0) = 1 != 2, so that IS a move failure; instead drop to a pair
    # table with only the chain entries, composite absent
    partial = {k: theta[k] for k in [(0, 1), (1, 2)]}
    rep = verify_cocycle(Cocycle(act, partial))
    assert not rep.ok and rep.chains is not None
    assert rep.chains == (0, 1, 2)


def test_pair_classes_tile_theta():
    act = two_orbit_free_action()
    coc = cocycle_from_free_action(act)
    classes = coc.pair_classes()
    assert set(classes) == set(range(3))
    seen = set()
    for a, pairs in classes.items():
        for x, y in pairs:
            assert coc(x, y) == a
            seen.add((x, y))
    assert seen == set(coc.theta)


# -- displacement fibers -----------------------------------------------------------

def test_involution_fiber_report():
    act = two_orbit_free_action()
    coc = cocycle_from_free_action(act)
    # involution swapping 0<->1 and 3<->4 moves by 1 one way, 2 the other
    f = {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5}
    rep = involution_fiber_report(coc, f)
    assert rep["fibers"][1] == 2 and rep["fibers"][2] == 2
    assert rep["mapping"][1] == 2 and rep["mapping"][2] == 1
    # fixed points sit in the identity fiber, mapped to itself
    assert rep["fibers"][0] == 2 and rep["mapping"][0] == 0


# -- normalizer and excess -----------------------------------------------------------

def test_normalizer_of_point_stabilizer():
    s3 = FiniteGroup.symmetric(3)
    swap01 = s3.labels.index("102")
    norm = normalizer(s3, [0, swap01])
    assert tuple(s3.labels[a] for a in norm) == ("012", "102")


def test_normalizer_whole_group_and_trivial():
    s3 = FiniteGroup.symmetric(3)
    assert normalizer(s3, range(6)) == tuple(range(6))
    assert normalizer(s3, [0]) == tuple(range(6))  # trivial subgroup is normal
    rotations = (0, s3.labels.index("120"), s3.labels.index("201"))
    assert normalizer(s3, rotations) == tuple(range(6))  # index 2: normal


def test_normalizer_rejects_non_subgroup():
    s3 = FiniteGroup.symmetric(3)
    with pytest.raises(NotASubgroup):
        normalizer(s3, [0, s3.labels.index("120")])


@given(st.integers(2, 5))
def test_normalizer_contains_subgroup(k):
    g = FiniteGroup.cyclic(k)
    norm = normalizer(g, range(k))
    assert set(norm) == set(range(k))


def test_excess_domain():
    fine = Partition.from_blocks(6, [(0, 1), (2, 3), (4, 5)])
    within = Partition.from_blocks(6, [(0, 1, 2), (3, 4, 5)])
    # block (2,3) straddles the two within-classes: both its points excess
    assert excess_domain(fine, within) == frozenset({2, 3})
    assert excess_domain(within, within) == frozenset()
    assert excess_domain(Partition.discrete(6), within) == frozenset()
