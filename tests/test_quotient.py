"""Quotient spaces: a finite quotient is its Partition."""

import pytest
from hypothesis import example, given, strategies as st

from qborel.quotient import InvalidPartition, Partition


def partitions(max_n=8):
    # random partition as a class map 0..n-1 -> class ids
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
            lambda cm: Partition.from_class_map(cm)
        )
    )


# -- partitions ------------------------------------------------------------

def test_partition_canonical_block_order():
    p = Partition.from_blocks(5, [(3, 4), (2,), (0, 1)])
    assert p.blocks == ((0, 1), (2,), (3, 4))
    assert p.num_classes == 3
    assert p.block_of(4) == (3, 4)
    assert p.same(0, 1) and not p.same(1, 2)


def test_partition_rejects_overlap_and_bounds():
    with pytest.raises(InvalidPartition):
        Partition.from_blocks(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidPartition):
        Partition.from_blocks(3, [(0,), (5,)])
    with pytest.raises(InvalidPartition):
        Partition.from_blocks(3, [(0, 1)])  # 2 uncovered


@given(partitions())
def test_partition_round_trips(p):
    assert Partition.from_blocks(p.n, p.blocks) == p
    assert Partition.from_class_map(p.class_of) == p
    assert Partition.from_pairs(p.n, p.pairs()) == p


@st.composite
def partition_and_pairs(draw):
    # pairs inside 0..n-1: each block's path half the time, and a few more
    p = draw(partitions())
    point = st.integers(0, p.n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=p.n))
    if draw(st.booleans()):
        pairs += [(b[i], b[i + 1]) for b in p.blocks for i in range(len(b) - 1)]
    return p, draw(st.permutations(pairs))


@given(partition_and_pairs())
# the join count alone matches, then the label count alone
@example((Partition.from_blocks(3, [(0, 1), (2,)]), [(1, 2)]))
@example((Partition.discrete(2), [(0, 1)]))
def test_generated_by_is_equality_with_the_generated_partition(case):
    p, pairs = case
    assert p.generated_by(pairs) == (Partition.from_pairs(p.n, pairs) == p)


def test_generated_by_is_false_on_a_pair_outside_the_points():
    assert not Partition.discrete(2).generated_by([(0, 5)])
    assert not Partition.from_blocks(2, [(0, 1)]).generated_by([(0, 1), (-1, 0)])
    assert Partition.discrete(0).generated_by([])


@given(partitions())
def test_partition_index_is_largest_block(p):
    assert p.index() == max(len(b) for b in p.blocks)


def test_discrete_and_indiscrete():
    assert Partition.discrete(3).num_classes == 3
    assert Partition.from_blocks(3, [range(3)]).num_classes == 1
    assert Partition.discrete(0).num_classes == 0


@given(partitions())
def test_quotient_projection_laws(p):
    # quotient points are class ids, read through class_of and blocks
    for x in range(p.n):
        assert x in p.blocks[p.class_of[x]]
    for q in range(p.num_classes):
        assert p.class_of[p.blocks[q][0]] == q
        # the representative is the least point of the class
        assert p.blocks[q][0] == min(p.blocks[q])
