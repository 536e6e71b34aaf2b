"""Quotient spaces: a finite quotient is its Partition."""

import pytest
from hypothesis import example, given, strategies as st

from qborel.quotient import InvalidPartition, Partition
from qborel.record import _clear_memos


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


def _outcome(build, n, blocks):
    """What build(n, blocks) gives, with its n's type, or the error it raises."""
    try:
        return repr(build(n, blocks))
    except Exception as e:
        return type(e).__name__, str(e)


# how a stored copy of joined blocks may differ from them
EDITS = {
    "as joined": lambda n, blocks: (n, blocks),
    "blocks reversed": lambda n, blocks: (n, blocks[::-1]),
    "a block reversed": lambda n, blocks: (n, [blocks[-1][::-1], *blocks[:-1]]),
    "a point twice": lambda n, blocks: (n, [blocks[0] + blocks[0][:1], *blocks[1:]]),
    "a point outside": lambda n, blocks: (n, [*blocks, [n]]),
    "an empty block": lambda n, blocks: (n, [*blocks, []]),
    "n one more": lambda n, blocks: (n + 1, blocks),
    "n a float": lambda n, blocks: (float(n), blocks),
    "n a text": lambda n, blocks: (str(n), blocks),
    "n a bool": lambda n, blocks: (bool(n), blocks),
}


@given(st.lists(partition_and_pairs(), min_size=1, max_size=3), st.integers(0, 2),
       st.sampled_from(sorted(EDITS)))
# True is 1, and 5.0 is 5, to a dict: only the n a stored partition has is read
@example([(Partition.discrete(1), [])], 0, "n a bool")
@example([(Partition.from_blocks(5, [(0, 1, 2), (3, 4)]), [(0, 1), (1, 2), (3, 4)])],
         0, "n a float")
def test_joined_gives_what_from_blocks_gives(joins, pick, edit):
    # after any joins of a run, the stored blocks of one of them, edited or not,
    # read back exactly what building them gives, value or error
    _clear_memos()
    joined = [Partition.from_pairs(p.n, pairs) for p, pairs in joins]
    p = joined[pick % len(joined)]
    n, blocks = EDITS[edit](p.n, [list(b) for b in p.blocks])
    assert _outcome(Partition.joined, n, blocks) == _outcome(Partition.from_blocks, n, blocks)
    if edit == "as joined":  # read back, not built again
        read = Partition.joined(n, blocks)
        assert any(read is q for q in joined)


def test_a_partition_joined_on_an_n_that_is_no_int_is_not_kept():
    # range(True) is range(1): from_pairs joins Partition(True, ...), which an int 1 must not read
    _clear_memos()
    Partition.from_pairs(True, [])
    assert _outcome(Partition.joined, 1, [[0]]) == _outcome(Partition.from_blocks, 1, [[0]])


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
