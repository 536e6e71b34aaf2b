"""Quotient spaces over the finite and integer carriers, and maps on them."""

import pytest
from hypothesis import given, strategies as st

from qborel.carriers import FiniteCarrier, IntCarrier, IntSet
from qborel.quotient import (
    EndpointMismatch,
    FiniteQuotient,
    IntClassQuotient,
    IntQuotient,
    InvalidPartition,
    NotAMorphism,
    Partition,
    QMap,
    UnsupportedCarrier,
    compose,
    descend,
    image,
    lift,
    pair,
    preimage,
    product,
    saturate,
)


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


@given(partitions())
def test_partition_index_is_largest_block(p):
    assert p.index() == max(len(b) for b in p.blocks)


def test_discrete_and_indiscrete():
    assert Partition.discrete(3).num_classes == 3
    assert Partition.indiscrete(3).num_classes == 1
    assert Partition.discrete(0).num_classes == 0


# -- finite quotients and maps ----------------------------------------------

@pytest.fixture
def q5():
    return FiniteQuotient(
        FiniteCarrier(5), Partition.from_blocks(5, [(0, 1), (2,), (3, 4)])
    )


def test_quotient_projection_laws(q5):
    assert q5.size == 3
    for x in range(5):
        assert x in q5.class_members(q5.project(x))
    for q in q5.points():
        assert q5.project(q5.rep(q)) == q
        # representative is the least carrier point of the class
        assert q5.rep(q) == min(q5.class_members(q))


def test_descend_lift_round_trip(q5):
    g = {0: 2, 1: 2, 2: 0, 3: 3, 4: 3}
    f = descend(g, q5, q5)
    assert f.table == (1, 0, 2)
    lifted = lift(f)
    assert descend(dict(enumerate(lifted)), q5, q5) == f
    for x in range(5):
        assert q5.project(lifted[x]) == f(q5.project(x))


def test_descend_rejects_class_splitters(q5):
    g = {0: 0, 1: 2, 2: 2, 3: 3, 4: 3}  # class {0,1} lands in two classes
    with pytest.raises(NotAMorphism) as ei:
        descend(g, q5, q5)
    x1, x2 = ei.value.witness
    assert q5.project(x1) == q5.project(x2)
    assert q5.project(g[x1]) != q5.project(g[x2])


@given(partitions(6), st.data())
def test_compose_pointwise(p, data):
    q = FiniteQuotient(FiniteCarrier(p.n), p)
    t1 = tuple(
        data.draw(st.integers(0, q.size - 1)) for _ in range(q.size)
    )
    t2 = tuple(
        data.draw(st.integers(0, q.size - 1)) for _ in range(q.size)
    )
    f, g = QMap(q, q, t1), QMap(q, q, t2)
    h = compose(g, f)
    for x in q.points():
        assert h(x) == g(f(x))
    i = QMap.identity(q)
    assert compose(f, i) == f and compose(i, f) == f


def test_compose_requires_matching_endpoints(q5):
    other = FiniteQuotient(FiniteCarrier(2), Partition.discrete(2))
    f = QMap(q5, q5, (0, 1, 2))
    g = QMap(other, other, (0, 1))
    with pytest.raises(EndpointMismatch):
        compose(g, f)


def test_product_and_pair(q5):
    prod = product(q5, q5)
    assert prod.space.size == 9
    pl, pr = prod.projections()
    f = QMap(q5, q5, (1, 0, 2))
    both = pair(f, QMap.identity(q5), prod)
    for x in q5.points():
        e = both(x)
        assert pl(e) == f(x) and pr(e) == x
        assert prod.decode_point(e) == (f(x), x)
        assert prod.encode_point(*prod.decode_point(e)) == e


def test_product_carrier_coding(q5):
    prod = product(q5, q5)
    n = q5.carrier.size
    for x in range(n):
        for y in range(n):
            e = prod.encode_carrier(x, y)
            assert prod.decode_carrier(e) == (x, y)


def test_saturate_and_relation_domain(q5):
    assert saturate(q5, frozenset({0})) == frozenset({0, 1})
    assert saturate(q5, frozenset({2, 3})) == frozenset({2, 3, 4})


def test_image_preimage(q5):
    f = QMap(q5, q5, (1, 1, 2))
    assert image(f, frozenset({0, 1})) == frozenset({1})
    assert preimage(f, frozenset({1})) == frozenset({0, 1})
    assert preimage(f, frozenset({0})) == frozenset()


# -- integer carrier ---------------------------------------------------------

def test_int_discrete_quotient():
    q = IntQuotient(IntCarrier())
    assert q.project(-7) == -7 and q.rep(3) == 3
    assert q.ambient == IntSet.all_integers()


def test_int_class_quotient():
    q = IntClassQuotient.make(
        IntCarrier(), [IntSet.ray_down(-1), IntSet.ray_up(0)]
    )
    assert q.size == 2
    assert q.project(-5) == q.project(-1)
    assert q.project(0) == q.project(99)
    assert q.project(-5) != q.project(5)
    # representative is the class element closest to zero
    assert q.rep(q.project(0)) == 0 and q.rep(q.project(-2)) == -1


def test_int_class_quotient_validation():
    amb = IntCarrier()
    with pytest.raises(InvalidPartition):
        IntClassQuotient.make(amb, [IntSet.ray_down(0), IntSet.ray_up(0)])
    with pytest.raises(InvalidPartition):
        IntClassQuotient.make(amb, [IntSet.ray_down(-1)])
    with pytest.raises(InvalidPartition):
        IntClassQuotient.make(amb, [IntSet.empty(), IntSet.all_integers()])


def test_unknown_carrier_rejected():
    with pytest.raises(UnsupportedCarrier):
        saturate(object(), frozenset({0}))
