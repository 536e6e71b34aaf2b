"""The plain value classes: constructor, ==, hash, immutability and repr."""

import pytest

from qborel.actions import FiniteGroup, GroupAction
from qborel.cantor import canonicalize, make_truncated_model
from qborel.carriers import IntBlockRelation, IntSet
from qborel.cli.certificates import Certificate
from qborel.cli.instance import InstanceFile
from qborel.quotient import Partition
from qborel.relations import (
    ChainStep,
    CheckOutcome,
    EnumeratedEquivalence,
    EnumReport,
    generate_equivalence,
)

Z2 = FiniteGroup(("e", "s"), ((0, 1), (1, 0)))

FROZEN = [
    Partition.from_blocks(3, [(0, 2), (1,)]),
    ChainStep(4, 1, True),
    EnumeratedEquivalence.make(2, [{0: 1, 1: 0}]),
    # blocks that cover the integers, beside the ambient set they fill
    IntBlockRelation.make([IntSet.ray_down(-1), IntSet.segment(0, 3), IntSet.ray_up(4)]),
    Z2,
    GroupAction(Z2, 2, ((0, 1), (1, 0))),
    canonicalize("0", "01", 2),
    make_truncated_model(2, 2, 1),
]


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_values_are_immutable_and_hash_by_value(value):
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], None)
    twin = type(value)(*(getattr(value, f) for f in type(value)._fields))
    assert twin == value and hash(twin) == hash(value)
    assert {value: 1}[twin] == 1


def test_partition_equality_leaves_class_of_out():
    p = Partition.from_blocks(3, [(0, 2), (1,)])
    q = Partition(p.n, p.blocks, ())
    assert p == q and hash(p) == hash(q)
    assert p != Partition.discrete(3)


def test_equality_needs_the_same_class():
    assert CheckOutcome(True) == CheckOutcome(True, None)
    assert CheckOutcome(True) != CheckOutcome(False)
    assert CheckOutcome(True) != (True, None)
    assert ChainStep(0, None) != CheckOutcome(0, None)


def test_mutable_values_are_unhashable():
    with pytest.raises(TypeError):
        hash(CheckOutcome(True))


def test_constructor_defaults():
    assert ChainStep(3, None).reverse is False
    assert ChainStep(point=3, via=0, reverse=True).reverse is True
    assert IntBlockRelation(()).ambient == IntSet.all_integers()
    a, b = Certificate("x"), Certificate("x")
    a.outputs["k"] = 1
    a.checks.append({})
    assert (b.outputs, b.checks, b.arguments, b.inputs) == ({}, [], {}, [])
    f, g = InstanceFile(), InstanceFile()
    f.maps["m"] = None
    assert g.maps == {}


def test_repr_lists_the_fields_in_order():
    report = EnumReport(CheckOutcome(True), CheckOutcome(False, (1, 0)), CheckOutcome(True))
    assert repr(report) == (
        "EnumReport(reflexive=CheckOutcome(ok=True, witness=None), "
        "symmetric=CheckOutcome(ok=False, witness=(1, 0)), "
        "transitive=CheckOutcome(ok=True, witness=None))"
    )
    assert list(vars(report)) == ["reflexive", "symmetric", "transitive"]
    assert repr(ChainStep(2, 0)) == "ChainStep(point=2, via=0, reverse=False)"
    # the per-run line cache is neither shown nor compared
    assert repr(Certificate("x")) == (
        "Certificate(command='x', arguments={}, inputs=[], outputs={}, checks=[], "
        "tool='qborel', version='0.1.0')"
    )


def test_closure_layers_cache_their_chain_lengths():
    _, layers = generate_equivalence(3, [{0: 1, 1: 2}])
    assert layers.stabilization_index == 2
    assert vars(layers)["stabilization_index"] == 2
