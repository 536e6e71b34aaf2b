"""The checkers of integer-lane data.

Each reads the IntSet and map texts a certificate stores with the
integer carrier's parsers. run_check imports this module the first time
it meets one of their kinds, so a run on finite data never loads the
carrier, and a run on integer data imports it once.
"""

from __future__ import annotations

from ..carriers import IntBlockRelation, parse_intset, parse_ptmap
from ..feldman_moore import levels_int, orbit_window_witness, weak_uniformize_int
from .certificates import _level_texts, checker, jsonable


@checker("intset_equal")
def _chk_intset_equal(data):
    ok = parse_intset(data["left"]) == parse_intset(data["right"])
    return ok, None if ok else {"left": data["left"], "right": data["right"]}


@checker("ptmap_graph_subset")
def _chk_ptmap_graph_subset(data):
    left = parse_ptmap(data["left"])
    others = [parse_ptmap(t) for t in data["others"]]
    w = left.graph_subset_witness(*others)
    return w is None, w


@checker("ptmap_within_blocks")
def _chk_ptmap_within_blocks(data):
    rel = IntBlockRelation.parse(data["blocks"], data["ambient"])
    w = rel.graph_within_witness(parse_ptmap(data["map"]))
    return w is None, w


@checker("int_orbit_window")
def _chk_int_orbit_window(data):
    rel = IntBlockRelation.parse(data["blocks"], data["ambient"])
    maps = [parse_ptmap(t) for t in data["maps"]]
    w = orbit_window_witness(rel, maps, window=data["window"])
    return w is None, w


@checker("int_levels")
def _chk_int_levels(data):
    rel = IntBlockRelation.parse(data["blocks"], data["ambient"])
    levels = levels_int(parse_ptmap(data["g"]), rel, bound=data["bound"])
    got = _level_texts(levels)
    expected = data["expected"]
    mismatches = {
        key: {"got": got[key], "expected": expected[key]}
        for key in got
        if parse_intset(got[key]) != parse_intset(expected[key])
    }
    return not mismatches, mismatches or None


@checker("int_least_index")
def _chk_int_least_index(data):
    maps = [parse_ptmap(t) for t in data["maps"]]
    got = weak_uniformize_int(maps).phi
    ok = got == parse_ptmap(data["phi"])
    return ok, None if ok else str(got)


@checker("ptmap_family_within")
def _chk_ptmap_family_within(data):
    rel = IntBlockRelation.parse(data["blocks"], data["ambient"])
    ambient = rel.ambient
    for i, text in enumerate(data["maps"]):
        f = parse_ptmap(text)
        if data.get("bijections") and (
            f.domain() != ambient or f.range_set() != ambient
        ):
            return False, {"map": i, "law": "bijection"}
        w = f.injectivity_witness()
        if w is not None:
            return False, {"map": i, "law": "injective", "witness": jsonable(w)}
        w = rel.graph_within_witness(f)
        if w is not None:
            return False, {"map": i, "law": "within", "witness": jsonable(w)}
    return True, None
