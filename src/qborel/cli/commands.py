"""The certifying command handlers and the helpers they share.

The dispatcher in cli.main imports this module, and the instance parser
with it, the first time a run reads an instance file, a gallery example
or index --expect: a verify, which reads none of them, compiles neither.
"""

from __future__ import annotations

import json
from math import inf

from ..errors import UnsupportedCarrier
from ..quotient import Partition
from ..relations import (
    chain_witness,
    checked_enumeration,
    enumerated_partition,
    generate_equivalence,
    index2_involution,
    index_over,
    min_selector,
    tail_equivalence,
)
from .certificates import Certificate, _level_texts
from .instance import ActionDecl, GroupDecl, InstanceFile, MapDecl, RelDecl, SpaceDecl
from .main import UsageError, _expected_index, _write_output


def _pick(
    inst, table: dict, flag_value, directive_key: str, what: str,
    lane: str | None = None, mismatch: str = "",
):
    """A named object: flag first, then `set` directive, then sole entry.

    With a lane ("finite" or "int"), a map of the other lane is a usage
    error that says `mismatch`.
    """
    name = flag_value
    if name is None:
        name = inst.directives.get(directive_key)
    if name is None and len(table) == 1:
        name = next(iter(table))
    if name is None:
        if not table:
            raise UsageError(f"the instance declares no {what}")
        raise UsageError(f"no {what} selected; pass --{directive_key}")
    if name not in table:
        raise UsageError(f"{what} {name!r} not found in the instance")
    if lane is not None and table[name].kind != lane:
        raise UsageError(mismatch)
    return table[name]


def _map_list(args, inst, lane: str, mismatch: str) -> list:
    """The maps --maps or the `maps` directive names, or the sole map of
    the file, all of one lane.

    Maps of two lanes, or of the other lane, are usage errors; the latter
    says `mismatch`.
    """
    names = args.maps
    if names is None:
        names = inst.directives.get("maps")
    if names is None and len(inst.maps) == 1:
        names = next(iter(inst.maps))
    if names is None:
        if not inst.maps:
            raise UsageError("the instance declares no map")
        raise UsageError("no maps selected; pass --maps name,name,...")
    out = [_pick(inst, inst.maps, s.strip(), "maps", "map") for s in names.split(",")]
    if len({d.kind for d in out}) > 1:
        raise UsageError("maps must all live on the same carrier kind")
    if out[0].kind != lane:
        raise UsageError(mismatch)
    return out


def _action_or_rel(args, inst: InstanceFile):
    """The action or relation a command reads: the relation when --rel is
    given, or when the file declares relations and no --action is given;
    otherwise the action.
    """
    if not args.rel and (args.action or (not inst.rels and inst.actions)):
        return _pick(inst, inst.actions, args.action, "action", "action")
    return _pick(inst, inst.rels, args.rel, "rel", "relation")


def _rel_partition(decl) -> tuple:
    """A finite relation's partition, and its enumeration check's values if given by graphs."""
    if decl.kind == "partition":
        return decl.value, {}
    if decl.kind != "graphs":
        raise UsageError("this command needs a finite relation")
    # the relation the graphs enumerate, from the check the enumeration_laws row
    # reads back; when they fail the laws, what they join (the parser kept them in 0..n-1)
    enum = decl.value
    rel, _ = checked_enumeration(enum.graph_dicts(), enum.n)
    if rel is None:
        rel = Partition.from_pairs(enum.n, enum.pairs())
    return rel, _enumeration(enum)


def _enumeration(enum) -> dict:
    """The values of the check that the graphs of enum pass the enumeration laws."""
    return {"n": enum.n, "graphs": [list(g) for g in enum.graphs]}


def _blocks_of(p) -> list:
    return [list(b) for b in p.blocks]


def _int_relation(rel) -> dict:
    """The blocks and ambient of an integer relation as the texts checks store.

    The integer lane writes each IntSet and PiecewiseTranslation as its
    str(), the text format_intset or format_ptmap gives, so no handler
    imports carriers.
    """
    return {"blocks": [str(b) for b in rel.blocks], "ambient": str(rel.ambient)}


def _graph_pairs(f: dict) -> list:
    """f's pairs in point order: a map total on 0..len(f)-1 is read in it, not sorted.
    One that holds len(f), or lacks len(f) - 1, misses a point: it is sorted unread."""
    try:
        if len(f) - 1 in f and len(f) not in f:
            return list(zip(range(len(f)), map(f.__getitem__, range(len(f)))))
    except KeyError:  # a gap below len(f) - 1
        pass
    return sorted(f.items())


def _fmt_index(v) -> object:
    return "unbounded" if v == inf else v


# ---------------------------------------------------------------------------
# command handlers


def _gallery_instance(args):
    from ..cantor import example_gallery

    return example_gallery(args.gallery, k=args.k, n=args.n, t=args.t)


def _gallery_file(args) -> InstanceFile:
    """The gallery example as instance declarations: a model's relation (`over`,
    else `orbit`), its `action` and that action's `group`, ex36's `sub` directive;
    et_shift's relation, maps and seed as samples/shifted_ray.qb declares them,
    built without running its construction.
    """
    inst = InstanceFile()
    if args.gallery == "et_shift":
        from ..cantor import et_shift_inputs

        rel, maps, seed = et_shift_inputs(args.k, args.n, args.t)
        inst.spaces["Z"] = SpaceDecl("Z", "int", None)
        inst.rels["F"] = RelDecl("F", "blocks", [], rel)
        for name, f in zip(("idz", "up", "down", "g0"), (*maps, seed)):
            inst.maps[name] = MapDecl(name, "int", "Z", "Z", f)
        inst.directives.update(rel="F", maps="idz,up,down", g0="g0")
        return inst
    data = _gallery_instance(args).data
    rel = next((key for key in ("over", "orbit") if key in data), None)
    if rel is not None:
        inst.rels[rel] = RelDecl(rel, "partition", [], data[rel])
    if "action" in data:
        inst.actions["action"] = ActionDecl("action", data["action"])
        inst.groups["group"] = GroupDecl("group", data["action"].group)
    if "sub" in data:
        inst.directives["sub"] = ",".join(str(a) for a in data["sub"])
    return inst


def cmd_gallery(args, inst) -> Certificate:
    g = _gallery_instance(args)
    cert = Certificate("gallery", arguments={"name": g.name, **g.params})
    cert.add_input(f"gallery:{g.name}", json.dumps(g.params, sort_keys=True))
    return cert.certify(dict(g.summary), {
        "name": g.name,
        **{key: g.params.get(key) for key in ("k", "n", "t")},
        "expected_checks": {c: True for c in g.checks},
    })


def cmd_fm_classical(args, inst) -> Certificate:
    from ..feldman_moore import classical_construction

    rel, values = _rel_partition(_pick(inst, inst.rels, args.rel, "rel", "relation"))
    result = classical_construction(rel)
    invs = [_graph_pairs(f) for f in result.involutions.values()]
    return Certificate("fm-classical").certify({
        "classes": rel.num_classes,
        "bit_count": result.bit_count,
        "involutions": len(invs),
        "generators": [_graph_pairs(f) for f in result.generators],
    }, {**values, "n": rel.n, "blocks": _blocks_of(rel), "involutions": invs})


def cmd_fm_quotient(args, inst) -> Certificate:
    decl = _pick(inst, inst.rels, args.rel, "rel", "relation")
    if decl.kind == "blocks":
        decls = _map_list(args, inst, "int", "fm-quotient on a blocks relation needs ptmaps")
        from ..feldman_moore import quotient_construction_int

        qc = quotient_construction_int(decl.value, [d.table for d in decls], bound=args.K)
        return Certificate("fm-quotient").certify(
            {"psi_count": len(qc.psis), "generators": [str(f) for f in qc.generators]},
            _int_relation(decl.value), "int",
        )
    if decl.kind != "graphs":
        raise UsageError("fm-quotient needs a graphs relation")
    from ..feldman_moore import quotient_construction

    qc = quotient_construction(decl.value)
    blocks, orbit = _blocks_of(qc.relation), _blocks_of(qc.orbit)
    return Certificate("fm-quotient").certify({
        "classes": qc.relation.num_classes,
        "psi_count": len(qc.psis),
        "generators": [_graph_pairs(f) for f in qc.generators],
    }, {**_enumeration(decl.value), "blocks": blocks, "orbit": orbit}, "finite")


def cmd_cover(args, inst) -> Certificate:
    decl = _pick(inst, inst.rels, args.rel, "rel", "relation")
    # a graphs relation takes a map seed, a blocks relation a ptmap seed
    lane, seed = {"graphs": ("finite", "map"), "blocks": ("int", "ptmap")}.get(
        decl.kind, (None, "")
    )
    g0_decl = _pick(
        inst, inst.maps, args.g0, "g0", "seed map",
        lane, f"cover on a {decl.kind} relation needs a {seed} seed",
    )
    if decl.kind == "blocks":
        decls = _map_list(args, inst, "int", "cover on a blocks relation needs ptmaps")
        return _cover_int(args, decl.value, [d.table for d in decls], g0_decl.table)
    if decl.kind != "graphs":
        raise UsageError("cover needs a graphs relation (or an int blocks one)")
    from ..feldman_moore import greedy_extend, invert_map, psi_split

    enum, phis = decl.value, decl.value.graph_dicts()
    rel, g0 = enumerated_partition(phis, enum.n), dict(g0_decl.table)
    # the psis lie in the graphs that enumerate rel: greedy_extend checks only the seed,
    # and g is a permutation inside the classes, as the emitted checks confirm. The
    # finite cover is (g, g^-1): first is the extension, second its inverse
    g = greedy_extend(g0, psi_split(phis), rel.n, rel, sources=range(rel.n))
    extension, second = _graph_pairs(g), _graph_pairs(invert_map(g))
    return Certificate("cover").certify({
        "extension": extension,
        "first": extension,
        "second": second,
    }, {
        **_enumeration(enum),
        "n": rel.n,
        "blocks": _blocks_of(rel),
        "seed": _graph_pairs(g0),
        "seed_inverse": _graph_pairs(invert_map(g0)),
    }, "finite")


def _cover_int(args, rel, phis, g0) -> Certificate:
    from ..feldman_moore import (
        check_maps_within_int, cover_int, greedy_extend_int, levels_int, psi_split_int,
    )

    check_maps_within_int(rel, phis)
    g = greedy_extend_int(g0, psi_split_int(phis), rel.ambient, rel)
    levels = levels_int(g, rel, bound=args.K)
    pair = cover_int(levels)
    level_text = _level_texts(levels)
    return Certificate("cover").certify({
        "extension": str(g),
        "levels": {
            **level_text,
            "positive_acceleration": levels.positive.accel,
            "negative_acceleration": levels.negative.accel,
        },
        "first": str(pair.first),
        "second": str(pair.second),
    }, {
        **_int_relation(rel),
        "seed": str(g0),
        "seed_inverse": str(g0.inverse()),
        "bound": args.K,
        "levels": level_text,
        "extension_inverse": str(levels.ginv),
    }, "int")


def cmd_uniformize(args, inst) -> Certificate:
    from ..feldman_moore import weak_uniformize, weak_uniformize_int

    decl = _pick(inst, inst.rels, args.rel, "rel", "relation") if args.rel or inst.rels else None
    if decl is not None and decl.kind == "graphs":
        enum = decl.value
        uni = weak_uniformize(enum.graph_dicts())
        return Certificate("uniformize").certify(
            {"selection": _graph_pairs(uni.phi), "indices": sorted(uni.index_of.items())},
            {**_enumeration(enum), "pairs": sorted(enum.pairs())}, "graphs",
        )
    decls = _map_list(args, inst, "int", "uniformize without a graphs relation needs ptmaps")
    maps = [d.table for d in decls]
    uni = weak_uniformize_int(maps)
    texts = [str(f) for f in maps]
    dom = maps[0].domain().union(*(f.domain() for f in maps[1:]))
    return Certificate("uniformize").certify({
        "selection": str(uni.phi),
        "chosen_levels": [str(s) for s in uni.levels],
    }, {
        "maps": texts,
        "selection_domain": str(uni.phi.domain()),
        "domain": str(dom),
    }, "int")


def cmd_generate(args, inst) -> Certificate:
    decls = _map_list(args, inst, "finite", "generate works on finite maps")
    # n is read off the first map's space, so every map must live on it alone
    spaces = list(dict.fromkeys(s for d in decls for s in (d.src, d.dst)))
    if len(spaces) > 1:
        raise UsageError(f"maps must all live on one space, not {spaces[0]} and {spaces[1]}")
    n = inst.spaces[spaces[0]].size
    maps = [d.table for d in decls]
    for flag, point in (("--x", args.x), ("--y", args.y)):
        if point is not None and not 0 <= point < n:
            raise UsageError(f"{flag} {point} is outside the points 0..{n - 1}")
    partition, layers = generate_equivalence(n, maps)
    outputs = {"blocks": _blocks_of(partition), "stabilized_after": layers.stabilization_index}
    if args.x is not None:
        steps = chain_witness(layers, args.x, args.y)
        outputs["chain"] = None if steps is None else [s.describe() for s in steps]
    graphs = [_graph_pairs(f) for f in maps]
    return Certificate("generate").certify(outputs, {"n": n, "maps": graphs})


def cmd_tail(args, inst) -> Certificate:
    decl = _pick(
        inst, inst.maps, args.map_, "map", "map", "finite", "tail works on finite endomaps"
    )
    if decl.src != decl.dst:
        raise UsageError(f"map {decl.name!r} goes from {decl.src} to {decl.dst}, not to itself")
    n = inst.spaces[decl.src].size
    if len(decl.table) != n:
        raise UsageError(f"map {decl.name!r} is not total")
    partition, _ = tail_equivalence(decl.table, n)
    return Certificate("tail").certify(
        {"blocks": _blocks_of(partition)}, {"n": n, "map": _graph_pairs(decl.table)}
    )


def cmd_index(args, inst) -> Certificate:
    decl = _pick(inst, inst.rels, args.rel, "rel", "relation")
    rel, values = (decl.value, {}) if decl.kind == "blocks" else _rel_partition(decl)
    if args.expect is not None:
        values["expect"] = _expected_index(args.expect)
    return Certificate("index").certify({"index": _fmt_index(index_over(rel))}, values)


def cmd_selector(args, inst) -> Certificate:
    decl = _action_or_rel(args, inst)
    if isinstance(decl, ActionDecl):
        from ..actions import orbit_equivalence

        rel, values = orbit_equivalence(decl.action), {}
    else:
        rel, values = _rel_partition(decl)
    if args.phi:
        phi = dict(_pick(
            inst, inst.maps, args.phi, "phi", "map", "finite", "selector needs a map for --phi"
        ).table)
    else:
        phi = min_selector(rel)
    return Certificate("selector").certify(
        {"selector": _graph_pairs(phi), "transversal": sorted(set(phi.values()))},
        {**values, "n": rel.n, "blocks": _blocks_of(rel)},
    )


def cmd_involution2(args, inst) -> Certificate:
    rel, values = _rel_partition(_pick(inst, inst.rels, args.rel, "rel", "relation"))
    return Certificate("involution2").certify(
        {"involution": _graph_pairs(index2_involution(rel))},
        {**values, "n": rel.n, "blocks": _blocks_of(rel)},
    )


def cmd_action_orbits(args, inst) -> Certificate:
    from ..actions import orbit_equivalence

    act = _pick(inst, inst.actions, args.action, "action", "action").action
    maps = [[(x, act.act(a, x)) for x in range(act.n)] for a in act.group.elements()]
    return Certificate("action-orbits").certify(
        {"orbits": _blocks_of(orbit_equivalence(act)), "group": list(act.group.labels)},
        {"n": act.n, "maps": maps},
    )


def cmd_cocycle(args, inst) -> Certificate:
    from ..actions import cocycle_from_free_action

    act = _pick(inst, inst.actions, args.action, "action", "action").action
    coc = cocycle_from_free_action(act)
    sizes = {
        act.group.labels[a]: len(p) for a, p in coc.pair_classes().items()
    }
    outputs = {"pairs": len(coc.theta), "pair_class_sizes": sizes}
    return Certificate("cocycle").certify(outputs, {
        "labels": list(act.group.labels),
        "table": [list(r) for r in act.group.table],
        "n": act.n,
        "maps": [list(r) for r in act.maps],
        "theta": [[x, y, a] for (x, y), a in sorted(coc.theta.items())],
    })


def cmd_normalizer(args, inst) -> Certificate:
    from ..actions import normalizer

    group = _pick(inst, inst.groups, args.group, "group", "group").group
    if not args.sub and "sub" not in inst.directives:
        raise UsageError("normalizer needs --sub with subgroup elements")
    sub_text = args.sub or inst.directives["sub"]
    try:
        delta = [group.element(s.strip()) for s in sub_text.split(",")]
    except ValueError as e:
        raise UsageError(str(e)) from None
    norm = normalizer(group, delta)
    values = {
        "labels": list(group.labels),
        "table": [list(r) for r in group.table],
        "delta": sorted(set(delta)),
        "expected": list(norm),
        "normalizer_labels": sorted(group.labels[a] for a in norm),
    }
    if args.expect is not None:
        values["expect"] = sorted(s.strip() for s in args.expect.split(","))
    return Certificate("normalizer").certify({
        "normalizer": [group.labels[a] for a in norm],
        "delta": [group.labels[a] for a in sorted(set(delta))],
    }, values)


def cmd_export_graph(args, inst) -> tuple[int, list[str]]:
    decl = _action_or_rel(args, inst)
    # (x, y, label) of each edge; loops are left out
    if isinstance(decl, ActionDecl):
        act = decl.action
        n, labels = act.n, act.group.labels
        edges = ((x, act.act(a, x), labels[a]) for a in act.group.elements() for x in range(n))
    elif decl.kind == "graphs":
        n = decl.value.n
        edges = ((x, y, g) for g, graph in zip(decl.graphs, decl.value.graphs) for x, y in graph)
    elif decl.kind == "partition":
        n = decl.value.n
        edges = ((x, y, decl.name) for b in decl.value.blocks for x in b for y in b)
    else:
        raise UnsupportedCarrier("graph export needs a finite quotient")
    lines = [
        "digraph orbits {",
        *(f'  p{q} [label="{q}"];' for q in range(n)),
        *(f'  p{x} -> p{y} [label="{label}"];' for x, y, label in edges if x != y),
        "}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_output(args.out, text)
        return 0, [f"wrote {args.out}"]
    return 0, [text.rstrip()]
