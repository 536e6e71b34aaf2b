"""Line-oriented instance files: declarations of spaces, maps,
relations, groups, and actions, each usable only after it appears.

Grammar, one declaration per line, `#` starts a comment:

    space <name> carrier = finite(<n>) [partition = { {0,1}, {2} }]
    space <name> carrier = int [partition = { {<intset>}, ... }]
    map <name> : <space> -> <space> : 0 -> 1, 1 -> 0
    ptmap <name> : <space> : <intset> -> +1 | <intset> -> -2
    rel <name> on <space> graphs = [<map>, ...]
    rel <name> on <space> blocks = { {<intset>}, ... }
    rel <name> on <space> partition = { {0,1}, {2} }
    group <name> table = [[0,1],[1,0]] [labels = [e, s]]
    action <name> : <group> on <space> : <label> -> <map>, ...
    set <key> = <value>

Finite maps and partitions are written on quotient points (class ids);
an IntSet is a semicolon-separated term list such as `..-1; 0:+2*inf`.
Numbers in group tables are element indices, row acts on the left.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..actions import FiniteGroup, GroupAction
from ..carriers import (
    FiniteCarrier,
    IntCarrier,
    IntSet,
    PiecewiseTranslation,
    format_intset,
    format_ptmap,
    parse_intset,
    parse_ptmap,
)
from ..errors import InstanceSyntaxError, UnknownReference
from ..quotient import FiniteQuotient, IntClassQuotient, IntQuotient, Partition
from ..relations import EnumeratedEquivalence, IntBlockRelation

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

# a finite space costs a few hundred bytes per point, so a larger carrier is
# refused before any of it is built; no sample, test or benchmark workload
# declares more than 140 points
MAX_POINTS = 1 << 16


@dataclass
class SpaceDecl:
    name: str
    kind: str                  # "finite" or "int"
    space: object              # FiniteQuotient | IntQuotient | IntClassQuotient
    line: int

    @property
    def size(self) -> int | None:
        return self.space.size if self.kind == "finite" else None


@dataclass
class MapDecl:
    name: str
    kind: str                  # "finite" or "int"
    src: str
    dst: str
    table: dict[int, int] | PiecewiseTranslation
    line: int


@dataclass
class RelDecl:
    name: str
    kind: str                  # "graphs", "blocks", or "partition"
    space: str
    graphs: list[str] = field(default_factory=list)
    value: object = None       # EnumeratedEquivalence | IntBlockRelation | Partition
    line: int = 0


@dataclass
class GroupDecl:
    name: str
    group: FiniteGroup
    line: int


@dataclass
class ActionDecl:
    name: str
    group: str
    space: str
    action: GroupAction
    assignments: list[tuple[str, str]]
    line: int


@dataclass
class InstanceFile:
    """Parsed declarations in file order plus `set` directives."""

    spaces: dict[str, SpaceDecl] = field(default_factory=dict)
    maps: dict[str, MapDecl] = field(default_factory=dict)
    rels: dict[str, RelDecl] = field(default_factory=dict)
    groups: dict[str, GroupDecl] = field(default_factory=dict)
    actions: dict[str, ActionDecl] = field(default_factory=dict)
    directives: dict[str, str] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def declared(self, name: str) -> bool:
        return any(
            name in d
            for d in (self.spaces, self.maps, self.rels, self.groups, self.actions)
        )


def _fail(line_no: int, msg: str, column: int = 0):
    raise InstanceSyntaxError(msg, line_no, column)


# bracket pair -> (the shape the list must have, the brackets' name,
# what the groups are called)
_GROUPINGS = {
    "{}": ("braced block list", "braces", "blocks"),
    "[]": ("[[...], ...]", "brackets", "rows"),
}


def _split_groups(body: str, line_no: int, pair: str) -> list[str]:
    """Top-level groups inside an outer list: { ... } blocks or [ ... ] rows."""
    opener, closer = pair
    shape, brackets, groups = _GROUPINGS[pair]
    body = body.strip()
    if not (body.startswith(opener) and body.endswith(closer)):
        _fail(line_no, f"expected {shape}, got {body!r}")
    inner = body[1:-1]
    out, depth, cur = [], 0, []
    for ch in inner:
        if ch == opener:
            depth += 1
            if depth == 1:
                cur = []
                continue
        elif ch == closer:
            depth -= 1
            if depth < 0:
                _fail(line_no, f"unbalanced {brackets}")
            if depth == 0:
                out.append("".join(cur))
                continue
        elif depth == 0:
            if ch not in ", \t":
                _fail(line_no, f"unexpected {ch!r} between {groups}")
            continue
        cur.append(ch)
    if depth != 0:
        _fail(line_no, f"unbalanced {brackets}")
    return out


def _split_bracket_list(body: str, line_no: int) -> list[str]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        _fail(line_no, f"expected [...] list, got {body!r}")
    inner = body[1:-1].strip()
    return [p.strip() for p in inner.split(",")] if inner else []


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        _fail(line_no, f"expected an integer, got {text.strip()!r}")


def _parse_space(rest: str, line_no: int) -> SpaceDecl:
    m = re.match(
        rf"({_NAME})\s+carrier\s*=\s*(finite\(\s*(\d+)\s*\)|int)\s*(.*)$", rest
    )
    if not m:
        _fail(line_no, f"bad space declaration: {rest!r}")
    name, carrier_text, n_text, tail = m.groups()
    tail = tail.strip()
    partition_text = None
    if tail:
        pm = re.match(r"partition\s*=\s*(.*)$", tail)
        if not pm:
            _fail(line_no, f"unexpected trailer {tail!r}")
        partition_text = pm.group(1)
    if carrier_text == "int":
        if partition_text is None:
            return SpaceDecl(name, "int", IntQuotient(), line_no)
        blocks = _split_groups(partition_text, line_no, "{}")
        try:
            descs = [parse_intset(b) for b in blocks]
            space = IntClassQuotient.make(IntCarrier(), descs)
        except ValueError as e:
            _fail(line_no, str(e))
        return SpaceDecl(name, "int", space, line_no)
    n = _parse_int(n_text, line_no)
    if n > MAX_POINTS:
        _fail(line_no, f"finite({n}) exceeds the cap of {MAX_POINTS} points")
    if partition_text is None:
        partition = Partition.discrete(n)
    else:
        blocks = [
            [_parse_int(v, line_no) for v in b.split(",") if v.strip()]
            for b in _split_groups(partition_text, line_no, "{}")
        ]
        partition = Partition.from_blocks(n, blocks)
    return SpaceDecl(
        name, "finite", FiniteQuotient(FiniteCarrier(n), partition), line_no
    )


def _require(inst: InstanceFile, table: dict, name: str, what: str, line_no: int):
    if name not in table:
        raise UnknownReference(
            f"line {line_no}: {what} {name!r} not declared above", line=line_no
        )
    return table[name]


def _parse_map(rest: str, inst: InstanceFile, line_no: int) -> MapDecl:
    m = re.match(
        rf"({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})\s*:\s*(.*)$", rest
    )
    if not m:
        _fail(line_no, f"bad map declaration: {rest!r}")
    name, src, dst, body = m.groups()
    sdecl = _require(inst, inst.spaces, src, "space", line_no)
    ddecl = _require(inst, inst.spaces, dst, "space", line_no)
    if sdecl.kind != "finite" or ddecl.kind != "finite":
        _fail(line_no, "map declarations need finite spaces; use ptmap for int")
    n_src, n_dst = sdecl.space.size, ddecl.space.size
    table = {}
    body = body.strip()
    if body:
        for part in body.split(","):
            if "->" not in part:
                _fail(line_no, f"bad map entry {part.strip()!r}")
            a, b = part.split("->", 1)
            x, y = _parse_int(a, line_no), _parse_int(b, line_no)
            if not 0 <= x < n_src:
                _fail(line_no, f"source point {x} outside {src}")
            if not 0 <= y < n_dst:
                _fail(line_no, f"target point {y} outside {dst}")
            if x in table:
                _fail(line_no, f"point {x} mapped twice")
            table[x] = y
    return MapDecl(name, "finite", src, dst, table, line_no)


def _parse_ptmap(rest: str, inst: InstanceFile, line_no: int) -> MapDecl:
    m = re.match(rf"({_NAME})\s*:\s*({_NAME})\s*:\s*(.*)$", rest)
    if not m:
        _fail(line_no, f"bad ptmap declaration: {rest!r}")
    name, space, body = m.groups()
    sdecl = _require(inst, inst.spaces, space, "space", line_no)
    if sdecl.kind != "int":
        _fail(line_no, "ptmap needs an int space")
    try:
        table = parse_ptmap(body)
    except ValueError as e:
        _fail(line_no, str(e))
    return MapDecl(name, "int", space, space, table, line_no)


def _parse_rel(rest: str, inst: InstanceFile, line_no: int) -> RelDecl:
    m = re.match(
        rf"({_NAME})\s+on\s+({_NAME})\s+(graphs|blocks|partition)\s*=\s*(.*)$",
        rest,
    )
    if not m:
        _fail(line_no, f"bad rel declaration: {rest!r}")
    name, space, kind, body = m.groups()
    sdecl = _require(inst, inst.spaces, space, "space", line_no)
    if kind == "graphs":
        graph_names = _split_bracket_list(body, line_no)
        decls = [
            _require(inst, inst.maps, g, "map", line_no) for g in graph_names
        ]
        for d in decls:
            if d.src != space or d.dst != space:
                _fail(line_no, f"map {d.name!r} is not an endomap of {space}")
        if sdecl.kind == "finite":
            value = EnumeratedEquivalence.make(
                sdecl.space.size, [d.table for d in decls]
            )
        else:
            value = [d.table for d in decls]
        return RelDecl(name, "graphs", space, graph_names, value, line_no)
    if kind == "blocks":
        if sdecl.kind != "int":
            _fail(line_no, "blocks form needs an int space")
        texts = _split_groups(body, line_no, "{}")
        try:
            blocks = [parse_intset(b) for b in texts]
        except ValueError as e:
            _fail(line_no, str(e))
        value = IntBlockRelation.make(blocks, ambient=sdecl.space.carrier.ambient)
        return RelDecl(name, "blocks", space, [], value, line_no)
    if sdecl.kind != "finite":
        _fail(line_no, "partition form needs a finite space")
    blocks = [
        [_parse_int(v, line_no) for v in b.split(",") if v.strip()]
        for b in _split_groups(body, line_no, "{}")
    ]
    value = Partition.from_blocks(sdecl.space.size, blocks)
    return RelDecl(name, "partition", space, [], value, line_no)


def _parse_group(rest: str, line_no: int) -> GroupDecl:
    m = re.match(rf"({_NAME})\s+table\s*=\s*(\[.*?\])\s*(?:labels\s*=\s*(\[.*\]))?$", rest)
    if not m:
        _fail(line_no, f"bad group declaration: {rest!r}")
    name, table_text, labels_text = m.groups()
    rows = []
    for row_text in _split_groups(table_text, line_no, "[]"):
        rows.append(
            tuple(_parse_int(v, line_no) for v in row_text.split(",") if v.strip())
        )
    if labels_text:
        labels = tuple(_split_bracket_list(labels_text, line_no))
    else:
        labels = tuple(f"g{i}" if i else "e" for i in range(len(rows)))
    try:
        group = FiniteGroup(labels, tuple(rows))
    except ValueError as e:
        _fail(line_no, str(e))
    return GroupDecl(name, group, line_no)


def _parse_action(rest: str, inst: InstanceFile, line_no: int) -> ActionDecl:
    m = re.match(
        rf"({_NAME})\s*:\s*({_NAME})\s+on\s+({_NAME})\s*:\s*(.*)$", rest
    )
    if not m:
        _fail(line_no, f"bad action declaration: {rest!r}")
    name, group_name, space_name, body = m.groups()
    gdecl = _require(inst, inst.groups, group_name, "group", line_no)
    sdecl = _require(inst, inst.spaces, space_name, "space", line_no)
    if sdecl.kind != "finite":
        _fail(line_no, "actions are declared on finite spaces")
    n = sdecl.space.size
    group = gdecl.group
    label_index = {lbl: i for i, lbl in enumerate(group.labels)}
    assignments = []
    maps: dict[int, tuple[int, ...]] = {0: tuple(range(n))}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            _fail(line_no, f"bad action entry {part!r}")
        elem_text, map_name = (s.strip() for s in part.split("->", 1))
        if elem_text in label_index:
            elem = label_index[elem_text]
        else:
            elem = _parse_int(elem_text, line_no)
            if not 0 <= elem < group.size:
                _fail(line_no, f"element {elem} outside the group")
        mdecl = _require(inst, inst.maps, map_name, "map", line_no)
        if mdecl.src != space_name or mdecl.dst != space_name:
            _fail(line_no, f"map {map_name!r} is not an endomap of {space_name}")
        if len(mdecl.table) != n:
            _fail(line_no, f"map {map_name!r} is not total on {space_name}")
        maps[elem] = tuple(mdecl.table[x] for x in range(n))
        assignments.append((group.labels[elem], map_name))
    missing = [a for a in group.elements() if a not in maps]
    if missing:
        _fail(line_no, f"elements {missing} have no assigned map")
    try:
        action = GroupAction(group, n, tuple(maps[a] for a in group.elements()))
    except ValueError as e:
        _fail(line_no, str(e))
    return ActionDecl(name, group_name, space_name, action, assignments, line_no)


def parse_instance(text: str) -> InstanceFile:
    inst = InstanceFile()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(rf"({_NAME})\s+(.*)$", line)
        if not m:
            _fail(line_no, f"cannot read {line!r}")
        keyword, rest = m.groups()
        if keyword == "set":
            dm = re.match(rf"({_NAME})\s*=\s*(.*)$", rest)
            if not dm:
                _fail(line_no, f"bad directive: {rest!r}")
            inst.directives[dm.group(1)] = dm.group(2).strip()
            continue
        if keyword == "space":
            decl = _parse_space(rest, line_no)
        elif keyword == "map":
            decl = _parse_map(rest, inst, line_no)
        elif keyword == "ptmap":
            decl = _parse_ptmap(rest, inst, line_no)
        elif keyword == "rel":
            decl = _parse_rel(rest, inst, line_no)
        elif keyword == "group":
            decl = _parse_group(rest, line_no)
        elif keyword == "action":
            decl = _parse_action(rest, inst, line_no)
        else:
            _fail(line_no, f"unknown declaration {keyword!r}")
        if inst.declared(decl.name):
            _fail(line_no, f"name {decl.name!r} declared twice")
        bucket = {
            "space": inst.spaces,
            "map": inst.maps,
            "ptmap": inst.maps,
            "rel": inst.rels,
            "group": inst.groups,
            "action": inst.actions,
        }[keyword]
        bucket[decl.name] = decl
        inst.order.append((keyword, decl.name))
    return inst


def decode_instance(data: bytes) -> str:
    """Instance text from file bytes, with newlines as a text-mode open() reads them.

    Bytes that are not UTF-8 raise InstanceSyntaxError at their line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise InstanceSyntaxError(f"not UTF-8 text at byte {e.start}", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_instance_file(path: str) -> InstanceFile:
    with open(path, "rb") as fh:
        return parse_instance(decode_instance(fh.read()))


def _print_partition(p: Partition) -> str:
    return "{ " + ", ".join(
        "{" + ",".join(map(str, b)) + "}" for b in p.blocks
    ) + " }"


def print_instance(inst: InstanceFile) -> str:
    """Canonical text; parsing it back gives an equal instance."""
    out = []
    for keyword, name in inst.order:
        if keyword == "space":
            d = inst.spaces[name]
            if d.kind == "int":
                if isinstance(d.space, IntClassQuotient):
                    blocks = ", ".join(
                        "{" + format_intset(c) + "}" for c in d.space.classes
                    )
                    out.append(f"space {name} carrier = int partition = {{ {blocks} }}")
                else:
                    out.append(f"space {name} carrier = int")
            else:
                q = d.space
                if q.partition == Partition.discrete(q.partition.n):
                    out.append(f"space {name} carrier = finite({q.partition.n})")
                else:
                    out.append(
                        f"space {name} carrier = finite({q.partition.n}) "
                        f"partition = {_print_partition(q.partition)}"
                    )
        elif keyword in ("map", "ptmap"):
            d = inst.maps[name]
            if d.kind == "int":
                out.append(f"ptmap {name} : {d.src} : {format_ptmap(d.table)}")
            else:
                body = ", ".join(
                    f"{x} -> {y}" for x, y in sorted(d.table.items())
                )
                out.append(f"map {name} : {d.src} -> {d.dst} : {body}")
        elif keyword == "rel":
            d = inst.rels[name]
            if d.kind == "graphs":
                out.append(
                    f"rel {name} on {d.space} graphs = [{', '.join(d.graphs)}]"
                )
            elif d.kind == "blocks":
                blocks = ", ".join(
                    "{" + format_intset(b) + "}" for b in d.value.blocks
                )
                out.append(f"rel {name} on {d.space} blocks = {{ {blocks} }}")
            else:
                out.append(
                    f"rel {name} on {d.space} partition = "
                    f"{_print_partition(d.value)}"
                )
        elif keyword == "group":
            d = inst.groups[name]
            rows = ",".join(
                "[" + ",".join(map(str, row)) + "]" for row in d.group.table
            )
            labels = ", ".join(d.group.labels)
            out.append(f"group {name} table = [{rows}] labels = [{labels}]")
        elif keyword == "action":
            d = inst.actions[name]
            body = ", ".join(f"{lbl} -> {mp}" for lbl, mp in d.assignments)
            out.append(f"action {name} : {d.group} on {d.space} : {body}")
    for key, value in inst.directives.items():
        out.append(f"set {key} = {value}")
    return "\n".join(out) + ("\n" if out else "")
