"""Line-oriented instance files: declarations of spaces, maps,
relations, groups, and actions, each usable only after it appears.

Grammar, one declaration per line, `#` starts a comment:

    space <name> carrier = finite(<n>) [partition = { {0,1}, {2} }]
    space <name> carrier = int
    map <name> : <space> -> <space> : 0 -> 1, 1 -> 0
    ptmap <name> : <space> : <intset> -> +1 | <intset> -> -2
    rel <name> on <space> graphs = [<map>, ...]
    rel <name> on <space> blocks = { {<intset>}, ... }
    rel <name> on <space> partition = { {0,1}, {2} }
    group <name> table = [[0,1],[1,0]] [labels = [e, s]]
    action <name> : <group> on <space> : <label> -> <map>, ...
    set <key> = <value>

A graphs or partition relation needs a finite space, a blocks relation
an int space.  An int space is the integers themselves and takes no
trailer: the integers split into finitely many classes are a finite set,
which finite(<n>) declares.  Finite maps and partitions are written on
quotient points (class ids); an IntSet is a semicolon-separated term
list such as `..-1; 0:+2*inf`.
Numbers in group tables are element indices, row acts on the left.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ..errors import InstanceSyntaxError, UnknownReference, clip, quote
from ..quotient import Partition
from ..record import Record
from ..relations import EnumeratedEquivalence

if TYPE_CHECKING:  # actions and carriers are imported by the declarations that use them
    from ..actions import FiniteGroup, GroupAction
    from ..carriers import PiecewiseTranslation

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

# a finite space costs a few hundred bytes per point, so a larger carrier is
# refused before any of it is built; no sample, test or benchmark workload
# declares more than 140 points
MAX_POINTS = 1 << 16


class SpaceDecl(Record):
    # kind is "finite" or "int"; space is a finite space's Partition, None
    # for an int space
    def __init__(self, name: str, kind: str, space: Partition | None):
        self._set(name, kind, space)

    @property
    def size(self) -> int | None:
        return self.space.num_classes if self.kind == "finite" else None


class MapDecl(Record):
    # kind is "finite" or "int"
    def __init__(
        self, name: str, kind: str, src: str, dst: str, table: dict | PiecewiseTranslation
    ):
        self._set(name, kind, src, dst, table)


class RelDecl(Record):
    # kind is "graphs", "blocks" or "partition"; graphs holds the map names
    # of a graphs relation; value is an EnumeratedEquivalence,
    # IntBlockRelation or Partition
    def __init__(self, name: str, kind: str, graphs: list[str], value: object):
        self._set(name, kind, graphs, value)


class GroupDecl(Record):
    def __init__(self, name: str, group: FiniteGroup):
        self._set(name, group)


class ActionDecl(Record):
    def __init__(self, name: str, action: GroupAction):
        self._set(name, action)


class InstanceFile(Record):
    """Parsed declarations by name plus `set` directives."""

    def __init__(
        self, spaces: dict[str, SpaceDecl] | None = None, maps: dict[str, MapDecl] | None = None,
        rels: dict[str, RelDecl] | None = None, groups: dict[str, GroupDecl] | None = None,
        actions: dict[str, ActionDecl] | None = None, directives: dict[str, str] | None = None,
    ):
        # a fresh dict for each table not given
        tables = (spaces, maps, rels, groups, actions, directives)
        self._set(*({} if t is None else t for t in tables))

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
        _fail(line_no, f"expected {shape}, got {quote(body)}")
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
        _fail(line_no, f"expected [...] list, got {quote(body)}")
    inner = body[1:-1].strip()
    return [p.strip() for p in inner.split(",")] if inner else []


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        _fail(line_no, f"expected an integer, got {quote(text.strip())}")


def _int_groups(body: str, line_no: int, pair: str) -> list[list[int]]:
    """The integers of each top-level group: {0,1}, {2} blocks or [0,1] rows."""
    return [
        [_parse_int(v, line_no) for v in g.split(",") if v.strip()]
        for g in _split_groups(body, line_no, pair)
    ]


def _parse_space(rest: str, inst: InstanceFile, line_no: int) -> SpaceDecl:
    m = re.match(
        rf"({_NAME})\s+carrier\s*=\s*(finite\(\s*(\d+)\s*\)|int)\s*(.*)$", rest
    )
    if not m:
        _fail(line_no, f"bad space declaration: {quote(rest)}")
    name, carrier_text, n_text, tail = m.groups()
    tail = tail.strip()
    if carrier_text == "int":
        if tail:
            _fail(line_no, f"an int space takes no trailer, got {quote(tail)}")
        return SpaceDecl(name, "int", None)
    pm = re.match(r"partition\s*=\s*(.*)$", tail)
    if tail and not pm:
        _fail(line_no, f"unexpected trailer {quote(tail)}")
    n = _parse_int(n_text, line_no)
    if n > MAX_POINTS:
        _fail(line_no, f"finite({clip(str(n))}) exceeds the cap of {MAX_POINTS} points")
    if not tail:
        partition = Partition.discrete(n)
    else:
        partition = Partition.from_blocks(n, _int_groups(pm.group(1), line_no, "{}"))
    return SpaceDecl(name, "finite", partition)


def _require(table: dict, name: str, what: str, line_no: int):
    if name not in table:
        raise UnknownReference(
            f"line {line_no}: {what} {quote(name)} not declared above", line=line_no
        )
    return table[name]


def _parse_map(rest: str, inst: InstanceFile, line_no: int) -> MapDecl:
    m = re.match(
        rf"({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})\s*:\s*(.*)$", rest
    )
    if not m:
        _fail(line_no, f"bad map declaration: {quote(rest)}")
    name, src, dst, body = m.groups()
    sdecl = _require(inst.spaces, src, "space", line_no)
    ddecl = _require(inst.spaces, dst, "space", line_no)
    if sdecl.kind != "finite" or ddecl.kind != "finite":
        _fail(line_no, "map declarations need finite spaces; use ptmap for int")
    n_src, n_dst = sdecl.size, ddecl.size
    table = {}
    body = body.strip()
    if body:
        for part in body.split(","):
            if "->" not in part:
                _fail(line_no, f"bad map entry {quote(part.strip())}")
            a, b = part.split("->", 1)
            try:
                x, y = int(a), int(b)
            except ValueError:
                x, y = _parse_int(a, line_no), _parse_int(b, line_no)
            if not 0 <= x < n_src:
                _fail(line_no, f"source point {clip(str(x))} outside {src}")
            if not 0 <= y < n_dst:
                _fail(line_no, f"target point {clip(str(y))} outside {dst}")
            if x in table:
                _fail(line_no, f"point {clip(str(x))} mapped twice")
            table[x] = y
    return MapDecl(name, "finite", src, dst, table)


def _parse_ptmap(rest: str, inst: InstanceFile, line_no: int) -> MapDecl:
    m = re.match(rf"({_NAME})\s*:\s*({_NAME})\s*:\s*(.*)$", rest)
    if not m:
        _fail(line_no, f"bad ptmap declaration: {quote(rest)}")
    name, space, body = m.groups()
    sdecl = _require(inst.spaces, space, "space", line_no)
    if sdecl.kind != "int":
        _fail(line_no, "ptmap needs an int space")
    from ..carriers import parse_ptmap

    return MapDecl(name, "int", space, space, parse_ptmap(body))


def _parse_rel(rest: str, inst: InstanceFile, line_no: int) -> RelDecl:
    m = re.match(
        rf"({_NAME})\s+on\s+({_NAME})\s+(graphs|blocks|partition)\s*=\s*(.*)$",
        rest,
    )
    if not m:
        _fail(line_no, f"bad rel declaration: {quote(rest)}")
    name, space, kind, body = m.groups()
    sdecl = _require(inst.spaces, space, "space", line_no)
    if kind == "graphs":
        if sdecl.kind != "finite":
            _fail(line_no, "graphs form needs a finite space")
        graph_names = _split_bracket_list(body, line_no)
        decls = [
            _require(inst.maps, g, "map", line_no) for g in graph_names
        ]
        for d in decls:
            if d.src != space or d.dst != space:
                _fail(line_no, f"map {quote(d.name)} is not an endomap of {space}")
        value = EnumeratedEquivalence.make(sdecl.size, [d.table for d in decls])
        return RelDecl(name, "graphs", graph_names, value)
    if kind == "blocks":
        if sdecl.kind != "int":
            _fail(line_no, "blocks form needs an int space")
        from ..carriers import IntBlockRelation, parse_intset

        blocks = [parse_intset(b) for b in _split_groups(body, line_no, "{}")]
        value = IntBlockRelation.make(blocks)
        return RelDecl(name, "blocks", [], value)
    if sdecl.kind != "finite":
        _fail(line_no, "partition form needs a finite space")
    value = Partition.from_blocks(sdecl.size, _int_groups(body, line_no, "{}"))
    return RelDecl(name, "partition", [], value)


def _parse_group(rest: str, inst: InstanceFile, line_no: int) -> GroupDecl:
    from ..actions import FiniteGroup

    m = re.match(rf"({_NAME})\s+table\s*=\s*(\[.*?\])\s*(?:labels\s*=\s*(\[.*\]))?$", rest)
    if not m:
        _fail(line_no, f"bad group declaration: {quote(rest)}")
    name, table_text, labels_text = m.groups()
    rows = [tuple(row) for row in _int_groups(table_text, line_no, "[]")]
    if labels_text:
        labels = tuple(_split_bracket_list(labels_text, line_no))
    else:
        labels = tuple(f"g{i}" if i else "e" for i in range(len(rows)))
    return GroupDecl(name, FiniteGroup(labels, tuple(rows)))


def _parse_action(rest: str, inst: InstanceFile, line_no: int) -> ActionDecl:
    from ..actions import GroupAction

    m = re.match(
        rf"({_NAME})\s*:\s*({_NAME})\s+on\s+({_NAME})\s*:\s*(.*)$", rest
    )
    if not m:
        _fail(line_no, f"bad action declaration: {quote(rest)}")
    name, group_name, space_name, body = m.groups()
    gdecl = _require(inst.groups, group_name, "group", line_no)
    sdecl = _require(inst.spaces, space_name, "space", line_no)
    if sdecl.kind != "finite":
        _fail(line_no, "actions are declared on finite spaces")
    n = sdecl.size
    group = gdecl.group
    maps: dict[int, tuple[int, ...]] = {0: tuple(range(n))}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            _fail(line_no, f"bad action entry {quote(part)}")
        elem_text, map_name = (s.strip() for s in part.split("->", 1))
        elem = group.element(elem_text)
        mdecl = _require(inst.maps, map_name, "map", line_no)
        if mdecl.src != space_name or mdecl.dst != space_name:
            _fail(line_no, f"map {quote(map_name)} is not an endomap of {space_name}")
        if len(mdecl.table) != n:
            _fail(line_no, f"map {quote(map_name)} is not total on {space_name}")
        maps[elem] = tuple(mdecl.table[x] for x in range(n))
    missing = [a for a in group.elements() if a not in maps]
    if missing:
        _fail(line_no, f"elements {missing} have no assigned map")
    return ActionDecl(name, GroupAction(group, n, tuple(maps[a] for a in group.elements())))


# keyword -> (its parser, the InstanceFile table its declarations go in)
_DECLARATIONS = {
    "space": (_parse_space, "spaces"),
    "map": (_parse_map, "maps"),
    "ptmap": (_parse_ptmap, "maps"),
    "rel": (_parse_rel, "rels"),
    "group": (_parse_group, "groups"),
    "action": (_parse_action, "actions"),
}


def parse_instance(text: str) -> InstanceFile:
    inst = InstanceFile()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(rf"({_NAME})\s+(.*)$", line)
        if not m:
            _fail(line_no, f"cannot read {quote(line)}")
        keyword, rest = m.groups()
        if keyword == "set":
            dm = re.match(rf"({_NAME})\s*=\s*(.*)$", rest)
            if not dm:
                _fail(line_no, f"bad directive: {quote(rest)}")
            inst.directives[dm.group(1)] = dm.group(2).strip()
            continue
        if keyword not in _DECLARATIONS:
            _fail(line_no, f"unknown declaration {quote(keyword)}")
        parse, table = _DECLARATIONS[keyword]
        try:
            decl = parse(rest, inst, line_no)
        except ValueError as e:
            # an integer set, a ptmap, a group table, element or action refused
            _fail(line_no, str(e))
        if inst.declared(decl.name):
            _fail(line_no, f"name {quote(decl.name)} declared twice")
        getattr(inst, table)[decl.name] = decl
    return inst


def decode_instance(data: bytes) -> str:
    """Instance text from file bytes, with newlines as a text-mode open() reads them
    and no leading byte-order mark.

    Bytes that are not UTF-8 raise InstanceSyntaxError at their line.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:  # e.object is data after any mark
        start = e.start + len(data) - len(e.object)
        line = data.count(b"\n", 0, start) + 1
        raise InstanceSyntaxError(f"not UTF-8 text at byte {start}", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
