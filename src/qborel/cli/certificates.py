"""Machine-checkable run records.

A certificate stores the command, digests of its inputs, the values it
produced, and a list of checks. Every check carries its kind plus the
data the checker needs, so verification can be repeated later from the
stored record alone: reverify() reruns each checker and compares the
verdicts with what was stored.
"""

from __future__ import annotations

import hashlib
import json
import marshal
from typing import TYPE_CHECKING

from .. import __version__ as VERSION
from ..carriers import format_intset, parse_intset, parse_ptmap
from ..errors import InvalidCertificate, NotAnEnumeration, QBorelError
from ..quotient import Partition
from ..record import Record
from ..relations import (
    IntBlockRelation,
    generate_equivalence,
    selector_to_transversal,
    tail_equivalence,
    verify_enumeration,
)

if TYPE_CHECKING:  # the checkers of group data import actions when they run
    from ..actions import FiniteGroup

TOOL = "qborel"

CHECKERS: dict[str, object] = {}


def checker(kind: str):
    def register(fn):
        CHECKERS[kind] = fn
        return fn
    return register


def run_check(kind: str, data: dict) -> tuple[bool, object]:
    if kind not in CHECKERS:
        raise ValueError(f"no checker registered for kind {kind!r}")
    ok, witness = CHECKERS[kind](data)
    return bool(ok), witness


def _plain(value):
    """JSON form of a value the encoder does not know: sets sorted, the rest str()."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


def jsonable(value):
    """The JSON value a certificate stores for a witness or output.

    One round trip through the C codec, so the result is exactly what a
    later `json.loads` of the certificate gives back.
    """
    return json.loads(json.dumps(value, default=_plain))


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"), default=_plain)


def _snapshot(value) -> bytes:
    """Bytes that change whenever a plain JSON value does, nested edits too.

    Marshal format 2 predates shared references, so the bytes depend on
    the value alone, and writing them costs a fraction of JSON encoding.
    A value marshal cannot write (an object put in by hand) gives None.
    """
    try:
        return marshal.dumps(value, 2)
    except ValueError:
        return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class Certificate(Record):
    def __init__(
        self, command: str, arguments: dict | None = None, inputs: list | None = None,
        outputs: dict | None = None, checks: list | None = None, tool: str = TOOL,
        version: str = VERSION,
    ):
        # a fresh dict or list for each one not given
        self._set(
            command, {} if arguments is None else arguments, [] if inputs is None else inputs,
            {} if outputs is None else outputs, [] if checks is None else checks, tool, version,
        )
        # id of each emitted check -> (the check, its snapshot, its JSON text)
        self._lines = {}

    def add_input(self, name: str, text: str):
        self.inputs.append({"name": name, "sha256_12": digest(text)})

    def emit(self, name: str, kind: str, data: dict) -> bool:
        """Run the checker now and store the verdict alongside its data.

        The data is encoded once: the checker runs on that text decoded,
        and to_json writes the same text for as long as the stored check
        still holds the values it holds here.
        """
        text = _compact(data)
        data = json.loads(text)
        ok, witness = run_check(kind, data)
        witness_text = _compact(witness)
        check = {
            "name": name,
            "kind": kind,
            "data": data,
            "ok": ok,
            "witness": json.loads(witness_text),
        }
        self.checks.append(check)
        line = (
            f'{{"name":{_compact(name)},"kind":{_compact(kind)},"data":{text},'
            f'"ok":{"true" if ok else "false"},"witness":{witness_text}}}'
        )
        self._lines[id(check)] = check, _snapshot(check), line
        return ok

    def _line(self, check: dict) -> str:
        """The compact JSON text of a stored check."""
        held = self._lines.get(id(check))
        if held is not None and held[0] is check and _snapshot(check) == held[1]:
            return held[2]
        return _compact(check)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_json(self) -> str:
        """One key per line and one check per line, each value compact."""
        head = {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "arguments": self.arguments,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        lines = [f'  "{key}": {_compact(value)},' for key, value in head.items()]
        checks = ",\n".join(f"    {self._line(c)}" for c in self.checks)
        lines.append(f'  "checks": [\n{checks}\n  ]' if checks else '  "checks": []')
        return "{\n" + "\n".join(lines) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidCertificate(f"certificate is not JSON: {e}") from None
        except RecursionError:
            raise InvalidCertificate("certificate nests too deeply to read") from None
        checks = raw.get("checks") if isinstance(raw, dict) else None
        if not isinstance(checks, list) or not all(
            isinstance(c, dict) and {"name", "kind", "data", "ok"} <= c.keys()
            for c in checks
        ):
            raise InvalidCertificate(
                "certificate is not an object with a list of checks "
                "(each with name, kind, data and ok)"
            )
        return cls(
            command=raw.get("command", ""),
            arguments=raw.get("arguments", {}),
            inputs=raw.get("inputs", []),
            outputs=raw.get("outputs", {}),
            checks=checks,
            tool=raw.get("tool", TOOL),
            version=raw.get("version", VERSION),
        )

    def summary_lines(self) -> list[str]:
        out = [f"{self.command}: {len(self.checks)} checks"]
        for c in self.checks:
            mark = "pass" if c["ok"] else "FAIL"
            tail = "" if c["ok"] else f"  witness: {c['witness']}"
            out.append(f"  [{mark}] {c['name']}{tail}")
        return out


def reverify(cert: Certificate) -> tuple[bool, list[dict]]:
    """Rerun every stored check; report agreement with stored verdicts."""
    rows = []
    for c in cert.checks:
        try:
            ok, witness = run_check(c["kind"], c["data"])
        except Exception as e:  # a hand-edited check is a FAIL row, not a crash
            ok, witness = False, {"error": type(e).__name__, "message": str(e)}
        rows.append(
            {
                "name": c["name"],
                "stored": c["ok"],
                "recomputed": ok,
                "agrees": ok == c["ok"],
                "witness": jsonable(witness),
            }
        )
    return all(r["agrees"] for r in rows), rows


# ---------------------------------------------------------------------------
# checker kinds; data is always plain JSON values


def _pairs_to_map(pairs) -> dict[int, int]:
    try:
        f = dict(pairs)
    except (TypeError, ValueError):
        f = None
    # stored pairs are plain ints unless edited by hand; anything else is converted
    if f is not None and {*map(type, f), *map(type, f.values())} <= {int}:
        return f
    return {int(x): int(y) for x, y in pairs}


def _blocks_partition(n: int, blocks) -> Partition:
    """Stored blocks as a partition. A stored n above the points the blocks
    list is an InvalidPartition before any n cells are allocated, so a
    checker builds this first and sizes later work by it."""
    return Partition.from_blocks(n, [[int(x) for x in b] for b in blocks])


def _int_relation(data) -> IntBlockRelation:
    return IntBlockRelation.make(
        [parse_intset(b) for b in data["blocks"]], ambient=parse_intset(data["ambient"])
    )


@checker("value_equal")
def _chk_value_equal(data):
    ok = data["left"] == data["right"]
    return ok, None if ok else {"left": data["left"], "right": data["right"]}


def _partitions_agree(left: Partition, right: Partition):
    """Verdict and the first pair (x < y) the two partitions disagree on.

    Points below the least x0 whose two blocks differ agree with every
    point, so the pair is x0 and the least point of the symmetric
    difference of its blocks, which lies above x0.
    """
    if left == right:
        return True, None
    for block in left.blocks:
        x0 = block[0]
        other = right.blocks[right.class_of[x0]]
        if block != other:
            return False, (x0, min(set(block).symmetric_difference(other)))
    return False, None


@checker("partition_equal")
def _chk_partition_equal(data):
    return _partitions_agree(
        _blocks_partition(data["n"], data["left"]),
        _blocks_partition(data["n"], data["right"]),
    )


@checker("closure_partition")
def _chk_closure_partition(data):
    want = _blocks_partition(data["n"], data["blocks"])
    maps = [_pairs_to_map(g) for g in data["maps"]]
    got, _ = generate_equivalence(want.n, maps)
    return _partitions_agree(got, want)


@checker("finite_involution")
def _chk_finite_involution(data):
    f = _pairs_to_map(data["map"])
    for x, y in f.items():
        if f.get(y) != x:
            return False, (x, y)
    return True, None


@checker("finite_graph_in_partition")
def _chk_graph_in_partition(data):
    from ..feldman_moore import graph_within_partition

    rel = _blocks_partition(data["n"], data["blocks"])
    w = graph_within_partition(_pairs_to_map(data["map"]), rel)
    return w is None, w


@checker("finite_graph_subset")
def _chk_finite_graph_subset(data):
    union = {(int(x), int(y)) for g in data["others"] for x, y in g}
    for x, y in _pairs_to_map(data["left"]).items():
        if (x, y) not in union:
            return False, (x, y)
    return True, None


@checker("pair_coverage")
def _chk_pair_coverage(data):
    rel = _blocks_partition(data["n"], data["blocks"])
    stored = {pair for g in data["maps"] for pair in _pairs_to_map(g).items()}
    for block in rel.blocks:
        for x in block:
            for y in block:
                if x != y and (x, y) not in stored:
                    return False, (x, y)
    return True, None


@checker("enumeration_laws")
def _chk_enumeration_laws(data):
    maps = [_pairs_to_map(g) for g in data["maps"]]
    try:
        report = verify_enumeration(maps, data["n"])
    except NotAnEnumeration as e:
        return False, jsonable(e.witness)
    return report.ok, None if report.ok else jsonable(vars(report))


@checker("selector_laws")
def _chk_selector_laws(data):
    rel = _blocks_partition(data["n"], data["blocks"])
    try:
        selector_to_transversal(_pairs_to_map(data["phi"]), rel)
        return True, None
    except QBorelError as e:
        return False, jsonable(e.witness)


@checker("least_cover_index")
def _chk_least_cover_index(data):
    pairs = {(int(x), int(y)) for x, y in data["pairs"]}
    maps = [_pairs_to_map(g) for g in data["maps"]]
    phi = _pairs_to_map(data["phi"])
    dom = {x for x, _ in pairs}
    if set(phi) != dom:
        return False, sorted(set(phi) ^ dom)
    for x, y in phi.items():
        if (x, y) not in pairs:
            return False, (x, y)
        chosen = next(
            (i for i, f in enumerate(maps) if f.get(x) is not None and (x, f[x]) in pairs),
            None,
        )
        if chosen is None or maps[chosen].get(x) != y:
            return False, (x, y, chosen)
    return True, None


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
    rel = _int_relation(data)
    w = rel.graph_within_witness(parse_ptmap(data["map"]))
    return w is None, w


@checker("int_orbit_window")
def _chk_int_orbit_window(data):
    from ..feldman_moore import ORBIT_WINDOW, orbit_window_witness

    rel = _int_relation(data)
    maps = [parse_ptmap(t) for t in data["maps"]]
    w = orbit_window_witness(rel, maps, window=data.get("window", ORBIT_WINDOW))
    return w is None, w


@checker("int_levels")
def _chk_int_levels(data):
    from ..feldman_moore import levels_int

    rel = _int_relation(data)
    levels = levels_int(parse_ptmap(data["g"]), rel, bound=data.get("bound", 32))
    got = {
        "x1": format_intset(levels.positive.level(1)),
        "xm1": format_intset(levels.negative.level(1)),
        "zero": format_intset(levels.zero),
    }
    expected = data["expected"]
    mismatches = {
        key: {"got": got[key], "expected": expected[key]}
        for key in got
        if parse_intset(got[key]) != parse_intset(expected[key])
    }
    return not mismatches, mismatches or None


@checker("finite_levels_empty")
def _chk_finite_levels_empty(data):
    f = _pairs_to_map(data["map"])
    n = data["n"]
    first = sorted(set(f) - set(f.values()))
    last = sorted(set(f.values()) - set(f))
    ok = not first and not last and len(f) == n
    return ok, None if ok else {"unmatched_sources": first, "unmatched_targets": last}


@checker("int_least_index")
def _chk_int_least_index(data):
    from ..feldman_moore import weak_uniformize_int

    maps = [parse_ptmap(t) for t in data["maps"]]
    got = weak_uniformize_int(maps, maps).phi
    ok = got == parse_ptmap(data["phi"])
    return ok, None if ok else str(got)


@checker("involution_family_within")
def _chk_involution_family_within(data):
    rel = _blocks_partition(data["n"], data["blocks"])
    for i, g in enumerate(data["maps"]):
        f = _pairs_to_map(g)
        for x, y in f.items():
            if f.get(y) != x:
                return False, {"map": i, "pair": (x, y), "law": "involution"}
            if not (0 <= x < rel.n and 0 <= y < rel.n and rel.same(x, y)):
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


@checker("bijection_family_within")
def _chk_bijection_family_within(data):
    rel = _blocks_partition(data["n"], data["blocks"])
    points = set(range(data["n"]))
    for i, g in enumerate(data["maps"]):
        f = _pairs_to_map(g)
        # keys and values both exactly 0..n-1 (n keys, so n distinct values)
        if f.keys() != points or set(f.values()) != points:
            return False, {"map": i, "law": "bijection"}
        for x, y in f.items():
            if not rel.same(x, y):
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


@checker("ptmap_family_within")
def _chk_ptmap_family_within(data):
    rel = _int_relation(data)
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


@checker("tail_partition")
def _chk_tail_partition(data):
    want = _blocks_partition(data["n"], data["blocks"])
    got, _ = tail_equivalence(_pairs_to_map(data["map"]), want.n)
    ok = got == want
    return ok, None if ok else {"got": [list(b) for b in got.blocks]}


def _group(data) -> FiniteGroup:
    from ..actions import FiniteGroup

    return FiniteGroup(tuple(data["labels"]), tuple(tuple(r) for r in data["table"]))


@checker("cocycle_laws")
def _chk_cocycle_laws(data):
    from ..actions import Cocycle, GroupAction, verify_cocycle

    group = _group(data)
    action = GroupAction(
        group, data["n"], tuple(tuple(r) for r in data["maps"])
    )
    theta = {(int(x), int(y)): int(a) for x, y, a in data["theta"]}
    report = verify_cocycle(Cocycle(action, theta))
    ok = report.ok
    return ok, None if ok else {"moves": report.moves, "chains": report.chains}


@checker("normalizer_value")
def _chk_normalizer_value(data):
    from ..actions import normalizer

    group = _group(data)
    got = list(normalizer(group, [int(a) for a in data["delta"]]))
    ok = got == [int(a) for a in data["expected"]]
    return ok, None if ok else got


@checker("gallery")
def _chk_gallery(data):
    from ..cantor import example_gallery

    instance = example_gallery(
        data["name"], k=data.get("k"), n=data.get("n"), t=data.get("t")
    )
    expected = {k: bool(v) for k, v in data["expected_checks"].items()}
    got = {k: bool(v) for k, v in instance.checks.items()}
    ok = got == expected
    return ok, None if ok else {"got": got, "expected": expected}
