"""Machine-checkable run records.

A certificate stores the command, digests of its inputs, the values it
produced, and a list of checks. Every check carries its kind plus the
data the checker needs, so verification can be repeated later from the
stored record alone: reverify() reruns each checker and compares the
verdicts with what was stored. SPEC says which checks each command
writes and which outputs each one reads; a run writes its checks from
it, and reverify holds every certificate to it.
"""

from __future__ import annotations

import json
import marshal
from itertools import count
from typing import TYPE_CHECKING

from .. import __version__ as VERSION
from ..errors import InvalidCertificate, NotAnEnumeration, QBorelError
from ..quotient import Partition
from ..record import Record
from ..relations import (
    generate_equivalence,
    graph_within_partition,
    selector_to_transversal,
    tail_equivalence,
    verify_enumeration,
)

if TYPE_CHECKING:  # the checkers of group data import actions when they run
    from ..actions import FiniteGroup

TOOL = "qborel"
SCHEMA = 2  # what a run writes; a certificate with no schema key is schema 1
REFERENCE = "$output"
OUTPUT = "$output:"

# What each command certifies, by command and lane: the checks a run writes,
# in order, each (name, kind, data template). As _fill reads a template value,
# "$output:<key>" is that output, another text is the handler's value of that
# name, a list holds such values, a tuple of outputs is its first, which the
# others must equal, and anything else is a literal, such as the orbit window
# (feldman_moore.ORBIT_WINDOW, not imported here). An optional row has a
# fourth entry, and is written only when the handler supplies that value.
_PARTITION = {"n": "n", "blocks": "blocks"}
_INT_RELATION = {"blocks": "blocks", "ambient": "ambient"}
_COVER = ["$output:first", "$output:second"]
_ENUMERATION = ("graphs_form_an_enumeration", "enumeration_laws", {"n": "n", "maps": "graphs"})
_OPTIONAL_ENUMERATION = (*_ENUMERATION, "graphs")
_FINITE_COVER = [
    _ENUMERATION,
    ("seed_within_relation", "finite_graph_in_partition", {**_PARTITION, "map": "seed"}),
    # the finite cover's first is the extension, so it names one value twice
    ("extension_is_a_full_permutation", "finite_levels_empty",
     {"n": "n", "map": ("$output:extension", "$output:first")}),
    ("covers_are_bijections_within_relation", "bijection_family_within",
     {**_PARTITION, "maps": _COVER}),
    ("seed_inside_cover_union", "finite_graph_subset", {"left": "seed", "others": _COVER}),
    ("seed_inverse_inside_cover_union", "finite_graph_subset",
     {"left": "seed_inverse", "others": _COVER}),
]
SPEC = {
    "fm-classical": {"": [
        _OPTIONAL_ENUMERATION,
        ("involutions_square_to_identity_within_relation", "involution_family_within",
         {**_PARTITION, "maps": "involutions"}),
        ("every_related_pair_on_a_single_involution", "pair_coverage",
         {**_PARTITION, "maps": "involutions"}),
        ("generators_generate_the_relation", "closure_partition",
         {"n": "n", "maps": "$output:generators", "blocks": "blocks"}),
    ]},
    "fm-quotient": {"finite": [
        _ENUMERATION,
        ("generators_are_bijections_within_relation", "bijection_family_within",
         {**_PARTITION, "maps": "$output:generators"}),
        ("generated_orbit_equals_relation", "partition_equal",
         {"n": "n", "left": "orbit", "right": "blocks"}),
    ], "int": [
        ("generators_are_bijections_within_relation", "ptmap_family_within",
         {"maps": "$output:generators", **_INT_RELATION, "bijections": True}),
        ("orbit_covers_relation_on_window", "int_orbit_window",
         {"maps": "$output:generators", **_INT_RELATION, "window": 64}),
    ]},
    "cover": {"finite": [
        *_FINITE_COVER,
        ("extension_inverse_inside_cover_union", "finite_inverse_graph_subset",
         {"map": "$output:extension", "others": _COVER}),
    ], "int": [
        ("seed_within_relation", "ptmap_within_blocks", {"map": "seed", **_INT_RELATION}),
        ("levels_reproduce", "int_levels",
         {"g": "$output:extension", **_INT_RELATION, "bound": "bound", "expected": "levels"}),
        ("covers_are_bijections_within_relation", "ptmap_family_within",
         {"maps": _COVER, **_INT_RELATION, "bijections": True}),
        *((f"{left.removeprefix(OUTPUT)}_inside_cover_union", "ptmap_graph_subset",
           {"left": left, "others": _COVER})
          for left in ("seed", "seed_inverse", "$output:extension", "extension_inverse")),
    ]},
    "uniformize": {"graphs": [
        _ENUMERATION,
        ("selection_is_least_covering_index", "least_cover_index",
         {"pairs": "pairs", "maps": "graphs", "phi": "$output:selection"}),
    ], "int": [
        ("selection_inside_relation", "ptmap_graph_subset",
         {"left": "$output:selection", "others": "maps"}),
        ("selection_total_on_domain", "intset_equal",
         {"left": "selection_domain", "right": "domain"}),
        ("selection_is_least_covering_index", "int_least_index",
         {"maps": "maps", "phi": "$output:selection"}),
    ]},
    "generate": {"": [
        ("closure_matches_generated_partition", "closure_partition",
         {"n": "n", "maps": "maps", "blocks": "$output:blocks"}),
    ]},
    "tail": {"": [
        ("tail_classes_reproduce", "tail_partition",
         {"n": "n", "map": "map", "blocks": "$output:blocks"}),
    ]},
    "index": {"": [
        _OPTIONAL_ENUMERATION,
        ("index_matches_expectation", "value_equal",
         {"left": "$output:index", "right": "expect"}, "expect"),
    ]},
    "selector": {"": [
        _OPTIONAL_ENUMERATION,
        ("selector_laws_hold", "selector_laws", {**_PARTITION, "phi": "$output:selector"}),
    ]},
    "involution2": {"": [
        _OPTIONAL_ENUMERATION,
        ("squares_to_identity", "finite_involution", {"map": "$output:involution"}),
        ("graph_within_relation", "finite_graph_in_partition",
         {**_PARTITION, "map": "$output:involution"}),
        ("orbit_equals_relation", "closure_partition",
         {"n": "n", "maps": ["$output:involution"], "blocks": "blocks"}),
    ]},
    "action-orbits": {"": [
        ("orbits_equal_generated_closure", "closure_partition",
         {"n": "n", "maps": "maps", "blocks": "$output:orbits"}),
    ]},
    "cocycle": {"": [
        ("cocycle_laws_hold", "cocycle_laws",
         {"labels": "labels", "table": "table", "n": "n", "maps": "maps", "theta": "theta"}),
    ]},
    "normalizer": {"": [
        ("normalizer_reproduces", "normalizer_value",
         {"labels": "labels", "table": "table", "delta": "delta", "expected": "expected"}),
        ("normalizer_matches_expectation", "value_equal",
         {"left": "normalizer_labels", "right": "expect"}, "expect"),
    ]},
    "gallery": {"": [
        ("instance_checks_hold", "gallery",
         {"name": "name", "k": "k", "n": "n", "t": "t", "expected_checks": "expected_checks"}),
    ]},
}
# layouts of older versions that schema-1 certificates may hold: a finite
# cover of 8 checks, whose last two held maps against a union of themselves
LEGACY = {"cover": {"finite-8": [
    *_FINITE_COVER,
    ("extension_inside_cover_union", "finite_graph_subset",
     {"left": "$output:extension", "others": _COVER}),
    ("extension_inverse_inside_cover_union", "finite_graph_subset",
     {"left": "$output:second", "others": _COVER}),
]}}

CHECKERS: dict[str, object] = {}
# the kinds of the integer lanes: their checkers read the integer carrier,
# so they live in int_checks, which run_check imports when it first meets one
INT_KINDS = frozenset(row[1] for lanes in SPEC.values() for row in lanes.get("int", ()))


def checker(kind: str):
    def register(fn):
        CHECKERS[kind] = fn
        return fn
    return register


def run_check(kind: str, data: dict) -> tuple[bool, object]:
    if kind not in CHECKERS:
        if kind not in INT_KINDS:
            raise ValueError(f"no checker registered for kind {kind!r}")
        from . import int_checks  # registers the checker of every kind in INT_KINDS
    ok, witness = CHECKERS[kind](data)
    return bool(ok), witness


def _plain(value):
    """JSON form of a value the encoder does not know: sets sorted, the rest str()."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


# Every value a run encodes is a tree: a handler built it, or json.loads
# read it. So the encoders skip the walk that looks for cycles; the text is
# the same. _compact writes certificates, _spaced the printed outputs.
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False, default=_plain).encode
_spaced = json.JSONEncoder(check_circular=False, default=_plain).encode


def _spaced_text(text: str | None, value) -> str:
    """_spaced(value), from its compact text if given: one with no '"' spaces only its commas."""
    return text.replace(",", ", ") if text is not None and '"' not in text else _spaced(value)


def jsonable(value):
    """The JSON value a certificate stores for a witness or output.

    One round trip through the C codec, so the result is exactly what a
    later `json.loads` of the certificate gives back.
    """
    return json.loads(_compact(value))


def _snapshot(value) -> bytes | object:
    """Bytes that change whenever a plain JSON value does, nested edits too.

    Marshal format 2 predates shared references, so the bytes depend on
    the value alone, and writing them costs a fraction of JSON encoding.
    A value marshal cannot write (an object put in by hand) gives a new
    object, equal to no other snapshot.
    """
    try:
        return marshal.dumps(value, 2)
    except ValueError:
        return object()


def _resolve(data: dict, outputs) -> dict:
    """Check data with each reference (top level, or in a top-level list) read from outputs."""
    def read(v):
        if type(v) is not dict or v.keys() != {REFERENCE}:
            return v
        if isinstance(outputs, dict) and type(v[REFERENCE]) is str and v[REFERENCE] in outputs:
            return outputs[v[REFERENCE]]
        raise InvalidCertificate(f"reference {_compact(v)} names no stored output")
    return {key: [read(v) for v in value] if type(value) is list and dict in map(type, value)
            else read(value) for key, value in data.items()}


def _fill(t, outputs: dict, values: dict, refs: bool = True):
    """The value a SPEC template stands for; with refs, a list or dict output is its reference."""
    if type(t) is tuple:  # one output, which the others equal
        return _fill(t[0], outputs, values, refs)
    if type(t) is list:
        return [_fill(x, outputs, values, refs) for x in t]
    if type(t) is not str or not t.startswith(OUTPUT):
        return values[t] if type(t) is str else t
    value = outputs[key := t[len(OUTPUT):]]
    return {REFERENCE: key} if refs and type(value) in (list, dict) else value


def digest(text: str) -> str:
    from hashlib import sha256

    return sha256(text.encode("utf-8")).hexdigest()[:12]


class Certificate(Record):
    def __init__(
        self, command: str, arguments: dict | None = None, inputs: list | None = None,
        outputs: dict | None = None, checks: list | None = None, tool: str = TOOL,
        version: str = VERSION, *, schema: int = SCHEMA,
    ):
        # a fresh dict or list for each one not given
        self._set(
            command, {} if arguments is None else arguments, [] if inputs is None else inputs,
            {} if outputs is None else outputs, [] if checks is None else checks, tool, version,
        )
        self.schema = schema  # keyword-only, so not a field of repr or ==
        # (snapshot of (outputs, checks), *texts()) as certify wrote them
        self._text = None

    def add_input(self, name: str, text: str):
        self.inputs.append({"name": name, "sha256_12": digest(text)})

    def certify(self, outputs: dict, values: dict, lane: str = "") -> "Certificate":
        """Store the outputs, run the checker of each row SPEC lists for this
        command and lane, store each verdict alongside its data, and return
        the certificate. An output that a template names is written as a
        reference when it is a list or dict and as its value otherwise: a
        small integer or a shared text can equal an output by chance.

        Each output, keyed by text, and the data of each check are encoded
        once: the checker runs on that text decoded, with each reference read
        from the join of the output texts decoded, and texts() gives the same
        texts for as long as the outputs and checks hold the values they hold here.
        """
        self.outputs = outputs
        texts = {key: _compact(value) for key, value in outputs.items()}
        outputs_text = "{" + ",".join(f"{_compact(k)}:{t}" for k, t in texts.items()) + "}"
        decoded = json.loads(outputs_text)
        lines = [_compact(c) for c in self.checks]  # those an earlier call wrote
        for name, kind, template, *needs in SPEC[self.command][lane]:
            if needs and needs[0] not in values:
                continue
            text = _compact({key: _fill(t, outputs, values) for key, t in template.items()})
            data = json.loads(text)
            ok, witness = run_check(kind, _resolve(data, decoded))
            witness_text = _compact(witness)
            self.checks.append({
                "name": name,
                "kind": kind,
                "data": data,
                "ok": ok,
                "witness": json.loads(witness_text),
            })
            lines.append(
                f'{{"name":{_compact(name)},"kind":{_compact(kind)},"data":{text},'
                f'"ok":{"true" if ok else "false"},"witness":{witness_text}}}'
            )
        self._text = _snapshot((self.outputs, self.checks)), outputs_text, texts, lines
        return self

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def texts(self) -> tuple[str, dict, list[str]]:
        """(outputs text, text of each output, check lines) as certify wrote them while the
        outputs and checks hold what it wrote, else encoded anew with no output texts."""
        if self._text and self._text[0] == _snapshot((self.outputs, self.checks)):
            return self._text[1:]
        return _compact(self.outputs), {}, [_compact(c) for c in self.checks]

    def to_json(self, texts: tuple | None = None) -> str:
        """One key per line and one check per line, each value compact, as texts() gives them."""
        head = {
            "schema": self.schema,
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "arguments": self.arguments,
            "inputs": self.inputs,
        }
        lines = [f'  "{key}": {_compact(value)},' for key, value in head.items()]
        outputs, _, check_lines = texts or self.texts()
        lines.append(f'  "outputs": {outputs},')
        checks = ",\n".join(f"    {line}" for line in check_lines)
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
        schema = raw.get("schema", 1)
        if type(schema) is not int or schema not in (1, SCHEMA):
            raise InvalidCertificate(f"certificate schema {_compact(schema)} is neither 1 nor 2")
        return cls(
            command=raw.get("command", ""),
            arguments=raw.get("arguments", {}),
            inputs=raw.get("inputs", []),
            outputs=raw.get("outputs", {}),
            checks=checks,
            tool=raw.get("tool", TOOL),
            version=raw.get("version", VERSION),
            schema=schema,
        )

    def summary_lines(self) -> list[str]:
        out = [f"{self.command}: {len(self.checks)} checks"]
        for c in self.checks:
            mark = "pass" if c["ok"] else "FAIL"
            tail = "" if c["ok"] else f"  witness: {c['witness']}"
            out.append(f"  [{mark}] {c['name']}{tail}")
        return out


def _layout(cert: Certificate) -> tuple[list | None, str | None]:
    """The template of each stored check, or None and where the checks first
    differ from a layout of the command, in the lane that agrees longest."""
    lanes = SPEC.get(cert.command) if type(cert.command) is str else None
    if lanes is None:
        return None, f"unknown command {_compact(cert.command)}"
    if cert.schema == 1:
        lanes = {**lanes, **LEGACY.get(cert.command, {})}
    stored = [[c["name"], c["kind"]] for c in cert.checks]
    tried = []
    for rows in lanes.values():
        # an optional row the certificate does not hold is no part of its layout
        rows = [row for row in rows if len(row) == 3 or [row[0], row[1]] in stored]
        want = [[name, kind] for name, kind, *_ in rows]
        if want == stored:
            return [row[2] for row in rows], None
        i = next(i for i in count() if want[i:i + 1] != stored[i:i + 1])
        got, expected = (_compact(x[i]) if i < len(x) else "absent" for x in (stored, want))
        tried.append((i, f"{cert.command}: check {i + 1} is {got}, not {expected}"))
    return None, max(tried, key=lambda t: t[0])[1]


def _unbound(stored: dict, data: dict, template: dict, outputs, schema: int) -> str | None:
    """The first field that SPEC fixes (outputs, or a literal) and the check
    does not hold: it holds what _fill gives once references are read, or,
    in schema 2, which reads references, as stored. A field naming a handler
    value is not fixed. A tuple's other outputs must equal its first."""
    outputs = outputs if isinstance(outputs, dict) else {}
    for key, t in template.items():
        t, *same = t if type(t) is tuple else (t,)
        names = t if type(t) is list else [t]
        if type(names[0]) is str and not names[0].startswith(OUTPUT):
            continue  # a value the handler supplies
        try:
            bound = (schema == 2 and stored.get(key) == _fill(t, outputs, {})) or (
                data.get(key) == _fill(t, outputs, {}, refs=False)
            )
        except KeyError:  # an output the certificate does not store
            bound = False
        keys = [x[len(OUTPUT):] for x in names if type(x) is str]
        if not bound:
            what = f"output {', '.join(keys)}" if keys else _compact(t)
            return f"field {key} does not hold {what}"
        for k in (x[len(OUTPUT):] for x in same):
            if k not in outputs or outputs[k] != outputs[keys[0]]:
                return f"output {k} is not output {keys[0]}"


def reverify(cert: Certificate) -> tuple[bool, list[dict], str | None]:
    """Rerun every stored check; report agreement with stored verdicts, and
    where the checks depart from SPEC's layouts of the command (None if they
    do not). A check not holding a field that SPEC fixes is a FAIL row."""
    templates, layout = _layout(cert)
    rows = []
    for i, c in enumerate(cert.checks):
        unbound = None
        try:
            data = c["data"] if cert.schema == 1 else _resolve(c["data"], cert.outputs)
            ok, witness = run_check(c["kind"], data)
            unbound = templates and _unbound(
                c["data"], data, templates[i], cert.outputs, cert.schema
            )
        except Exception as e:  # a hand-edited check is a FAIL row, not a crash
            ok, witness = False, {"error": type(e).__name__, "message": str(e)}
        if unbound:
            ok, witness = False, {"error": "InvalidCertificate", "message": unbound}
        rows.append(
            {
                "name": c["name"],
                "stored": c["ok"],
                "recomputed": ok,
                "agrees": ok == c["ok"] and not unbound,
                "witness": None if witness is None else jsonable(witness),
            }
        )
    return all(r["agrees"] for r in rows), rows, layout


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
    return Partition.from_blocks(n, [list(map(int, b)) for b in blocks])


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
    left = _blocks_partition(data["n"], data["left"])
    if data["right"] == data["left"]:  # an equal list reads as the same partition
        return True, None
    return _partitions_agree(left, _blocks_partition(data["n"], data["right"]))


@checker("closure_partition")
def _chk_closure_partition(data):
    want = _blocks_partition(data["n"], data["blocks"])
    maps = [_pairs_to_map(g) for g in data["maps"]]
    if want.generated_by(p for f in maps for p in f.items()):
        return True, None
    # a failing row regenerates the closure, to name its witness or raise its error
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


@checker("finite_inverse_graph_subset")
def _chk_finite_inverse_graph_subset(data):
    """The inverse of map, taken here from its pairs, lies in the union of others."""
    union = {(int(x), int(y)) for g in data["others"] for x, y in g}
    for x, y in _pairs_to_map(data["map"]).items():
        if (y, x) not in union:
            return False, (y, x)
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


def _level_texts(levels) -> dict:
    """The level-1 sets and zero part of an IntLevels, as int_levels stores them."""
    return {
        "x1": str(levels.positive.level(1)),
        "xm1": str(levels.negative.level(1)),
        "zero": str(levels.zero),
    }


@checker("finite_levels_empty")
def _chk_finite_levels_empty(data):
    f = _pairs_to_map(data["map"])
    n = data["n"]
    first = sorted(set(f) - set(f.values()))
    last = sorted(set(f.values()) - set(f))
    ok = not first and not last and len(f) == n
    return ok, None if ok else {"unmatched_sources": first, "unmatched_targets": last}


@checker("involution_family_within")
def _chk_involution_family_within(data):
    rel = _blocks_partition(data["n"], data["blocks"])
    n, label = rel.n, rel.class_of
    for i, g in enumerate(data["maps"]):
        f = _pairs_to_map(g)
        for x, y in f.items():
            if f.get(y) != x:
                return False, {"map": i, "pair": (x, y), "law": "involution"}
            if not (0 <= x < n and 0 <= y < n and label[x] == label[y]):
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


@checker("bijection_family_within")
def _chk_bijection_family_within(data):
    label = _blocks_partition(data["n"], data["blocks"]).class_of
    points = set(range(data["n"]))
    for i, g in enumerate(data["maps"]):
        try:  # a passing map passes as stored; the path below decides any other
            f = dict(g)
            if f.keys() == points == set(f.values()) and not [
                    x for x, y in f.items() if label[x] != label[y]]:
                continue
        except (TypeError, ValueError):
            pass
        f = _pairs_to_map(g)
        # keys and values both exactly 0..n-1 (n keys, so n distinct values)
        if f.keys() != points or set(f.values()) != points:
            return False, {"map": i, "law": "bijection"}
        for x, y in f.items():
            if label[x] != label[y]:
                return False, {"map": i, "pair": (x, y), "law": "within"}
    return True, None


@checker("tail_partition")
def _chk_tail_partition(data):
    want = _blocks_partition(data["n"], data["blocks"])
    f = _pairs_to_map(data["map"])
    if want.generated_by(f.items()):
        return True, None
    got, _ = tail_equivalence(f, want.n)
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
