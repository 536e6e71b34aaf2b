"""The plain-text instance format: parsing and error reporting.

Every sample file is parsed by the golden manifest commands in
test_certificates.py.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import qborel
from qborel.cli.instance import _split_groups, parse_instance
from qborel.errors import InstanceSyntaxError, UnknownReference


FULL = """\
# every declaration kind in one file
space S carrier = finite(4)
space P carrier = finite(5) partition = { {0, 1}, {2}, {3, 4} }
space Z carrier = int

map f : S -> S : 0 -> 1, 1 -> 0, 2 -> 2, 3 -> 3
ptmap g : Z : ..-1 -> +0 | 0.. -> +1

rel E on S partition = { {0, 1, 2}, {3} }
rel F on S graphs = [f]
rel B on Z blocks = { {..-1}, {0..} }

group C2 table = [[0, 1], [1, 0]] labels = [e, s]
action a : C2 on S : s -> f

set rel = F
set g0 = f
"""


def test_parse_full_instance():
    inst = parse_instance(FULL)
    assert set(inst.spaces) == {"S", "P", "Z"}
    assert inst.spaces["S"].kind == "finite" and inst.spaces["S"].size == 4
    assert inst.spaces["Z"].kind == "int"
    assert set(inst.maps) == {"f", "g"}
    assert inst.maps["f"].kind == "finite"
    assert inst.maps["g"].kind == "int"
    assert set(inst.rels) == {"E", "F", "B"}
    assert inst.rels["E"].kind == "partition"
    assert inst.rels["F"].kind == "graphs"
    assert inst.rels["B"].kind == "blocks"
    assert set(inst.groups) == {"C2"}
    assert set(inst.actions) == {"a"}
    assert inst.directives == {"rel": "F", "g0": "f"}


def test_finite_map_values():
    inst = parse_instance(FULL)
    assert inst.maps["f"].table == {0: 1, 1: 0, 2: 2, 3: 3}


def test_partition_spaces_project():
    inst = parse_instance(FULL)
    s = inst.spaces["P"].space
    assert s.num_classes == 3
    assert s.class_of[0] == s.class_of[1] != s.class_of[2]
    assert s.class_of[3] == s.class_of[4]


def test_syntax_error_carries_line():
    bad = "space S carrier = finite(2)\nmap f S -> S : 0 -> 1\n"
    with pytest.raises(InstanceSyntaxError) as ei:
        parse_instance(bad)
    assert ei.value.line == 2
    assert "line 2" in str(ei.value)


def test_unknown_reference_carries_line():
    bad = "space S carrier = finite(2)\nrel F on S graphs = [nope]\n"
    with pytest.raises(UnknownReference) as ei:
        parse_instance(bad)
    assert ei.value.line == 2


def test_declaration_order_enforced():
    # action referring to a map declared later is an error
    bad = (
        "space S carrier = finite(2)\n"
        "group C2 table = [[0, 1], [1, 0]]\n"
        "action a : C2 on S : 1 -> f\n"
        "map f : S -> S : 0 -> 1, 1 -> 0\n"
    )
    with pytest.raises(UnknownReference):
        parse_instance(bad)


def test_duplicate_names_rejected():
    bad = "space S carrier = finite(2)\nspace S carrier = finite(3)\n"
    with pytest.raises(InstanceSyntaxError) as ei:
        parse_instance(bad)
    assert ei.value.line == 2


CAPPED_PARSE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qborel.cli.instance import parse_instance
from qborel.errors import InstanceSyntaxError
try:
    parse_instance("# huge\\nspace Q carrier = finite(1000000000)\\n")
except InstanceSyntaxError as e:
    print(e.line, e)
"""


def test_finite_carrier_above_cap_refused_before_allocation():
    # under a 1 GiB address-space cap, building 10^9 points would end in MemoryError
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qborel.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", CAPPED_PARSE], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "2 line 2: finite(1000000000) exceeds the cap of 65536 points\n"
    from qborel.cli.instance import MAX_POINTS

    assert parse_instance(f"space Q carrier = finite({MAX_POINTS})\n").spaces["Q"].size == MAX_POINTS
    with pytest.raises(InstanceSyntaxError):
        parse_instance(f"space Q carrier = finite({MAX_POINTS + 1})\n")


def test_finite_carrier_size_with_thousands_of_digits():
    with pytest.raises(InstanceSyntaxError) as ei:
        parse_instance("# huge\nspace Q carrier = finite(" + "7" * 5000 + ")\n")
    assert ei.value.line == 2


SPACE = "space S carrier = finite(2)\n"
LONG = "9" * 5000


@pytest.mark.parametrize("line, message", [
    # past 40 characters a message quotes the first 40 and states the length
    (f"map f : S -> S : {LONG} -> 0",
     f"expected an integer, got {LONG[:40]!r}... (5000 characters)"),
    (f"map f : S -> S : 0 -> 1x{LONG}",
     f"expected an integer, got {('1x' + LONG)[:40]!r}... (5002 characters)"),
    (f"map f : S -> S : {LONG}",
     f"bad map entry {LONG[:40]!r}... (5000 characters)"),
    (f"map f : S -> S : 0 -> {'9' * 4000}",
     f"target point {'9' * 40}... (4000 characters) outside S"),
    (f"map f S -> S : {LONG}",
     f"bad map declaration: {('f S -> S : ' + LONG)[:40]!r}... (5011 characters)"),
    (f"space Q carrier = finite({'7' * 4000})",
     f"finite({'7' * 40}... (4000 characters)) exceeds the cap of 65536 points"),
    (f"frob {LONG}", "unknown declaration 'frob'"),
    # up to 40 characters the whole text is quoted, as before
    ("map f : S -> S : 0 1", "bad map entry '0 1'"),
    ("map f : S -> S : 0 -> x", "expected an integer, got 'x'"),
    (f"map f : S -> S : 0 -> {'1' * 39}x", f"expected an integer, got {'1' * 39 + 'x'!r}"),
], ids=[
    "long_integer", "long_target", "long_map_entry", "long_point", "long_declaration",
    "long_finite_size", "long_trailer_unquoted", "short_map_entry", "short_integer",
    "forty_characters",
])
def test_messages_quote_at_most_forty_characters(line, message):
    with pytest.raises(InstanceSyntaxError) as ei:
        parse_instance(SPACE + line + "\n")
    assert str(ei.value) == f"line 2: {message}"


INT = "space Z carrier = int\n"
TERM = "x" * 3000


@pytest.mark.parametrize("text, message", [
    # a bad IntSet term, wherever it is written, is quoted like any input text
    (INT + f"ptmap f : Z : {TERM} -> +1",
     f"line 2: bad IntSet term: {TERM[:40]!r}... (3000 characters)"),
    (INT + f"rel R on Z blocks = {{ {{{TERM}}} }}",
     f"line 2: bad IntSet term: {TERM[:40]!r}... (3000 characters)"),
    # an int space takes no trailer: it is quoted, not parsed
    (f"space Z carrier = int partition = {{ {{{TERM}}} }}",
     "line 1: an int space takes no trailer, got "
     f"{'partition = { {' + TERM[:25]!r}... (3018 characters)"),
    ("space Z carrier = int partition = { {..-1}, {0..} }",
     "line 1: an int space takes no trailer, got 'partition = { {..-1}, {0..} }'"),
    (INT + "ptmap f : Z : 0..4 -> +1 | 2 -> +2", "line 2: overlapping domains at 2"),
    (INT + "ptmap f : Z : 0 -> +x", "line 2: bad offset: '+x'"),
], ids=[
    "long_ptmap_term", "long_blocks_term", "long_space_term", "short_space_trailer",
    "short_overlap", "short_offset",
])
def test_carrier_messages_quote_at_most_forty_characters(text, message):
    with pytest.raises(InstanceSyntaxError) as ei:
        parse_instance(text + "\n")
    assert str(ei.value) == message


@pytest.mark.parametrize("decl", [
    "space S carrier = finite(2) partition = {{ {{0}}, {{1, {x}}} }}",
    "space S carrier = finite(2)\nrel R on S partition = {{ {{0}}, {{1, {x}}} }}",
], ids=["space", "rel"])
@pytest.mark.parametrize("x, message", [
    ("9" * 4000, f"point {'9' * 40}... (4000 characters) outside 0..1"),
    ("5", "point 5 outside 0..1"),
], ids=["long_point", "short_point"])
def test_partition_entry_messages_quote_at_most_forty_characters(decl, x, message):
    from qborel.quotient import InvalidPartition

    with pytest.raises(InvalidPartition) as ei:
        parse_instance(decl.format(x=x) + "\n")
    assert str(ei.value) == message
    assert ei.value.witness == int(x)


def test_int_partition_of_2000_descriptors_parses_within_1_s():
    # 2,002 blocks that partition the integers: the overlap sweep is linear
    segments = ", ".join(f"{{{3 * i}..{3 * i + 2}}}" for i in range(2000))
    text = INT + f"rel R on Z blocks = {{ {{..-1}}, {segments}, {{6000..}} }}\n"
    t0 = time.perf_counter()
    rel = parse_instance(text).rels["R"].value
    assert time.perf_counter() - t0 < 1.0
    assert len(rel.blocks) == 2002


def test_bad_partition_delegates():
    from qborel.quotient import InvalidPartition

    bad = "space S carrier = finite(3) partition = { {0, 1}, {1, 2} }\n"
    with pytest.raises((InstanceSyntaxError, InvalidPartition)):
        parse_instance(bad)


@pytest.mark.parametrize("pair, body, message", [
    ("{}", "(0)", "expected braced block list, got '(0)'"),
    ("{}", "{ {0}} }", "unbalanced braces"),
    ("{}", "{ {0 }", "unbalanced braces"),
    ("{}", "{ {0} x {1} }", "unexpected 'x' between blocks"),
    ("[]", "(0)", "expected [[...], ...], got '(0)'"),
    ("[]", "[[0]]]", "unbalanced brackets"),
    ("[]", "[[0]", "unbalanced brackets"),
    ("[]", "[[0] x [1]]", "unexpected 'x' between rows"),
])
def test_group_splitter_messages(pair, body, message):
    with pytest.raises(InstanceSyntaxError) as ei:
        _split_groups(body, 7, pair)
    assert str(ei.value) == f"line 7: {message}"


def test_comments_and_blank_lines_ignored():
    text = "\n# hello\n\nspace S carrier = finite(1)\n# bye\n"
    inst = parse_instance(text)
    assert set(inst.spaces) == {"S"}


def test_group_labels_resolve_in_actions():
    text = (
        "space S carrier = finite(2)\n"
        "map sw : S -> S : 0 -> 1, 1 -> 0\n"
        "group C2 table = [[0, 1], [1, 0]] labels = [e, s]\n"
        "action a : C2 on S : s -> sw\n"
    )
    inst = parse_instance(text)
    act = inst.actions["a"].action
    assert act.act(1, 0) == 1


def test_repeated_group_label_is_a_syntax_error_at_the_group_line():
    text = (
        "space P carrier = finite(3)\n"
        "group C3 table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]] labels = [e, r, r]\n"
    )
    with pytest.raises(InstanceSyntaxError) as ei:
        parse_instance(text)
    assert str(ei.value) == "line 2: label r names two elements"


FIN2 = "space S carrier = finite(2)\n"
FIN3 = "space T carrier = finite(3)\n"
C2 = "group C2 table = [[0, 1], [1, 0]] labels = [e, s]\n"


@pytest.mark.parametrize("text, line, message", [
    # declarations their keyword's pattern does not read
    ("space S carrier = finite(x)", 1, "bad space declaration: 'S carrier = finite(x)'"),
    (INT + "ptmap f Z 0.. -> +1", 2, "bad ptmap declaration: 'f Z 0.. -> +1'"),
    (FIN2 + "rel R S graphs = [f]", 2, "bad rel declaration: 'R S graphs = [f]'"),
    ("group G tabel = [[0]]", 1, "bad group declaration: 'G tabel = [[0]]'"),
    (FIN2 + C2 + "action a C2 on S", 3, "bad action declaration: 'a C2 on S'"),
    # a finite space's trailer, and the list a graphs relation takes
    ("space S carrier = finite(2) colours = 3", 1, "unexpected trailer 'colours = 3'"),
    (FIN2 + "rel R on S graphs = f", 2, "expected [...] list, got 'f'"),
    # declarations on the wrong kind of space
    (INT + "map f : Z -> Z : 0 -> 1", 2,
     "map declarations need finite spaces; use ptmap for int"),
    (FIN2 + "ptmap f : S : 0 -> +1", 2, "ptmap needs an int space"),
    (INT + "rel R on Z graphs = []", 2, "graphs form needs a finite space"),
    (FIN2 + "rel R on S blocks = { {0} }", 2, "blocks form needs an int space"),
    (INT + "rel R on Z partition = { {0} }", 2, "partition form needs a finite space"),
    (INT + "group C1 table = [[0]]\naction a : C1 on Z :", 3,
     "actions are declared on finite spaces"),
    # points outside a space, and a point mapped twice
    (FIN2 + "map f : S -> S : 2 -> 0", 2, "source point 2 outside S"),
    (FIN2 + "map f : S -> S : 0 -> -1", 2, "target point -1 outside S"),
    (FIN2 + "map f : S -> S : 0 -> 1, 0 -> 0", 2, "point 0 mapped twice"),
    # maps that are not endomaps, not total, or missing from an action
    (FIN2 + FIN3 + "map f : S -> T : 0 -> 0\nrel R on S graphs = [f]", 4,
     "map 'f' is not an endomap of S"),
    (FIN2 + FIN3 + C2 + "map f : S -> T : 0 -> 0\naction a : C2 on S : s -> f", 5,
     "map 'f' is not an endomap of S"),
    (FIN2 + C2 + "map f : S -> S : 0 -> 1\naction a : C2 on S : s -> f", 4,
     "map 'f' is not total on S"),
    (FIN2 + C2 + "map f : S -> S : 0 -> 1, 1 -> 0\naction a : C2 on S : s f", 4,
     "bad action entry 's f'"),
    (FIN2 + C2 + "action a : C2 on S :", 3, "elements [1] have no assigned map"),
    # lines and directives that are no declaration
    ("123 abc", 1, "cannot read '123 abc'"),
    (FIN2 + "space", 2, "cannot read 'space'"),
    ("set 9 = x", 1, "bad directive: '9 = x'"),
    ("set rel F", 1, "bad directive: 'rel F'"),
], ids=[
    "bad_space", "bad_ptmap", "bad_rel", "bad_group", "bad_action", "finite_trailer",
    "graphs_list", "map_on_int", "ptmap_on_finite", "graphs_on_int",
    "blocks_on_finite", "partition_on_int", "action_on_int", "source_outside",
    "target_outside", "mapped_twice", "rel_not_endomap", "action_not_endomap",
    "action_not_total", "bad_action_entry", "unassigned_element", "unreadable_line",
    "keyword_alone", "bad_directive_name", "directive_without_equals",
])
def test_each_refused_line_is_a_typed_error_at_its_line(tmp_path, capsys, text, line, message):
    from qborel.cli.main import main

    inst = tmp_path / "bad.qb"
    inst.write_text(text + "\n")
    assert main(["index", "--input", str(inst)]) == 1
    out = capsys.readouterr()
    assert out.err == "" and "Traceback" not in out.out
    error = json.loads(out.out)["error"]
    assert error == {
        "kind": "InstanceSyntaxError", "message": f"line {line}: {message}", "witness": None,
    }
