"""The plain-text instance format: parsing, printing, and error reporting."""

import os
import pathlib
import subprocess
import sys

import pytest

import qborel
from qborel.cli.instance import (
    InstanceFile,
    _split_groups,
    parse_instance,
    parse_instance_file,
    print_instance,
)
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


def test_print_parse_round_trip():
    inst = parse_instance(FULL)
    text = print_instance(inst)
    again = parse_instance(text)
    assert print_instance(again) == text


def test_finite_map_values():
    inst = parse_instance(FULL)
    assert inst.maps["f"].table == {0: 1, 1: 0, 2: 2, 3: 3}


def test_partition_spaces_project():
    inst = parse_instance(FULL)
    s = inst.spaces["P"].space
    assert s.size == 3
    assert s.project(0) == s.project(1) != s.project(2)
    assert s.project(3) == s.project(4)


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


def test_parse_instance_file(tmp_path):
    p = tmp_path / "inst.qb"
    p.write_text(FULL, encoding="utf-8")
    inst = parse_instance_file(str(p))
    assert set(inst.spaces) == {"S", "P", "Z"}


def test_samples_parse_and_round_trip():
    import pathlib

    here = pathlib.Path(__file__).resolve().parent.parent / "samples"
    for sample in sorted(here.glob("*.qb")):
        inst = parse_instance_file(str(sample))
        text = print_instance(inst)
        assert print_instance(parse_instance(text)) == text
