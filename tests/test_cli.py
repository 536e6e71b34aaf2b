"""End-to-end command line checks, run in-process through main()."""

import ast
import contextlib
import gc
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import qborel
from qborel import cantor, feldman_moore
from qborel.carriers import (
    _canonical_pieces,
    _ptmap_of_text,
    _relation_of_texts,
    _residue_algebra,
    IntBlockRelation,
    IntSet,
    PiecewiseTranslation,
    parse_ptmap,
)
from qborel.feldman_moore import _levels_of, levels_int
from qborel.quotient import _JOINED, Partition
from qborel.record import _MEMOS, MEMO_SIZE, Memo
from qborel.relations import _VERDICTS, checked_enumeration
from qborel.cli.certificates import run_check
from qborel.cli.main import FLAGS, FLAGS_OF, _plain_args, build_parser, main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

FIVE = str(SAMPLES / "five_points.qb")
SWAP = str(SAMPLES / "swap.qb")
RAY = str(SAMPLES / "shifted_ray.qb")
ROT = str(SAMPLES / "rotation.qb")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse error path
        code = e.code
    out = capsys.readouterr()
    return code, out.out + out.err


# -- exit codes ------------------------------------------------------------

def test_usage_error_is_exit_2(capsys):
    code, _ = run(capsys, "bogus")
    assert code == 2
    code, _ = run(capsys)
    assert code == 2
    code, _ = run(capsys, "fm-quotient")  # no instance
    assert code == 2


def test_check_failure_is_exit_1(capsys):
    code, out = run(capsys, "index", "--gallery", "ex35", "--expect", "2")
    assert code == 1
    assert "FAIL" in out


def test_structured_error_is_exit_1(capsys):
    code, out = run(capsys, "involution2", "--input", FIVE, "--rel", "E")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "IndexTooLarge"
    assert err["witness"] == [0, 1, 2]


# -- repr text in the byte format -------------------------------------------

# five_points.qb without the shift c3i: the graphs are not symmetric
MISSING_SHIFT = (SAMPLES / "five_points.qb").read_text().replace(
    "graphs = [e, c3, c3i, fin]", "graphs = [e, c3, fin]"
)
ENUM_REPORT = (
    "EnumReport(reflexive=CheckOutcome(ok=True, witness=None), "
    "symmetric=CheckOutcome(ok=False, witness=(1, 0)), "
    "transitive=CheckOutcome(ok=False, witness=(0, 2, 1)))"
)


def test_enumeration_report_repr_in_stdout_is_pinned(tmp_path, capsys):
    inst = tmp_path / "missing.qb"
    inst.write_text(MISSING_SHIFT)
    code = main(["fm-quotient", "--input", str(inst)])
    assert code == 1
    assert capsys.readouterr().out == (
        '{\n  "error": {\n    "kind": "NotAnEnumeration",\n'
        '    "message": "graphs fail the closure checks",\n'
        f'    "witness": "{ENUM_REPORT}"\n  }}\n}}\n'
    )


def test_enumeration_laws_witness_bytes_are_pinned(tmp_path, capsys):
    inst, cert = tmp_path / "missing.qb", tmp_path / "c.json"
    inst.write_text(MISSING_SHIFT)
    assert main(["selector", "--input", str(inst), "--out", str(cert)]) == 1
    line = cert.read_text().splitlines()[9]
    assert line == (
        '    {"name":"graphs_form_an_enumeration","kind":"enumeration_laws",'
        '"data":{"n":5,"maps":[[[0,0],[1,1],[2,2],[3,3],[4,4]],'
        '[[0,1],[1,2],[2,0],[3,4],[4,3]],[[0,0],[1,1],[2,2],[3,4],[4,3]]]},'
        '"ok":false,"witness":{"reflexive":"CheckOutcome(ok=True, witness=None)",'
        '"symmetric":"CheckOutcome(ok=False, witness=(1, 0))",'
        '"transitive":"CheckOutcome(ok=False, witness=(0, 2, 1))"}},'
    )


@pytest.mark.parametrize("command", ["index", "selector", "fm-classical", "uniformize"])
def test_graphs_that_are_no_enumeration_fail_their_check(tmp_path, capsys, command):
    # every command that reads a graphs relation certifies the graphs first
    inst = tmp_path / "missing.qb"
    inst.write_text(MISSING_SHIFT)
    code, out = run(capsys, command, "--input", str(inst))
    assert code == 1
    assert "  [FAIL] graphs_form_an_enumeration  witness: " in out


# a swap of 0 and 1 alone on five points: two pairs, fewer than the points, so
# the check fails reflexivity before it joins a pair
LONE_SWAP = "space Q carrier = finite(5)\nmap f : Q -> Q : 0 -> 1, 1 -> 0\nrel E on Q graphs = [f]\n"


@pytest.mark.parametrize("text, command, output", [
    (MISSING_SHIFT, "index", "index = 3"),
    (LONE_SWAP, "index", "index = 2"),
    (LONE_SWAP, "involution2", "involution = [[0, 1], [1, 0], [2, 2], [3, 3], [4, 4]]"),
    (LONE_SWAP, "selector", "selector = [[0, 0], [1, 0], [2, 2], [3, 3], [4, 4]]"),
], ids=["missing_shift", "lone_swap_index", "lone_swap_involution2", "lone_swap_selector"])
def test_graphs_that_fail_the_laws_still_give_the_partition_they_join(
    tmp_path, capsys, text, command, output
):
    inst = tmp_path / "failing.qb"
    inst.write_text(text)
    code, out = run(capsys, command, "--input", str(inst))
    assert code == 1 and "  [FAIL] graphs_form_an_enumeration  witness: " in out
    assert f"  {output}\n" in out


# -- commands on the samples --------------------------------------------------

def test_fm_quotient_finite(capsys):
    code, out = run(capsys, "fm-quotient", "--input", FIVE, "--rel", "F")
    assert code == 0
    assert "[pass] graphs_form_an_enumeration" in out
    assert "[pass] generated_orbit_equals_relation" in out
    assert "classes = 2" in out


def test_fm_quotient_int(capsys):
    code, out = run(capsys, "fm-quotient", "--input", RAY)
    assert code == 0
    assert "psi_count = 9" in out


def test_fm_classical(capsys):
    code, out = run(capsys, "fm-classical", "--input", FIVE, "--rel", "E")
    assert code == 0
    assert "[pass] every_related_pair_on_a_single_involution" in out


def test_fm_classical_above_the_table_cap_is_bad_parameters(tmp_path, capsys):
    # one class of 160 points: 160^2 * 8 tables of 160 entries, refused
    # before any is built (building them ran out of memory)
    inst = tmp_path / "big.qb"
    inst.write_text(
        "space Q carrier = finite(160)\n"
        f"rel E on Q partition = {{ {{{','.join(map(str, range(160)))}}} }}\n"
    )
    start = time.perf_counter()
    code, out = run(capsys, "fm-classical", "--input", str(inst), "--rel", "E")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["kind"], err["witness"]) == ("BadParameters", 32_768_000)


def test_cover_uses_directives(capsys):
    # five_points.qb sets rel = F and g0 = g0
    code, out = run(capsys, "cover", "--input", FIVE)
    assert code == 0
    assert "[pass] extension_inverse_inside_cover_union" in out
    # on the finite lane the extension is the first cover map: no check of it
    assert "extension_inside_cover_union" not in out


def test_cover_int_frozen_output(capsys):
    code, out = run(capsys, "cover", "--input", RAY)
    assert code == 0
    assert 'first = "1:+2*inf -> -1 | ..-1 -> +0 | 0:+2*inf -> +1"' in out
    assert 'second = "2:+2*inf -> -1 | ..0 -> +0 | 1:+2*inf -> +1"' in out


def test_certificate_round_trip(tmp_path, capsys):
    cert_file = str(tmp_path / "cover.json")
    code, _ = run(capsys, "cover", "--gallery", "et_shift", "--out", cert_file)
    assert code == 0
    data = json.loads(pathlib.Path(cert_file).read_text())
    assert data["tool"] == "qborel"
    assert all(c["ok"] for c in data["checks"])
    code, out = run(capsys, "verify", "--input", cert_file)
    assert code == 0
    assert "verdicts reproduce" in out


@pytest.mark.parametrize("command", ["cover", "fm-quotient"])
def test_gallery_et_shift_is_shifted_ray_built_once(tmp_path, capsys, monkeypatch, command):
    # the example's inputs are read, not its construction run: a gallery run
    # covers as often as a run of the sample file, and a cover once
    calls = []
    cover_int = feldman_moore.cover_int
    monkeypatch.setattr(feldman_moore, "cover_int",
                        lambda levels: calls.append(levels) or cover_int(levels))
    certs, covers = [], []
    for source in (["--gallery", "et_shift"], ["--input", RAY]):
        cert = tmp_path / f"{len(certs)}.json"
        assert run(capsys, command, *source, "--out", str(cert))[0] == 0
        certs.append(json.loads(cert.read_text()))
        covers.append(len(calls))
        calls.clear()
    assert covers[0] == covers[1] and (command != "cover" or covers == [1, 1])
    # the example declares what the sample file does: only the inputs differ
    gallery, sample = certs
    assert gallery["inputs"] != sample["inputs"]
    assert (gallery["outputs"], gallery["checks"]) == (sample["outputs"], sample["checks"])


def test_verify_detects_tampering(tmp_path, capsys):
    cert_file = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "--gallery", "et_shift", "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    # claim different levels than the checks were run on
    touched = 0
    for c in data["checks"]:
        if c["kind"] == "int_levels":
            c["data"]["expected"]["x1"] = "5"
            touched += 1
    assert touched == 1
    cert_file.write_text(json.dumps(data))
    code, out = run(capsys, "verify", "--input", str(cert_file))
    assert code == 1


LATE_PERIOD = (
    "space Z carrier = int\n"
    "rel F on Z blocks = { {0..} }\n"
    "ptmap idz : Z : ..-1; 0.. -> +0\n"
    "ptmap g0 : Z : 0..39 -> +1 | 40.. -> +2\n"
    "set rel = F\n"
    "set maps = idz\n"
    "set g0 = g0\n"
)


def test_cover_int_level_bound_above_32_replays(tmp_path, capsys):
    inst = tmp_path / "late_period.qb"
    inst.write_text(LATE_PERIOD)
    cert_file = str(tmp_path / "cover.json")
    code, out = run(capsys, "cover", "--input", str(inst), "--K", "64", "--out", cert_file)
    assert code == 0
    assert '"positive_acceleration": [41, 1, 2]' in out
    code, out = run(capsys, "verify", "--input", cert_file)
    assert code == 0
    assert "verdicts reproduce" in out


def test_level_bound_is_a_ceiling_not_a_depth(tmp_path, capsys, monkeypatch):
    # the shifted ray certifies its period after one image, so raising
    # --K from 32 to 1024 builds no further level in cover or in verify
    calls = [0]
    image = PiecewiseTranslation.image

    def counted(self, s):
        calls[0] += 1
        return image(self, s)

    monkeypatch.setattr(PiecewiseTranslation, "image", counted)
    counts = {}
    for k in ("32", "1024"):
        cert_file = str(tmp_path / f"cover_{k}.json")
        calls[0] = 0
        code, _ = run(capsys, "cover", "--input", RAY, "--K", k, "--out", cert_file)
        assert code == 0
        certify = calls[0]
        code, out = run(capsys, "verify", "--input", cert_file)
        assert code == 0 and "verdicts reproduce" in out
        counts[k] = (certify, calls[0] - certify)
    assert counts["1024"][0] <= counts["32"][0]
    assert counts["1024"][1] <= counts["32"][1]


@pytest.mark.parametrize("argv", [
    ("cover", "--K", "100000"),
    ("fm-quotient", "--K", "100000"),
])
def test_probe_parameters_above_the_cap_are_bad_parameters(capsys, argv):
    code, out = run(capsys, *argv, "--input", RAY)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "BadParameters" and err["witness"] == 100000


def test_no_acceleration_carries_explored_levels(tmp_path, capsys):
    inst = tmp_path / "late_period.qb"
    inst.write_text(LATE_PERIOD)
    code, out = run(capsys, "cover", "--input", str(inst))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "NoAcceleration"
    w = err["witness"]
    assert (w["bound"], w["max_period"], len(w["levels"])) == (32, 8, 32)
    assert w["levels"][0] == "0:+41*2"


@pytest.mark.parametrize("edit, error", [
    (lambda d: d["ptmap_within_blocks"].update(map="garbage"), "ValueError"),
    (lambda d: d["int_levels"].pop("g"), "KeyError"),
])
def test_verify_hand_edited_check_is_a_fail_row(tmp_path, capsys, edit, error):
    cert_file = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "--input", RAY, "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    edit({c["kind"]: c["data"] for c in data["checks"]})
    cert_file.write_text(json.dumps(data))
    rows_file = tmp_path / "rows.json"
    code, out = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    assert code == 1
    assert "verification failed" in out
    rows = json.loads(rows_file.read_text())["rows"]
    bad = [r for r in rows if not r["agrees"]]
    assert len(bad) == 1 and bad[0]["recomputed"] is False
    assert bad[0]["witness"]["error"] == error


@pytest.mark.parametrize("text", ["not a certificate {", "[]", '{"checks": [1]}'])
def test_verify_rejects_text_that_is_not_a_certificate(tmp_path, capsys, text):
    cert_file = tmp_path / "bad.json"
    cert_file.write_text(text)
    code, out = run(capsys, "verify", "--input", str(cert_file))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InvalidCertificate"


def test_generate_with_chain(capsys):
    code, out = run(
        capsys, "generate", "--input", FIVE, "--maps", "c3,fin",
        "--x", "0", "--y", "2",
    )
    assert code == 0
    assert "blocks = [[0, 1, 2], [3, 4]]" in out
    assert "chain" in out


def test_generate_chain_is_null_for_unrelated_points(capsys):
    code, out = run(
        capsys, "generate", "--input", FIVE, "--maps", "c3,fin",
        "--x", "0", "--y", "3",
    )
    assert code == 0
    assert "chain = null" in out


def test_cover_seed_on_larger_space_is_typed_error(tmp_path, capsys):
    inst = tmp_path / "larger_seed.qb"
    inst.write_text(
        "space A carrier = finite(5)\n"
        "space B carrier = finite(8)\n"
        "map e : A -> A : 0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3, 4 -> 4\n"
        "rel F on A graphs = [e]\n"
        "map g0 : B -> B : 6 -> 7\n"
    )
    code, out = run(capsys, "cover", "--input", str(inst), "--g0", "g0")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "NotWithinRelation"
    assert err["witness"] == [6, 7]


def test_bad_block_term_is_typed_error(tmp_path, capsys):
    inst = tmp_path / "bad_block.qb"
    inst.write_text(
        "space Z carrier = int\n"
        "rel F on Z blocks = { {0..x} }\n"
    )
    code, out = run(capsys, "index", "--input", str(inst))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "InstanceSyntaxError"
    assert err["message"].startswith("line 2: bad IntSet term")


def test_selector_on_larger_space_is_a_fail_row(tmp_path, capsys):
    inst = tmp_path / "larger_phi.qb"
    inst.write_text(
        "space A carrier = finite(3)\n"
        "space B carrier = finite(8)\n"
        "map phi : B -> B : 0 -> 0, 1 -> 7, 2 -> 2\n"
        "rel E on A partition = { {0, 1}, {2} }\n"
    )
    code, out = run(capsys, "selector", "--input", str(inst), "--phi", "phi")
    assert code == 1
    assert "[FAIL] selector_laws_hold  witness: [1, 7]" in out


@pytest.mark.parametrize("kind, data, witness", [
    ("finite_graph_in_partition",
     {"n": 2, "blocks": [[0], [1]], "map": [[0, 5]]},
     (0, 5)),
    ("involution_family_within",
     {"n": 2, "blocks": [[0], [1]], "maps": [[[0, 5], [5, 0]]]},
     {"map": 0, "pair": (0, 5), "law": "within"}),
    ("enumeration_laws",
     {"n": 2, "maps": [[[0, 0], [1, 1]], [[0, 5], [5, 0]], [[5, 5]]]},
     [0, 5]),
])
def test_checkers_fail_on_points_out_of_range(kind, data, witness):
    assert run_check(kind, data) == (False, witness)


@pytest.mark.parametrize("endpoints, message", [
    (["--x", "0", "--y", "-1"], "--y -1 is outside the points 0..4"),
    (["--x", "5", "--y", "0"], "--x 5 is outside the points 0..4"),
    # a lone endpoint asks for a chain that would not be printed
    (["--x", "0"], "--x and --y go together"),
    (["--y", "2"], "--x and --y go together"),
], ids=["y_below", "x_above", "x_alone", "y_alone"])
def test_generate_endpoint_outside_the_points_is_usage_error(capsys, endpoints, message):
    code, out = run(capsys, "generate", "--input", FIVE, "--maps", "c3,fin", *endpoints)
    assert code == 2
    assert message in out
    assert "Traceback" not in out


@pytest.mark.parametrize("argv, message", [
    (["cover", "--rel", "F", "--g0", "g"], "cover on a graphs relation needs a map seed"),
    (["cover", "--rel", "B", "--maps", "g", "--g0", "f"],
     "cover on a blocks relation needs a ptmap seed"),
    (["cover", "--rel", "B", "--maps", "f", "--g0", "g"], "cover on a blocks relation needs ptmaps"),
    (["fm-quotient", "--rel", "B", "--maps", "f"], "fm-quotient on a blocks relation needs ptmaps"),
    (["selector", "--rel", "E", "--phi", "g"], "selector needs a map for --phi"),
    # messages that predate the shared lane check
    (["generate", "--maps", "g"], "generate works on finite maps"),
    (["generate", "--maps", "f,g"], "maps must all live on the same carrier kind"),
    (["tail", "--map", "g"], "tail works on finite endomaps"),
    (["uniformize", "--rel", "E", "--maps", "f"], "uniformize without a graphs relation needs ptmaps"),
], ids=[
    "cover_graphs_ptmap_seed", "cover_blocks_map_seed", "cover_blocks_maps", "fm_quotient_blocks_maps",
    "selector_ptmap_phi", "generate_ptmaps", "generate_mixed", "tail_ptmap", "uniformize_maps",
])
def test_map_from_the_wrong_lane_is_usage_error(tmp_path, capsys, argv, message):
    from test_instance_format import FULL

    inst = tmp_path / "full.qb"
    inst.write_text(FULL, encoding="utf-8")
    code, out = run(capsys, *argv, "--input", str(inst))
    assert code == 2
    assert out.endswith(f"qborel: error: {message}\n")


@pytest.mark.parametrize("command", ["verify", "index"])
def test_unreadable_input_path_is_usage_error(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.qb")
    code, out = run(capsys, command, "--input", missing)
    assert code == 2
    assert f"cannot read {missing}" in out


def test_verify_input_not_utf8_is_invalid_certificate(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert_file.write_bytes(b"\xff\xfe{}")
    code, out = run(capsys, "verify", "--input", str(cert_file))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "InvalidCertificate"


@pytest.mark.parametrize("golden", [
    "generate_five_points_maps_c3-fin.json", "schema2/generate_five_points_maps_c3-fin.json",
], ids=["schema1", "schema2"])
def test_verify_reads_past_a_byte_order_mark(tmp_path, capsys, golden):
    plain, marked = GOLDEN / golden, tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, out = run(capsys, "verify", "--input", str(plain))
    assert code == 0
    assert run(capsys, "verify", "--input", str(marked)) == (
        0, out.replace(str(plain), str(marked))
    )


def test_verify_not_utf8_after_a_byte_order_mark_counts_bytes_from_the_file_start(
    tmp_path, capsys
):
    cert_file = tmp_path / "marked.json"
    cert_file.write_bytes(b"\xef\xbb\xbfx\xff")
    code, out = run(capsys, "verify", "--input", str(cert_file))
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["kind"], err["message"]) == (
        "InvalidCertificate", "certificate is not UTF-8 text at byte 4"
    )


def test_instance_not_utf8_is_syntax_error(tmp_path, capsys):
    inst = tmp_path / "latin1.qb"
    inst.write_bytes(b"space Z carrier = int\n# caf\xe9\n")
    code, out = run(capsys, "index", "--input", str(inst))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "InstanceSyntaxError"
    assert err["message"].startswith("line 2: not UTF-8")


def test_instance_with_a_byte_order_mark_reads_as_without_it(tmp_path, capsys):
    text = (
        b"space Q carrier = finite(2)\nmap f : Q -> Q : 0 -> 0, 1 -> 1\nrel E on Q graphs = [f]\n"
    )
    runs = []
    for side, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        (tmp_path / side).mkdir()
        inst, cert = tmp_path / side / "I.qb", tmp_path / side / "cert.json"
        inst.write_bytes(data)
        code, out = run(capsys, "index", "--input", str(inst), "--out", str(cert))
        runs.append((code, out.replace(side, "SIDE"), cert.read_bytes()))
    assert runs[0][0] == 0 and runs[1] == runs[0]  # the digest is the plain text's


def test_instance_not_utf8_after_a_byte_order_mark_counts_bytes_from_the_file_start(
    tmp_path, capsys
):
    inst = tmp_path / "marked.qb"
    inst.write_bytes(b"\xef\xbb\xbfspace Z carrier = int\n\xe9\n")
    code, out = run(capsys, "index", "--input", str(inst))
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["kind"], err["message"]) == (
        "InstanceSyntaxError", "line 2: not UTF-8 text at byte 25"
    )


def two_ray_instance(span):
    return (
        "space Z carrier = int\n"
        "ptmap idz : Z : ..-1; 0.. -> +0\n"
        f"ptmap up : Z : ..-2 -> +1 | {span}.. -> +1\n"
        f"ptmap down : Z : ..-1 -> -1 | {span + 1}.. -> -1\n"
        f"rel F on Z blocks = {{ {{..-1}}, {{{span}..}} }}\n"
        "set rel = F\n"
        "set maps = idz,up,down\n"
    )


def test_two_ray_fm_quotient_at_span_a_million(tmp_path, capsys):
    # the gap between the rays no longer sets the residue modulus
    inst = tmp_path / "two_ray.qb"
    inst.write_text(two_ray_instance(10**6))
    cert_file = str(tmp_path / "two_ray.json")
    start = time.perf_counter()
    code, out = run(capsys, "fm-quotient", "--input", str(inst), "--out", cert_file)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    code, out = run(capsys, "verify", "--input", cert_file)
    assert code == 0
    assert "verdicts reproduce and all checks pass" in out


def test_tail(capsys):
    code, out = run(capsys, "tail", "--input", FIVE, "--map", "fin")
    assert code == 0
    assert "blocks = [[0], [1], [2], [3, 4]]" in out


def test_index_gallery_expectation(capsys):
    code, out = run(capsys, "index", "--gallery", "ex35", "--expect", "3")
    assert code == 0
    assert "index = 3" in out


def test_index_expect_not_an_integer_is_usage_error(capsys):
    code, out = run(capsys, "index", "--input", FIVE, "--expect", "abc")
    assert code == 2
    assert "--expect" in out and "'abc'" in out


@pytest.mark.parametrize("sub", ["0,99", "0,-1"])
def test_normalizer_element_outside_the_group_is_usage_error(capsys, sub):
    code, out = run(capsys, "normalizer", "--gallery", "ex36", "--sub", sub)
    assert code == 2
    assert f"group element '{sub[2:]}' outside 0..5" in out


# a group element named by a label, by an index, or by neither
@pytest.mark.parametrize("element, message", [
    ("x", "unknown group element 'x'"),
    ("3", "group element '3' outside 0..2"),
    ("-1", "group element '-1' outside 0..2"),
    ("y" * 50, f"unknown group element {'y' * 40!r}... (50 characters)"),
], ids=["unknown_label", "index_above", "index_below", "long_label"])
def test_bad_group_element_reads_alike_in_sub_and_action(tmp_path, capsys, element, message):
    code, out = run(capsys, "normalizer", "--input", ROT, "--sub", f"e,{element}")
    assert code == 2
    assert out.endswith(f"qborel: error: {message}\n")
    inst = tmp_path / "rotation.qb"
    inst.write_text(pathlib.Path(ROT).read_text().replace("rr -> mrr", f"{element} -> mrr"))
    code, out = run(capsys, "normalizer", "--input", str(inst), "--sub", "e")
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "InstanceSyntaxError", "message": f"line 7: {message}", "witness": None,
    }


# one partition relation and one action on four points
REL_AND_ACTION = (
    "space P carrier = finite(4)\n"
    "group C2 table = [[0, 1], [1, 0]] labels = [e, s]\n"
    "map me : P -> P : 0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3\n"
    "map ms : P -> P : 0 -> 1, 1 -> 0, 2 -> 3, 3 -> 2\n"
    "action a : C2 on P : e -> me, s -> ms\n"
    "rel R on P partition = { {0, 1, 2}, {3} }\n"
)


@pytest.mark.parametrize("flags, reads", [
    ([], "R"),
    (["--rel", "R", "--action", "a"], "R"),
    (["--rel", "R"], "R"),
    (["--action", "a"], "a"),
], ids=["no_flags", "both_flags", "rel_flag", "action_flag"])
def test_selector_and_export_graph_read_the_same_declaration(tmp_path, capsys, flags, reads):
    inst = tmp_path / "both.qb"
    inst.write_text(REL_AND_ACTION)
    code, out = run(capsys, "selector", "--input", str(inst), *flags)
    assert code == 0
    # R's classes are {0, 1, 2} and {3}; the action's orbits {0, 1} and {2, 3}
    assert f"transversal = {[0, 3] if reads == 'R' else [0, 2]}" in out
    code, out = run(capsys, "export-graph", "--input", str(inst), *flags)
    assert code == 0
    assert ('[label="R"]' in out, '[label="s"]' in out) == (reads == "R", reads == "a")


def test_selector_from_action(capsys):
    code, out = run(capsys, "selector", "--input", ROT, "--phi", "sel")
    assert code == 0
    assert "[pass] selector_laws_hold" in out
    assert "transversal = [0, 3]" in out


def test_involution2(capsys):
    code, out = run(capsys, "involution2", "--input", SWAP, "--rel", "F")
    assert code == 0
    assert "involution = [[0, 1], [1, 0]]" in out


def test_uniformize(capsys):
    code, out = run(
        capsys, "uniformize", "--input", FIVE, "--rel", "F",
        "--maps", "e,c3,c3i,fin",
    )
    assert code == 0
    assert "[pass] selection_is_least_covering_index" in out


def test_action_orbits(capsys):
    code, out = run(capsys, "action-orbits", "--input", ROT)
    assert code == 0
    assert "orbits = [[0, 1, 2], [3, 4, 5]]" in out


def test_cocycle(capsys):
    code, out = run(capsys, "cocycle", "--input", ROT)
    assert code == 0
    assert "[pass] cocycle_laws_hold" in out


def test_normalizer_instance_and_gallery(capsys):
    code, out = run(capsys, "normalizer", "--input", ROT, "--sub", "e,r,rr")
    assert code == 0
    assert 'normalizer = ["e", "r", "rr"]' in out
    code, out = run(capsys, "normalizer", "--gallery", "ex36", "--expect", "012,102")
    assert code == 0
    assert "[pass] normalizer_matches_expectation" in out


def test_gallery_all(capsys):
    for name in ("ex34", "ex35", "ex36", "ex37", "et_shift"):
        code, out = run(capsys, "gallery", name)
        assert code == 0, (name, out)
        assert "[pass] instance_checks_hold" in out


# an argument the command does not read, positional or flag, would be
# dropped, and the run would certify something other than what was asked for
@pytest.mark.parametrize("argv, unread", [
    (["cover", "stray", "--input", FIVE], "stray"),
    (["index", "ex35", "--gallery", "ex35"], "ex35"),
    # gallery takes its name as a positional only
    (["gallery", "ex34", "--gallery", "ex35"], "--gallery ex35"),
    (["index", "--input", FIVE, "--x", "0", "--phi", "nosuch", "--maps", "zz"],
     "--x 0 --phi nosuch --maps zz"),
    (["verify", "--input", str(GOLDEN / "index_swap.json"), "--rel", "nosuch"], "--rel nosuch"),
    (["tail", "--input", ROT, "--map", "sel", "--K", "5"], "--K 5"),
    (["gallery", "ex34", "--input", FIVE], f"--input {FIVE}"),
], ids=[
    "stray_positional", "index_positional", "two_gallery_names",
    "index_flags", "verify_flag", "tail_flag", "gallery_input",
])
def test_a_stray_or_second_name_is_usage_error(tmp_path, capsys, argv, unread):
    out_file = tmp_path / "F"
    code, out = run(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert "Traceback" not in out
    assert out.endswith(f"qborel: error: unrecognized arguments: {unread}\n")
    assert not out_file.exists()


def _args_reads(functions: dict, name: str, seen: set) -> set:
    """The args.<dest> that function `name` reads, with those of each module
    function it passes `args` to, called by name or as an attribute."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = getattr(node.func, "id", None) or node.func.attr
            passed = [*node.args, *(k.value for k in node.keywords)]
            if callee in functions and callee not in seen and any(
                isinstance(a, ast.Name) and a.id == "args" for a in passed
            ):
                reads |= _args_reads(functions, callee, seen)
    return reads


def test_flags_of_lists_the_flags_each_command_reads():
    import qborel.cli.commands as commands

    cli = sys.modules[main.__module__]
    # the dispatcher and the handlers it loads: no function is defined in both
    functions = {}
    for module in (cli, commands):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        defined = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert not defined.keys() & functions.keys(), sorted(defined.keys() & functions.keys())
        functions |= defined
    # what main reads for the handler (--input, --out, --gallery and the
    # model flags among them) counts as read for each command declaring it
    main_reads = _args_reads(functions, "main", set())
    assert main_reads <= {*cli.FLAGS, "command"}, sorted(main_reads - {*cli.FLAGS, "command"})
    for command, (source, *dests) in cli.FLAGS_OF.items():
        declared = {*source.split("|"), *dests}
        reads = _args_reads(functions, cli.COMMANDS[command].__name__, set())
        assert reads <= declared, (command, sorted(reads - declared))
        assert declared <= reads | main_reads, (command, sorted(declared - reads - main_reads))


@pytest.mark.parametrize("flag, message", [
    ("--k", "alphabet size 0 outside 2..10"),
    ("--n", "word length 0 must be positive"),
])
def test_gallery_explicit_zero_is_bad_parameters(capsys, flag, message):
    code, out = run(capsys, "gallery", "ex34", flag, "0")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "BadParameters" and err["message"] == message


@pytest.mark.parametrize("name", ["ex34", "ex35"])
def test_a_flip_gallery_refuses_three_letters_before_building_a_model(capsys, monkeypatch, name):
    built = []
    monkeypatch.setattr(cantor, "make_truncated_model", lambda *a: built.append(a))
    code, out = run(capsys, "gallery", name, "--k", "3")
    assert code == 1 and built == []
    err = json.loads(out)["error"]
    assert err == {"kind": "BadParameters", "message": "two letters required for the flip instance",
                   "witness": None}


@pytest.mark.parametrize("flag", ["--k", "--n", "--t"])
def test_gallery_et_shift_rejects_parameters(capsys, flag):
    code, out = run(capsys, "gallery", "et_shift", flag, "3")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "BadParameters"
    assert err["message"] == f"et_shift takes no parameters, got {flag[2:]}=3"


@pytest.mark.parametrize("command, sample", [("cover", FIVE), ("fm-quotient", SWAP)],
                         ids=["cover", "fm_quotient"])
@pytest.mark.parametrize("with_input", [False, True], ids=["no_input", "input"])
def test_gallery_other_than_et_shift_is_usage_error(tmp_path, capsys, command, sample, with_input):
    out_file = tmp_path / "cert.json"
    argv = [command, "--gallery", "ex34", "--out", str(out_file)]
    code, out = run(capsys, *argv, *(["--input", sample] if with_input else []))
    assert code == 2
    if with_input:
        message = f"qborel {command}: error: argument --input: not allowed with argument --gallery"
    else:
        message = f"qborel: error: only the et_shift gallery instance feeds {command}"
    assert out.endswith(f"{message}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv, message", [
    (["index", "--gallery", "ex35"],
     "qborel index: error: argument --input: not allowed with argument --gallery"),
    (["cover", "--gallery", "et_shift"],
     "qborel cover: error: argument --input: not allowed with argument --gallery"),
    (["gallery", "ex35"], f"qborel: error: unrecognized arguments: --input {FIVE}"),
], ids=["index", "cover", "gallery"])
def test_gallery_with_input_is_usage_error(tmp_path, capsys, argv, message):
    # the certificate would list an input file the run never read
    out_file = tmp_path / "cert.json"
    code, out = run(capsys, *argv, "--input", FIVE, "--out", str(out_file))
    assert code == 2
    assert out.endswith(f"{message}\n")
    assert not out_file.exists()


def test_cover_without_input_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, out = run(capsys, "cover", "--out", str(out_file))
    assert code == 2
    message = "qborel cover: error: one of the arguments --input --gallery is required"
    assert out.endswith(f"{message}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv, message", [
    (["cover", "--gallery", "ex34"],
     "qborel cover: error: argument --input: not allowed with argument --gallery"),
    (["fm-quotient", "--gallery", "ex34"],
     "qborel fm-quotient: error: argument --input: not allowed with argument --gallery"),
    (["index", "--expect", "abc"],
     "qborel: error: --expect takes an integer or 'unbounded', got 'abc'"),
    (["index", "--gallery", "ex35"],
     "qborel index: error: argument --input: not allowed with argument --gallery"),
    (["tail", "--K", "5"], "qborel: error: unrecognized arguments: --K 5"),
    (["index", "--k", "3"],
     "qborel: error: --k, --n and --t set a gallery model: pass them with --gallery"),
], ids=["cover", "fm_quotient", "index", "index_gallery", "unread_flag", "model_flag"])
def test_flag_usage_error_comes_before_the_instance_is_read(tmp_path, capsys, argv, message):
    broken = tmp_path / "broken.qb"
    broken.write_text("space S carrier = bogus\n", encoding="utf-8")
    for path in (broken, tmp_path / "missing.qb"):
        code, out = run(capsys, *argv, "--input", str(path))
        assert code == 2
        assert out.endswith(f"{message}\n")


# a flag is read alike from an instance file and from a gallery example,
# so neither source drops one
@pytest.mark.parametrize("argv, message", [
    (["index", "--input", FIVE, "--k", "3"],
     "--k, --n and --t set a gallery model: pass them with --gallery"),
    (["cocycle", "--input", ROT, "--n", "4", "--t", "2"],
     "--k, --n and --t set a gallery model: pass them with --gallery"),
    (["fm-quotient", "--gallery", "et_shift", "--rel", "nosuch", "--maps", "zz"],
     "relation 'nosuch' not found in the instance"),
    (["cover", "--gallery", "et_shift", "--maps", "zz"], "map 'zz' not found in the instance"),
    (["normalizer", "--gallery", "ex36", "--group", "nosuch"],
     "group 'nosuch' not found in the instance"),
    (["cocycle", "--gallery", "ex34", "--action", "nosuch"],
     "action 'nosuch' not found in the instance"),
], ids=["index_k", "cocycle_n_t", "fm_quotient_rel", "cover_maps", "normalizer_group",
        "cocycle_action"])
def test_a_flag_is_read_on_both_sources(tmp_path, capsys, argv, message):
    out_file = tmp_path / "cert.json"
    code, out = run(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert "Traceback" not in out
    assert out.endswith(f"qborel: error: {message}\n")
    assert not out_file.exists()


# selecting a gallery example's objects by their documented names reads
# what the run reads by default
@pytest.mark.parametrize("argv, names", [
    (["cover", "--gallery", "et_shift"], ["--rel", "F", "--maps", "idz,up,down", "--g0", "g0"]),
    (["fm-quotient", "--gallery", "et_shift"], ["--rel", "F", "--maps", "idz,up,down"]),
    (["index", "--gallery", "ex34"], ["--rel", "orbit"]),
    (["index", "--gallery", "ex35"], ["--rel", "over"]),
    (["cocycle", "--gallery", "ex36"], ["--action", "action"]),
    (["normalizer", "--gallery", "ex36"], ["--group", "group", "--sub", "0,2"]),
], ids=["cover", "fm_quotient", "index_orbit", "index_over", "cocycle", "normalizer"])
def test_gallery_objects_selected_by_name_are_the_defaults(capsys, argv, names):
    code, out = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, *names) == (code, out)


def test_index_of_a_gallery_example_is_the_index_it_reports(capsys):
    from qborel.cantor import example_gallery

    for name in ("ex34", "ex35", "ex36"):
        index = example_gallery(name).summary["index"]
        code, out = run(capsys, "index", "--gallery", name)
        assert code == 0 and f"  index = {index}\n" in out, name


def test_gallery_example_runs_as_its_declarations_in_a_file(capsys):
    code, out = run(capsys, "index", "--gallery", "et_shift")
    assert code == 0 and 'index = "unbounded"' in out
    assert run(capsys, "index", "--input", RAY) == (code, out)
    # ex34's action has a group, so a subgroup given by --sub is enough
    code, out = run(capsys, "normalizer", "--gallery", "ex34", "--sub", "0")
    assert code == 0
    assert 'normalizer = ["01", "10"]' in out


# with no name given and nothing of the kind declared, no flag could help
@pytest.mark.parametrize("argv, what", [
    (["cocycle", "--gallery", "ex35"], "action"),
    (["index", "--gallery", "ex37"], "relation"),
    (["normalizer", "--gallery", "ex35", "--sub", "0"], "group"),
    (["cocycle", "--input", "only_a_relation"], "action"),
    (["cover", "--input", "only_a_relation"], "seed map"),
    (["uniformize", "--input", "only_a_relation"], "map"),
], ids=["gallery_action", "gallery_relation", "gallery_group", "file_action", "file_seed",
        "file_maps"])
def test_nothing_declared_is_named_in_the_usage_error(tmp_path, capsys, argv, what):
    inst = tmp_path / "only_a_relation.qb"
    inst.write_text("space P carrier = finite(2)\nrel R on P partition = { {0, 1} }\n")
    argv = [str(inst) if a == "only_a_relation" else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out.endswith(f"qborel: error: the instance declares no {what}\n")


FIVE_SEEDS = (
    "space Q carrier = finite(5)\n"
    "map e : Q -> Q : 0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3, 4 -> 4\n"
    "map c : Q -> Q : 0 -> 1, 1 -> 0, 2 -> 2, 3 -> 4, 4 -> 3\n"
    "map escaping : Q -> Q : 0 -> 1, 2 -> 3\n"
    "map both : Q -> Q : 0 -> 3, 1 -> 3\n"
    "rel F on Q graphs = [e, c]\n"
)


@pytest.mark.parametrize("seed, kind, message, witness", [
    ("escaping", "NotWithinRelation", "seed pair (2, 3) leaves the relation", [2, 3]),
    # not injective and escaping: injectivity is checked first
    ("both", "NotInjective", "seed maps 0 and 1 to 3", [0, 1, 3]),
])
def test_finite_cover_rejects_a_faulty_seed(tmp_path, capsys, seed, kind, message, witness):
    inst = tmp_path / "seeds.qb"
    inst.write_text(FIVE_SEEDS, encoding="utf-8")
    code, out = run(capsys, "cover", "--input", str(inst), "--g0", seed)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": kind, "message": message, "witness": witness}


def test_finite_cover_checks_only_its_seed_against_the_relation(capsys, monkeypatch):
    # the psis lie in the graphs that enumerate the relation, and the
    # extension's level step is unchecked: only the seed, and the checks
    # that read the seed and the cover, test against the relation
    import qborel.cli.certificates as certificates
    import qborel.feldman_moore as fm

    cli_main = sys.modules["qborel.cli.main"]
    checked = []
    within = fm.graph_within_partition

    def counted(f, rel):
        checked.append(dict(f))
        return within(f, rel)

    for module in (fm, cli_main, certificates):
        monkeypatch.setattr(module, "graph_within_partition", counted, raising=False)
    code, _ = run(capsys, "cover", "--input", FIVE)
    assert code == 0
    seed = {0: 1}
    assert checked[0] == seed  # greedy_extend's seed check
    assert checked == [seed, seed]  # then the seed check at emit


# bad relates -1 to 0, across the two blocks; no psi of it is non-empty, so
# only a check of the maps themselves sees it
STRAY_MAP = (
    "space Z carrier = int\n"
    "rel F on Z blocks = { {..-1}, {0..} }\n"
    "ptmap idz : Z : ..-1; 0.. -> +0\n"
    "ptmap up : Z : 0.. -> +1\n"
    "ptmap down : Z : 1.. -> -1\n"
    "ptmap bad : Z : -1 -> +1\n"
    "ptmap g0 : Z : 0 -> +1\n"
    "ptmap escaping : Z : -1 -> +1\n"
    "ptmap both : Z : 0 -> +2 | 3 -> -1\n"
    "set rel = F\n"
    "set maps = idz,up,down,bad\n"
)


@pytest.mark.parametrize("seed", ["g0", "escaping", "both"])
def test_integer_cover_rejects_a_stray_map_as_fm_quotient_does(tmp_path, capsys, seed):
    # the maps are checked before the seed, so a faulty seed changes nothing
    inst = tmp_path / "stray.qb"
    inst.write_text(STRAY_MAP, encoding="utf-8")
    errors = []
    for argv in (("cover", "--g0", seed), ("fm-quotient",)):
        code, out = run(capsys, *argv, "--input", str(inst))
        assert code == 1
        errors.append(json.loads(out)["error"])
    assert errors == 2 * [{
        "kind": "NotWithinRelation",
        "message": "graph 3 leaves the relation at (-1, 0)",
        "witness": [-1, 0],
    }]


def test_verify_int_levels_without_its_bound_is_a_fail_row(tmp_path, capsys):
    # the ray's levels replay alike at 8 and at 32, so only a check that
    # insists on the stored bound tells the deletion
    cert_file = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "--input", RAY, "--K", "8", "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    [levels] = [c["data"] for c in data["checks"] if c["kind"] == "int_levels"]
    del levels["bound"]
    cert_file.write_text(json.dumps(data))
    rows_file = tmp_path / "rows.json"
    code, out = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    assert code == 1
    rows = json.loads(rows_file.read_text())["rows"]
    assert [r["witness"]["error"] for r in rows if not r["agrees"]] == ["KeyError"]


def test_verify_stored_gallery_k_zero_is_a_fail_row(tmp_path, capsys):
    cert_file = tmp_path / "gallery.json"
    code, _ = run(capsys, "gallery", "ex34", "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    data["checks"][0]["data"]["k"] = 0
    cert_file.write_text(json.dumps(data))
    rows_file = tmp_path / "rows.json"
    code, out = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    assert code == 1
    rows = json.loads(rows_file.read_text())["rows"]
    assert [r["witness"]["error"] for r in rows if not r["agrees"]] == ["BadParameters"]


def test_export_graph(capsys):
    code, out = run(capsys, "export-graph", "--input", FIVE, "--rel", "F")
    assert code == 0
    assert out.startswith("digraph")
    assert 'p0 -> p1 [label="c3"]' in out
    # identity generator and self-loops are omitted
    assert '[label="e"]' not in out


@pytest.mark.parametrize("command", ["fm-quotient", "export-graph"])
def test_closed_stdout_leaves_no_traceback(tmp_path, command):
    # the reader of stdout is gone before anything is written; the
    # certificate, written before printing, survives
    read_end, write_end = os.pipe()
    os.close(read_end)
    out_file = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qborel.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qborel", command, "--input", FIVE,
             "--out", str(out_file)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert out_file.read_text().startswith("digraph" if command == "export-graph" else "{")


def test_export_graph_int_unsupported(capsys):
    code, out = run(capsys, "export-graph", "--input", RAY)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "UnsupportedCarrier"


def test_export_graph_out_writes_the_graph_it_would_print(tmp_path, capsys):
    code, printed = run(capsys, "export-graph", "--input", FIVE, "--rel", "F")
    assert code == 0
    out_file = tmp_path / "g.dot"
    code, out = run(capsys, "export-graph", "--input", FIVE, "--rel", "F", "--out", str(out_file))
    assert (code, out) == (0, f"wrote {out_file}\n")
    assert out_file.read_text() == printed


@pytest.mark.parametrize("argv, message", [
    (["selector", "--input", RAY], "this command needs a finite relation"),
    (["involution2", "--input", RAY], "this command needs a finite relation"),
    (["fm-classical", "--input", RAY], "this command needs a finite relation"),
    (["fm-quotient", "--input", FIVE, "--rel", "E"], "fm-quotient needs a graphs relation"),
    (["cover", "--input", FIVE, "--rel", "E"],
     "cover needs a graphs relation (or an int blocks one)"),
    (["tail", "--input", FIVE, "--map", "g0"], "map 'g0' is not total"),
    (["normalizer", "--input", ROT], "normalizer needs --sub with subgroup elements"),
], ids=["selector", "involution2", "fm_classical", "fm_quotient", "cover", "tail", "normalizer"])
def test_a_declaration_the_command_cannot_read_is_a_usage_error(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2 and "Traceback" not in out
    assert out.endswith(f"qborel: error: {message}\n")


def test_index_expecting_unbounded_passes_on_an_infinite_class(capsys):
    code, out = run(capsys, "index", "--input", RAY, "--expect", "unbounded")
    assert code == 0
    assert "  [pass] index_matches_expectation\n" in out and '  index = "unbounded"\n' in out


def test_out_writes_certificate_for_any_command(tmp_path, capsys):
    cert_file = tmp_path / "q.json"
    code, _ = run(
        capsys, "fm-quotient", "--input", SWAP, "--out", str(cert_file)
    )
    assert code == 0
    data = json.loads(cert_file.read_text())
    assert data["command"] == "fm-quotient"
    assert data["inputs"] and data["inputs"][0]["name"].endswith("swap.qb")
    code, out = run(capsys, "verify", "--input", str(cert_file))
    assert code == 0


def _held(memo) -> tuple:
    """A memo's size, then an lru_cache's hits and misses: a Memo counts no lookups."""
    if isinstance(memo, Memo):
        return (len(memo),)
    info = memo.cache_info()
    return info.currsize, info.hits, info.misses


def _fill_memos(i: int) -> None:
    """Entries in every memo of both lanes that no run of these tests reads."""
    IntSet.ray_up(10**6 + i, 7).difference(IntSet.segment(0, 3 * 10**6))
    parse_ptmap(f"{10**6 + i}.. -> +7")
    rel = IntBlockRelation.parse([f"{10**6 + i}..{10**6 + i + 1}"], "..-1; 0..")
    levels_int(PiecewiseTranslation.identity(), rel, 32)
    checked_enumeration([{x: x for x in range(7 + i)}], 7 + i)
    assert all(_held(memo)[0] > 0 for memo in _MEMOS)


def test_each_run_starts_from_empty_memos(tmp_path, capsys):
    # replaying the checks of an integer cover fills every memo of the integer
    # lane, and certifying a finite cover every memo of the finite lane
    cert = tmp_path / "cover.json"
    assert run(capsys, "cover", "--input", RAY, "--out", str(cert))[0] == 0
    infos = []
    for i in range(2):
        _fill_memos(i)
        code, _ = run(capsys, "verify", "--input", str(cert), "--out", str(tmp_path / f"{i}.json"))
        assert code == 0
        replayed = [_held(memo) for memo in _MEMOS]
        _fill_memos(i)
        assert run(capsys, "cover", "--input", FIVE, "--out", str(tmp_path / f"{i}f.json"))[0] == 0
        infos.append((replayed, [_held(memo) for memo in _MEMOS]))
    for name in ("0.json", "0f.json"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("0", "1")).read_bytes()
    # equal hits, misses and sizes after both runs: each began with empty memos
    assert infos[0] == infos[1]
    # the normalisations, the set algebra, the maps and relations parsed, and
    # the stratifications; the partitions joined and the enumeration verdicts.
    # They are listed as the modules load, in whatever order
    integer = [_canonical_pieces, _residue_algebra, _ptmap_of_text, _relation_of_texts, _levels_of]
    finite = [_JOINED, _VERDICTS]
    assert sorted(map(id, _MEMOS)) == sorted(map(id, integer + finite))
    assert all(memo.cache_info().maxsize == MEMO_SIZE for memo in integer)
    for memo, replayed, certified in zip(_MEMOS, *infos[0]):
        filled, other = (replayed, certified) if any(memo is m for m in integer) else (
            certified, replayed)
        assert 0 < filled[0] <= MEMO_SIZE
        # emptied, and not read by the other lane's run
        assert not any(other)


def test_a_finite_run_after_an_integer_one_starts_from_empty_memos(capsys, monkeypatch):
    # an integer cover fills every memo of its lane; generate never reads the
    # integer carrier, and still empties them once an earlier run has loaded it
    assert run(capsys, "cover", "--input", RAY)[0] == 0
    assert len(_MEMOS) == 7 and _relation_of_texts in _MEMOS and _levels_of in _MEMOS
    _fill_memos(0)
    built = []
    from_blocks = Partition.from_blocks.__func__
    monkeypatch.setattr(Partition, "from_blocks",
                        classmethod(lambda cls, *a: built.append(a) or from_blocks(cls, *a)))
    assert run(capsys, "generate", "--input", FIVE, "--maps", "c3,fin")[0] == 0
    # the one partition built is the relation E five_points declares: the closure
    # row reads back the partition the run joined. No other memo holds an entry
    assert built == [(5, [[0, 1, 2], [3, 4]])] and len(_JOINED) == 1
    assert not any(any(_held(memo)) for memo in _MEMOS if memo is not _JOINED)


@pytest.mark.parametrize("command, path, joined", [
    ("index", FIVE, [13]),
    ("selector", FIVE, [13]),
    # five_points has a class of three points; swap's has two. The closure rows
    # of involution2 and fm-classical join the pairs of their outputs too
    ("involution2", SWAP, [4, 2]),
    ("fm-classical", FIVE, [13, 20]),
])
def test_a_graphs_relation_is_joined_once_per_run(monkeypatch, capsys, command, path, joined):
    # the relation comes from the check of its graphs, whose verdict the
    # enumeration_laws row reads back: one union-find over the graphs' pairs
    import qborel.quotient

    calls = []
    components = qborel.quotient._components

    def counted(n, pairs):
        pairs = list(pairs)
        calls.append(len(pairs))
        return components(n, pairs)

    monkeypatch.setattr(qborel.quotient, "_components", counted)
    code, out = run(capsys, command, "--input", path, "--rel", "F")
    assert code == 0 and "  [pass] graphs_form_an_enumeration\n" in out
    assert calls == joined


def test_a_stored_n_that_is_no_int_reads_no_joined_partition(tmp_path, capsys):
    # the enumeration row joins the (5, blocks) partition; a row whose n reads
    # 5.0 builds its own, which fails, as a run that joined nothing does
    cert = json.loads((GOLDEN / "schema2" / "cover_five_points.json").read_text())
    (row,) = [c for c in cert["checks"] if c["name"] == "seed_within_relation"]
    row["data"]["n"] = 5.0
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cert))
    code, out = run(capsys, "verify", "--input", str(path))
    assert code == 1 and "  [FAIL] seed_within_relation: stored=True recomputed=False\n" in out
    assert out.count("[FAIL]") == 1


class _GonePipe(io.StringIO):
    """A stdout whose reader has gone, over a file descriptor of the test's own."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("collecting", [True, False])
def test_a_run_leaves_the_cycle_collector_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                          collecting):
    failing = tmp_path / "failing.qb"
    failing.write_text(pathlib.Path(FIVE).read_text().replace("[e, c3, c3i, fin]", "[e, c3, fin]"))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in [
            (["index", "--input", FIVE], 0),
            (["index", "--input", str(failing)], 1),  # a FAIL row
            (["fm-quotient", "--input", str(failing)], 1),  # a typed error
            (["index", "--input", FIVE, "--x", "0"], 2),  # a usage error
            (["index"], 2),  # argparse's usage error
        ]:
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is collecting, argv
        with open(tmp_path / "sink", "w") as sink:
            monkeypatch.setattr(sys, "stdout", _GonePipe(sink.fileno()))
            code = main(["index", "--input", FIVE])
            monkeypatch.undo()
        assert code == 1 and gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_no_cycle_collection_runs_during_a_run(capsys):
    # shifts6's fm-quotient allocates enough to set off collections, were the collector on
    assert gc.isenabled()
    started = []

    def seen(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(seen)
    try:
        code = main(["fm-quotient", "--input", str(SAMPLES / "shifts6.qb")])
    finally:
        gc.callbacks.remove(seen)
    capsys.readouterr()
    assert code == 0 and started == []


def test_an_integer_cover_stratifies_once_per_run(tmp_path, capsys, monkeypatch):
    # the cover and its int_levels check share one levels_int; verify computes its own
    calls = []
    unused_pair = feldman_moore._unused_pair
    monkeypatch.setattr(feldman_moore, "_unused_pair",
                        lambda *a: calls.append(a) or unused_pair(*a))
    cert = tmp_path / "cover.json"
    assert run(capsys, "cover", "--input", RAY, "--out", str(cert))[0] == 0
    assert len(calls) == 1
    assert run(capsys, "verify", "--input", str(cert))[0] == 0
    assert len(calls) == 2
    # a bound that is no int is computed, not looked up, and fails as it did
    data = json.loads(cert.read_text())
    (row,) = [c for c in data["checks"] if c["kind"] == "int_levels"]
    for bound, message in [(32.0, "'float' object cannot be interpreted as an integer"),
                           (True, None)]:
        row["data"]["bound"] = bound
        cert.write_text(json.dumps(data))
        code, out = run(capsys, "verify", "--input", str(cert), "--out", str(tmp_path / "r.json"))
        (level_row,) = [r for r in json.loads((tmp_path / "r.json").read_text())["rows"]
                        if r["name"] == "levels_reproduce"]
        if message is None:
            assert code == 1 and level_row["recomputed"] is False
        else:
            assert level_row["witness"] == {"error": "TypeError", "message": message}
    assert _levels_of.cache_info().currsize == 0


def test_int_texts_stored_as_lists_are_fail_rows(tmp_path, capsys):
    # a block or map that is not a text skips the memos and fails as parsing it does
    cert_file = tmp_path / "cover.json"
    assert run(capsys, "cover", "--input", RAY, "--out", str(cert_file))[0] == 0
    data = json.loads(cert_file.read_text())
    for c in data["checks"]:
        if "blocks" in c["data"]:
            c["data"]["blocks"][0] = [c["data"]["blocks"][0]]
    seed_check = data["checks"][3]["data"]
    seed_check["left"] = [seed_check["left"]]
    cert_file.write_text(json.dumps(data))
    rows_file = tmp_path / "rows.json"
    code, out = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    assert code == 1
    assert "Traceback" not in out
    rows = json.loads(rows_file.read_text())["rows"]
    assert [r["name"] for r in rows if not r["agrees"]] == [
        "seed_within_relation", "levels_reproduce", "covers_are_bijections_within_relation",
        "seed_inside_cover_union",
    ]
    for r in rows[:4]:
        assert r["witness"] == {
            "error": "AttributeError", "message": "'list' object has no attribute 'strip'"
        }
    assert all(r["recomputed"] and r["witness"] is None for r in rows[4:])


GRAPHS_ON_INT = "space Z carrier = int\nptmap g : Z : 0.. -> +0\nrel R on Z graphs = [g]\n"


@pytest.mark.parametrize("command", [
    "fm-quotient", "selector", "involution2", "fm-classical", "export-graph", "uniformize",
    "index", "cover",
])
def test_graphs_relation_on_an_int_space_is_a_syntax_error(tmp_path, capsys, command):
    inst = tmp_path / "graphs_on_int.qb"
    inst.write_text(GRAPHS_ON_INT, encoding="utf-8")
    code, out = run(capsys, command, "--input", str(inst))
    assert code == 1
    assert "Traceback" not in out
    assert json.loads(out)["error"] == {
        "kind": "InstanceSyntaxError",
        "message": "line 3: graphs form needs a finite space",
        "witness": None,
    }


def test_generate_maps_on_two_spaces_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "two_spaces.qb"
    inst.write_text(
        "space A carrier = finite(2)\nspace B carrier = finite(5)\n"
        "map a : A -> A : 0 -> 1, 1 -> 0\nmap b : B -> B : 0 -> 4\n",
        encoding="utf-8",
    )
    code, out = run(capsys, "generate", "--input", str(inst), "--maps", "a,b")
    assert code == 2
    assert out.endswith("qborel: error: maps must all live on one space, not A and B\n")


ONE_MAP = {
    "generate": "space S carrier = finite(3)\nmap f : S -> S : 0 -> 1, 1 -> 2, 2 -> 2\n",
    "uniformize": "space Z carrier = int\nptmap f : Z : 0.. -> +1 | ..-5 -> +2\n",
    "fm-quotient": "space Z carrier = int\nrel F on Z blocks = { {0..1} }\n"
                   "ptmap f : Z : 0 -> +1 | 1 -> -1\n",
}


@pytest.mark.parametrize("command", sorted(ONE_MAP))
def test_the_sole_map_of_a_file_is_used_outright(tmp_path, capsys, command):
    inst = tmp_path / "one.qb"
    inst.write_text(ONE_MAP[command], encoding="utf-8")
    code, out = run(capsys, command, "--input", str(inst))
    assert (code, out) == run(capsys, command, "--input", str(inst), "--maps", "f")
    assert code == 0


def test_two_maps_and_no_selection_is_still_a_usage_error(tmp_path, capsys):
    inst = tmp_path / "two.qb"
    inst.write_text(ONE_MAP["generate"] + "map g : S -> S : 0 -> 0, 1 -> 1, 2 -> 2\n",
                    encoding="utf-8")
    code, out = run(capsys, "generate", "--input", str(inst))
    assert code == 2
    assert out.endswith("qborel: error: no maps selected; pass --maps name,name,...\n")


def test_ptmaps_on_two_int_spaces_still_run(tmp_path, capsys):
    # only generate reads its point count off one map's space
    text = (
        "space Z carrier = int\nspace W carrier = int\n"
        "ptmap idz : Z : ..-1; 0.. -> +0\nptmap up : W : ..-1; 0.. -> +1\n"
        "ptmap down : W : ..-1; 0.. -> -1\n"
        "rel F on Z blocks = { {..-1; 0..} }\nset rel = F\nset maps = idz,up,down\n"
    )
    outs = []
    for name, body in (("two", text), ("one", text.replace(": W :", ": Z :"))):
        inst = tmp_path / f"{name}.qb"
        inst.write_text(body, encoding="utf-8")
        for command in ("fm-quotient", "uniformize"):
            code, out = run(capsys, command, "--input", str(inst))
            assert code == 0, out
            outs.append(out)
    assert outs[:2] == outs[2:]


# -- integer-lane cost ----------------------------------------------------------

# Four pairwise disjoint blocks of strides 101, 103, 107 and 109: the
# pairwise searches pay the lcm of two strides at most, while one sweep
# modulo the lcm of all four would list about 1.2e8 runs for each ray.
STRIDED = "{0:+101*3}, {1:+103*3}, {2:+107*3}, {3:+109*3}"

CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qborel.cli.main import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("ray, maps, command, code", [
    ("5000..", "idz : Z : ..-1; 0.. -> +0", "fm-quotient", 0),
    ("", "f : Z : 1000.. -> +1", "fm-quotient", 1),
    ("", "f : Z : 1000.. -> +1", "cover", 1),
    ("1000..", "f : Z : 1000.. -> +1", "fm-quotient", 0),
    ("1000..", "f : Z : 1000.. -> +1", "cover", 0),
])
def test_blocks_of_coprime_strides_with_a_ray_stay_cheap(tmp_path, ray, maps, command, code):
    blocks = STRIDED + (f", {{{ray}}}" if ray else "")
    name = maps.split()[0]
    inst = tmp_path / "strided.qb"
    inst.write_text(
        f"space Z carrier = int\nptmap {maps}\nptmap g0 : Z : 1000.. -> +1\n"
        f"rel B on Z blocks = {{ {blocks} }}\n"
        f"set rel = B\nset maps = {name}\nset g0 = g0\n",
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qborel.__file__).resolve().parents[1])}
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, command, "--input", str(inst)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - t0 < 10
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    if code:
        assert json.loads(out.stdout)["error"]["kind"] == "NotWithinRelation"


def test_index_of_one_block_of_coprime_strides_is_quick(tmp_path):
    # the block's modulus is 30011 * 30013, about 9e8: neither its test
    # against Z nor its minimal periods may scan the residues up to it
    inst = tmp_path / "coprime.qb"
    inst.write_text(
        "space Z carrier = int\nrel F on Z blocks = { {0:+30011*inf; 1:+30013*inf} }\n",
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qborel.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qborel", "index", "--input", str(inst)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert out.returncode == 0, out.stderr
    assert 'index = "unbounded"' in out.stdout


def test_tail_of_a_map_between_two_spaces_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "two_spaces.qb"
    inst.write_text(
        "space S carrier = finite(3)\nspace T carrier = finite(5)\n"
        "map f : S -> T : 0 -> 4, 1 -> 0, 2 -> 1\n",
        encoding="utf-8",
    )
    code, out = run(capsys, "tail", "--input", str(inst))
    assert code == 2
    assert out.endswith("qborel: error: map 'f' goes from S to T, not to itself\n")


@pytest.mark.parametrize("target", ["missing_dir", "dir"])
@pytest.mark.parametrize("command", ["cover", "verify", "export-graph"])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, command, target):
    source = FIVE
    if command == "verify":
        source = str(tmp_path / "cover.json")
        assert run(capsys, "cover", "--input", FIVE, "--out", source)[0] == 0
    out_path = str(tmp_path / "missing" / "out" if target == "missing_dir" else tmp_path)
    code, out = run(capsys, command, "--input", source, "--out", out_path)
    assert code == 2
    # the write comes first, so nothing reaches stdout before the error
    assert out.startswith("usage: ")
    assert f"qborel: error: cannot write {out_path}: " in out


def test_verify_deeply_nested_certificate_is_invalid_certificate(tmp_path, capsys):
    cert_file = tmp_path / "deep.json"
    cert_file.write_text("[" * 200_000)
    code, out = run(capsys, "verify", "--input", str(cert_file))
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "InvalidCertificate",
        "message": "certificate nests too deeply to read",
        "witness": None,
    }


# -- the plain reader, and the argv it leaves to argparse --------------------

# argv that only argparse reads, each run in a directory holding P.qb
# (five_points.qb) and Q.json (a generate certificate), with the stdout,
# stderr and exit code argparse gives them at COLUMNS=80
KEPT_BY_ARGPARSE = json.loads((GOLDEN / "argv" / "kept_by_argparse.json").read_text("utf-8"))


def in_copies(path: pathlib.Path, monkeypatch) -> None:
    """Make path the working directory, holding P.qb and Q.json, at 80 columns."""
    shutil.copy(FIVE, path / "P.qb")
    shutil.copy(GOLDEN / "generate_five_points_maps_c3-fin.json", path / "Q.json")
    monkeypatch.chdir(path)
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", KEPT_BY_ARGPARSE, ids=[c["id"] for c in KEPT_BY_ARGPARSE])
def test_argv_argparse_reads_prints_the_pinned_text(tmp_path, capsys, monkeypatch, case):
    in_copies(tmp_path, monkeypatch)
    assert _plain_args(case["argv"]) is None
    try:
        code = main(case["argv"])
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    assert (out.out, out.err, code) == (case["stdout"], case["stderr"], case["exit"])


PARSER = build_parser()


def argparse_reads(argv: list) -> dict | None:
    """vars of what argparse reads from argv, or None where it exits (help or error)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(PARSER.parse_args(argv))
    except SystemExit:
        return None


OPTIONS = [f"--{dest.rstrip('_')}" for dest in FLAGS]
PREFIXES = sorted({o[:i] for o in OPTIONS for i in range(3, len(o))} - set(OPTIONS))
VALUES = ["", "0", "-1", " 7 ", "1_0", "\u0663", "x", "-a b", "--input"]


@st.composite
def argvs(draw) -> list:
    """A command (or none), then either its own flags once each, or flags of any
    command, prefixes of flags, --flag=value forms, -h and --; with values int()
    takes, refuses, or argparse reads as negative numbers or as options."""
    command = draw(st.sampled_from([*FLAGS_OF, None]))
    own = [f"--{d.rstrip('_')}" for part in FLAGS_OF.get(command, ()) for d in part.split("|")]
    value = st.sampled_from(VALUES)
    if own and draw(st.booleans()):  # plain but for the values
        flags = draw(st.lists(st.sampled_from(own), min_size=1, unique=True))
        return [command, *(t for f in flags for t in (f, draw(value)))]
    flag = st.sampled_from(OPTIONS + PREFIXES)
    item = st.one_of(
        st.tuples(st.sampled_from(own or OPTIONS), value), st.tuples(flag, value),
        st.tuples(flag, value).map(lambda p: ("=".join(p),)),
        st.sampled_from(["-h", "--", *OPTIONS, *VALUES]).map(lambda t: (t,)),
    )
    items = draw(st.lists(item, max_size=6))
    return [command] * (command is not None) + [t for i in items for t in i]


@settings(max_examples=300)
@given(argvs())
@example(["generate", "--input", "P", "--out", "Q", "--maps", "c3,fin", "--x", "0", "--y", "2"])
@example(["index", "--gallery", "ex35", "--k", "\u0663", "--n", " 7 ", "--t", "1_0"])
@example(["cover", "--input", "P", "--K", "32"])
@example(["tail", "--input", "", "--map", "c3"])
# a VALUE led by "-": an option to argparse, or a negative number
@example(["generate", "--input", "P", "--maps", "-c3"])
@example(["generate", "--input", "P", "--maps", "c3", "--x", "-1", "--y", "2"])
@example(["verify", "--input", "--out", "F"])
# no source, and both
@example(["verify", "--out", "F"])
@example(["fm-quotient", "--input", "P", "--gallery", "et_shift"])
# a repeated flag: argparse keeps the last
@example(["verify", "--input", "nosuch", "--input", "Q"])
@example(["cover", "--input", "P", "--K", "x", "--K", "3"])
@example(["cover", "--input", "P", "--K", "x"])
@example(["cover", "stray", "--input", "P"])
@example(["gallery", "--out", "F", "ex34"])
@example(["verify", "--inp", "Q"])
@example(["verify", "--input=Q"])
@example(["verify", "--", "--input", "Q"])
@example(["verify", "--input", "Q", "-h"])
@example([])
def test_plain_reader_reads_what_argparse_reads(argv):
    plain = _plain_args(argv)
    assert plain is None or vars(plain) == argparse_reads(argv)


MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
# the argv perfbench/run.py builds: CMD --input P --out Q [flags], then verify --input Q
BENCH_INPUT, BENCH_CERT = "/work/.perfbench_run/instance-1.qb", "/work/.perfbench_run/cert-1.json"
BENCH_ARGV = [
    [command, "--input", BENCH_INPUT, "--out", BENCH_CERT, *extra] for command, extra in (
        ("fm-quotient", ()), ("cover", ()), ("uniformize", ()),
        ("generate", ("--x", "3", "--y", "41")), ("tail", ()),
    )
] + [["verify", "--input", BENCH_CERT]]


@pytest.mark.parametrize("argv", [e["argv"] for e in MANIFEST if e["argv"][0] != "gallery"]
                         + BENCH_ARGV)
def test_manifest_and_benchmark_argv_read_plain(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert vars(plain) == argparse_reads(argv)


def test_a_plain_run_builds_no_parser(tmp_path, capsys, monkeypatch):
    def no_parser():
        raise AssertionError("the parser was built")

    monkeypatch.setattr(sys.modules[main.__module__], "_parser", no_parser)
    cert = str(tmp_path / "g.json")
    assert run(capsys, "generate", "--input", FIVE, "--maps", "c3,fin", "--out", cert)[0] == 0
    assert run(capsys, "verify", "--input", cert)[0] == 0
