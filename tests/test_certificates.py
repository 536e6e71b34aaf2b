"""Certificate format: compact emission, one normalisation, bounded replay.

The golden corpus under `golden/` holds every certificate the sample and
gallery commands of `manifest.json` wrote in schema 1, in the older
indented format; each must still replay. `golden/schema2/` holds what the
same commands write now: rerunning a command must give a certificate that
decodes to the same JSON value, and that value, with each `{"$output":
key}` reference replaced by the output it names and the schema key
dropped, is the schema-1 certificate, but for what CHANGED_SINCE_SCHEMA1
names. Next to each schema-1 certificate,
`<entry>.stdout` pins the bytes the command prints and its exit code.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import qborel
from qborel.cli.certificates import (
    LEGACY, OUTPUT, SPEC, Certificate, _compact, _partitions_agree, _plain, _spaced, jsonable,
    reverify, run_check,
)
from qborel.cli.main import main
from qborel.feldman_moore import MAX_PROBE, ORBIT_WINDOW
from qborel.quotient import Partition

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SCHEMA2 = GOLDEN / "schema2"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out + out.err


def _argv(entry) -> list[str]:
    return [str(ROOT / a) if a.startswith("samples/") else a for a in entry["argv"]]


# -- golden corpus -----------------------------------------------------------

@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_golden_certificate_replays(tmp_path, capsys, entry):
    golden, rows_file = GOLDEN / entry["file"], tmp_path / "rows.json"
    run(capsys, "verify", "--input", str(golden), "--out", str(rows_file))
    rows = json.loads(rows_file.read_text())["rows"]
    assert len(rows) == len(json.loads(golden.read_text())["checks"])
    assert all(r["agrees"] for r in rows)


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_golden_command_writes_the_same_certificate(tmp_path, capsys, entry):
    cert_file = tmp_path / "cert.json"
    run(capsys, *_argv(entry), "--out", str(cert_file))
    assert json.loads(cert_file.read_text()) == json.loads(
        (SCHEMA2 / entry["file"]).read_text()
    )


def _resolved(cert: dict) -> dict:
    """A schema-2 certificate as schema 1 stores it: each reference, at the
    top level of check data or in a top-level list, replaced by its output."""
    def value(v):
        is_reference = isinstance(v, dict) and v.keys() == {"$output"}
        return cert["outputs"][v["$output"]] if is_reference else v

    out = {key: v for key, v in cert.items() if key != "schema"}
    out["checks"] = [
        {**c, "data": {
            key: [value(x) for x in v] if isinstance(v, list) else value(v)
            for key, v in c["data"].items()
        }}
        for c in cert["checks"]
    ]
    return out


# What a run writes differently since schema 1, by manifest entry: a key of
# the certificate or the name of a check. ex36's declared relation is the
# suborbit classes joined in each orbit (index 3) since the example stores
# it; schema 1 pins the whole orbit (index 6). A finite cover no longer
# stores extension_inside_cover_union, which held whatever was stored, and
# its extension_inverse_inside_cover_union inverts the extension itself.
FINITE_COVER_ROWS = {"extension_inside_cover_union", "extension_inverse_inside_cover_union"}
CHANGED_SINCE_SCHEMA1 = {
    "index_gallery_ex36.json": {"outputs"},
    "cover_five_points.json": FINITE_COVER_ROWS,
    "cover_shifts6.json": FINITE_COVER_ROWS,
}


def _without(cert: dict, changed: set) -> dict:
    """A certificate without the keys and the checks named in changed."""
    out = {key: v for key, v in cert.items() if key not in changed}
    out["checks"] = [c for c in cert["checks"] if c["name"] not in changed]
    return out


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_schema2_golden_is_its_schema1_golden_with_references_resolved(entry):
    new = json.loads((SCHEMA2 / entry["file"]).read_text())
    old = json.loads((GOLDEN / entry["file"]).read_text())
    assert new["schema"] == 2 and "schema" not in old
    new, changed = _resolved(new), CHANGED_SINCE_SCHEMA1.get(entry["file"], set())
    assert (new != old) == bool(changed)
    assert _without(new, changed) == _without(old, changed)


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_schema2_golden_replays_to_the_rows_of_its_schema1_golden(tmp_path, capsys, entry):
    changed = CHANGED_SINCE_SCHEMA1.get(entry["file"], set())
    rows = []
    for corpus in (GOLDEN, SCHEMA2):
        rows_file = tmp_path / f"{corpus.name}.json"
        run(capsys, "verify", "--input", str(corpus / entry["file"]), "--out", str(rows_file))
        replay = json.loads(rows_file.read_text())
        assert replay["agrees"]
        rows.append([r for r in replay["rows"] if r["name"] not in changed])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_golden_command_prints_the_same_stdout(capsys, entry):
    # `<entry>.stdout` holds the command's stdout, then `[exit <code>]`
    try:
        code = main(_argv(entry))
    except SystemExit as e:
        code = e.code
    got = capsys.readouterr().out + f"[exit {code}]\n"
    assert got.encode() == (GOLDEN / (entry["file"][:-5] + ".stdout")).read_bytes()


def test_certificate_has_one_key_and_one_check_per_line(tmp_path, capsys):
    cert_file = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "--input", str(ROOT / "samples/five_points.qb"),
                  "--out", str(cert_file))
    assert code == 0
    text = cert_file.read_text()
    cert = json.loads(text)
    lines = text.splitlines()
    head = ["schema", "tool", "version", "command", "arguments", "inputs", "outputs", "checks"]
    assert [json.loads("{" + ln.rstrip(",") + "}").popitem()[0]
            for ln in lines[1:8]] == head[:7]
    assert lines[1] == '  "schema": 2,' and lines[8] == '  "checks": ['
    checks = [json.loads(ln.rstrip(",")) for ln in lines[9:-2]]
    assert checks == cert["checks"] and len(checks) == 7
    assert lines[-2:] == ["  ]", "}"]
    golden = (GOLDEN / "cover_five_points.json").read_text()
    assert 4 * len(text) < len(golden)


# -- one table ---------------------------------------------------------------

# The outputs that no required SPEC row names, by (command, output key), each
# with why no check needs to read it. The reasons that name ROADMAP item 2
# are its work list: the outputs still to be bound.
UNBOUND = "item 2: no check stores it"
GALLERY_SUMMARY = (
    "acceleration", "carrier_points", "classes", "cover_first", "cover_second",
    "excess_size", "fiber_mapping", "fiber_sizes", "first_level", "g", "index",
    "normalizer", "orbit_classes", "transversal", "zero_part",
)
DERIVED = {
    ("fm-classical", "classes"): "count: the classes of the blocks the checks store",
    ("fm-classical", "bit_count"): "count: the bit length of the largest stored block",
    ("fm-classical", "involutions"): "count: every (m, nn, p) triple; item 11 keeps it",
    ("fm-quotient", "classes"): "count: the classes of the blocks the checks store",
    ("fm-quotient", "psi_count"): "count: the psis the stored generators come from",
    ("cover", "levels"): "item 2: levels_reproduce stores the level texts, not the accelerations",
    ("uniformize", "indices"): UNBOUND,
    ("uniformize", "chosen_levels"): UNBOUND,
    ("generate", "stabilized_after"): UNBOUND,
    ("generate", "chain"): UNBOUND,
    ("index", "index"): "item 2: only the optional index_matches_expectation names it",
    ("selector", "transversal"): UNBOUND,
    ("action-orbits", "group"): UNBOUND,
    ("cocycle", "pairs"): UNBOUND,
    ("cocycle", "pair_class_sizes"): UNBOUND,
    ("normalizer", "normalizer"): "item 2: normalizer_reproduces stores indices, not labels",
    ("normalizer", "delta"): "item 2: normalizer_reproduces stores indices, not labels",
    **{
        ("gallery", key): "item 2: instance_checks_hold replays the instance checks only"
        for key in GALLERY_SUMMARY
    },
}


def _fields(template: dict) -> list:
    """Each data field of a template as the list of template values it holds."""
    return [list(v) if isinstance(v, (list, tuple)) else [v] for v in template.values()]


def _outputs_named(rows) -> set:
    """The output keys the templates of rows name."""
    return {
        t[len(OUTPUT):] for _, _, template, *_ in rows for field in _fields(template)
        for t in field if isinstance(t, str) and t.startswith(OUTPUT)
    }


def test_each_output_is_named_by_spec_or_derived():
    seen = {
        (cert["command"], key)
        for cert in (json.loads((SCHEMA2 / e["file"]).read_text()) for e in MANIFEST)
        for key in cert["outputs"]
    }
    named = {
        (command, key) for command, lanes in SPEC.items() for rows in lanes.values()
        for key in _outputs_named(row for row in rows if len(row) == 3)
    }
    assert named | set(DERIVED) == seen and not named & set(DERIVED)
    assert all(reason.startswith(("count: ", "item ")) for reason in DERIVED.values())
    # a field names outputs only, or none: verify binds the whole field
    for table in (SPEC, LEGACY):
        for rows in (rows for lanes in table.values() for rows in lanes.values()):
            for _, _, template, *_ in rows:
                for field in _fields(template):
                    is_output = [isinstance(t, str) and t.startswith(OUTPUT) for t in field]
                    assert all(is_output) or not any(is_output), template


def _detected(cert: dict) -> bool:
    """Whether verify, run in-process, finds the certificate altered: a
    layout that SPEC does not list, or a row that does not reproduce."""
    agree, _, layout = reverify(Certificate.from_json(json.dumps(cert)))
    return layout is not None or not agree


def _edits(cert: dict):
    """(what, edited certificate) for each edit of the check list, of each
    output that a stored check's SPEC row names, and of each literal it fixes."""
    checks, command = cert["checks"], cert["command"]
    rows = [row for table in (SPEC, LEGACY) for lane in table.get(command, {}).values()
            for row in lane]
    optional = {row[0] for row in rows if len(row) == 4}
    for i, c in enumerate(checks):
        name, rest = c["name"], checks[i + 1:]
        if name not in optional:
            yield f"delete {name}", {**cert, "checks": checks[:i] + rest}
        yield f"duplicate {name}", {**cert, "checks": checks[:i + 1] + checks[i:]}
        yield f"rename {name}", {**cert, "checks": [*checks[:i], {**c, "name": name + "_"}, *rest]}
        kind = "partition_equal" if c["kind"] == "value_equal" else "value_equal"
        yield f"re-kind {name}", {**cert, "checks": [*checks[:i], {**c, "kind": kind}, *rest]}
    stored = [[c["name"], c["kind"]] for c in checks]
    for key in sorted(_outputs_named(row for row in rows if [row[0], row[1]] in stored)):
        yield f"edit output {key}", {**cert, "outputs": {**cert["outputs"], key: "edited"}}
    templates = {(name, kind): template for name, kind, template, *_ in rows}
    for i, c in enumerate(checks):
        for key, t in templates.get((c["name"], c["kind"]), {}).items():
            if not isinstance(t, (str, list, tuple)):  # a literal: true becomes false, 64 0
                data = {**c["data"], key: not t if type(t) is bool else 0}
                edited = [*checks[:i], {**c, "data": data}, *checks[i + 1:]]
                yield f"edit {c['name']} {key}", {**cert, "checks": edited}


CORPUS = [corpus / e["file"] for corpus in (GOLDEN, SCHEMA2) for e in MANIFEST]


@pytest.mark.parametrize("path", CORPUS, ids=[f"{p.parent.name}/{p.name}" for p in CORPUS])
def test_every_edit_of_a_golden_certificate_is_detected(path):
    cert = json.loads(path.read_text())
    assert not _detected(cert)
    missed = [what for what, edited in _edits(cert) if not _detected(edited)]
    assert not missed


def test_the_golden_edits_include_every_literal_spec_fixes():
    literals = {
        what.split()[-1] for path in CORPUS for what, _ in _edits(json.loads(path.read_text()))
        if what.startswith("edit ") and not what.startswith("edit output ")
    }
    assert literals == {"bijections", "window"}


# -- references --------------------------------------------------------------

def _verify_rows(capsys, tmp_path, cert) -> tuple[int, str, list]:
    cert_file, rows_file = tmp_path / "cert.json", tmp_path / "rows.json"
    cert_file.write_text(json.dumps(cert))
    code, out = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    rows = json.loads(rows_file.read_text())["rows"] if rows_file.exists() else None
    return code, out, rows


def _certificate(capsys, tmp_path, *argv) -> dict:
    cert_file = tmp_path / "run.json"
    code, _ = run(capsys, *argv, "--out", str(cert_file))
    assert code == 0
    return json.loads(cert_file.read_text())


@pytest.mark.parametrize("keys", [("extension", "first"), ("extension",)])
def test_edited_cover_extension_fails_its_checks(tmp_path, capsys, keys):
    five = str(ROOT / "samples/five_points.qb")
    cert = _certificate(capsys, tmp_path, "cover", "--input", five)
    # a bijection that sends 0 and 3 across the two classes {0, 1, 2} and {3, 4};
    # a finite cover's first is its extension, so a forger edits both
    for key in keys:
        cert["outputs"][key] = [[0, 3], [1, 0], [2, 2], [3, 1], [4, 4]]
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    failed = {r["name"] for r in rows if not r["agrees"]}
    assert ("covers_are_bijections_within_relation" in failed) == ("first" in keys)
    # an extension edited alone is no longer the cover's first
    assert ("extension_is_a_full_permutation" in failed) == ("first" not in keys)
    # the inverse pair (3, 0) of the edited extension is in neither stored map
    assert "extension_inverse_inside_cover_union" in failed


# -- forged layouts and outputs: each replayed with exit 0 before verify held
# certificates to SPEC

def _layout_line(out: str) -> str:
    (line,) = [ln for ln in out.splitlines() if ln.startswith("  [FAIL] layout: ")]
    return line


@pytest.mark.parametrize("corpus", [GOLDEN, SCHEMA2])
def test_certificate_with_no_checks_fails_its_layout(tmp_path, capsys, corpus):
    cert = json.loads((corpus / "cover_five_points.json").read_text())
    cert["checks"] = []
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and rows == [] and "Traceback" not in out
    assert _layout_line(out) == (
        '  [FAIL] layout: cover: check 1 is absent, '
        'not ["graphs_form_an_enumeration","enumeration_laws"]'
    )
    assert json.loads((tmp_path / "rows.json").read_text())["layout"] == _layout_line(out)[17:]


NOT_INJECTIVE = [[0, 0], [1, 0]]


def test_rekinded_checks_fail_the_layout(tmp_path, capsys):
    cert = _certificate(capsys, tmp_path, "cover", "--input", str(ROOT / "samples/five_points.qb"))
    cert["outputs"]["extension"] = NOT_INJECTIVE
    for c in cert["checks"]:
        c.update(kind="value_equal", data={"left": 1, "right": 1})
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    assert all(r["agrees"] for r in rows) and len(rows) == 7
    assert _layout_line(out) == (
        '  [FAIL] layout: cover: check 1 is ["graphs_form_an_enumeration","value_equal"], '
        'not ["graphs_form_an_enumeration","enumeration_laws"]'
    )


def test_dropped_checks_fail_the_layout(tmp_path, capsys):
    cert = _certificate(capsys, tmp_path, "cover", "--input", str(ROOT / "samples/five_points.qb"))
    cert["outputs"]["extension"] = NOT_INJECTIVE
    # keep only the two checks that read no cover map
    cert["checks"] = cert["checks"][:2]
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and all(r["agrees"] for r in rows)
    assert _layout_line(out) == (
        '  [FAIL] layout: cover: check 3 is absent, '
        'not ["extension_is_a_full_permutation","finite_levels_empty"]'
    )


def test_edited_integer_cover_texts_are_fail_rows(tmp_path, capsys):
    cert = _certificate(capsys, tmp_path, "cover", "--input", str(ROOT / "samples/shifted_ray.qb"))
    cert["outputs"].update(first="..-1 -> +0", extension="0.. -> +5")
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and "layout" not in out
    failed = {r["name"]: r["witness"] for r in rows if not r["agrees"]}
    unions = ("seed", "seed_inverse", "extension_inverse")
    assert {name: w["message"] for name, w in failed.items()} == {
        "levels_reproduce": "field g does not hold output extension",
        "covers_are_bijections_within_relation": "field maps does not hold output first, second",
        **{f"{u}_inside_cover_union": "field others does not hold output first, second"
           for u in unions},
        "extension_inside_cover_union": "field left does not hold output extension",
    }
    assert {w["error"] for w in failed.values()} == {"InvalidCertificate"}
    assert "  [FAIL] covers_are_bijections_within_relation: stored=True recomputed=False" in out


# two maps of the shifted ray that are injective but not onto
INJECTIONS = {"first": "..-1 -> +0 | 0.. -> +1", "second": "1.. -> -1 | ..-1 -> +0"}


def test_integer_cover_stored_as_no_bijections_is_a_fail_row(tmp_path, capsys):
    cert = _certificate(capsys, tmp_path, "cover", "--input", str(ROOT / "samples/shifted_ray.qb"))
    # the forger writes the maps wherever the cover is stored, and turns the
    # bijection law off: SPEC fixes that literal, so verify reads it from there
    old = [cert["outputs"][key] for key in INJECTIONS]
    cert["outputs"].update(INJECTIONS)
    for c in cert["checks"]:
        c["data"].update({k: list(INJECTIONS.values()) for k in ("maps", "others")
                          if c["data"].get(k) == old})
        if "bijections" in c["data"]:
            c["data"]["bijections"] = False
            law = run_check(c["kind"], {**c["data"], "bijections": True})[1]["law"]
            assert law == "bijection"
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and "layout" not in out
    failed = {r["name"]: r["witness"] for r in rows if not r["agrees"]}
    assert failed == {"covers_are_bijections_within_relation": {
        "error": "InvalidCertificate", "message": "field bijections does not hold true",
    }}
    assert len(rows) == 7
    assert "  [FAIL] covers_are_bijections_within_relation: stored=True recomputed=False" in out


def test_integer_generators_probed_on_no_window_are_a_fail_row(tmp_path, capsys):
    argv = ("fm-quotient", "--input", str(ROOT / "samples/shifted_ray.qb"))
    cert = _certificate(capsys, tmp_path, *argv)
    # the identity alone generates only the trivial relation; on a window of 0
    # the probe misses that, so verify reads the window SPEC fixes, not the row
    cert["outputs"]["generators"] = ["..-1; 0.. -> +0"]
    (probe,) = [c for c in cert["checks"] if c["kind"] == "int_orbit_window"]
    probe["data"]["window"] = 0
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and "layout" not in out
    failed = {r["name"]: r["witness"] for r in rows if not r["agrees"]}
    assert failed == {"orbit_covers_relation_on_window": {
        "error": "InvalidCertificate", "message": "field window does not hold 64",
    }}
    assert "  [FAIL] orbit_covers_relation_on_window: stored=True recomputed=False" in out


def test_spec_fixes_the_orbit_window_the_construction_probes():
    (row,) = [row for row in SPEC["fm-quotient"]["int"] if row[1] == "int_orbit_window"]
    assert row[2]["window"] == ORBIT_WINDOW


# a finite cover's first that is no bijection: 0 and 4 both go to 0
NOT_A_BIJECTION = [[0, 0], [1, 1], [2, 2], [3, 3], [4, 0]]


@pytest.mark.parametrize("named", ["first", "extension"])
def test_edited_finite_cover_first_is_a_fail_row(tmp_path, capsys, named):
    # a run names first; the version before named the extension in its
    # place, which holds the same value
    cert = _certificate(capsys, tmp_path, "cover", "--input", str(ROOT / "samples/five_points.qb"))
    text = json.dumps(cert).replace('{"$output": "first"}', f'{{"$output": "{named}"}}')
    cert = json.loads(text)
    assert _verify_rows(capsys, tmp_path, cert)[0] == 0
    cert["outputs"]["first"] = NOT_A_BIJECTION
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and "layout" not in out
    assert "  [FAIL] covers_are_bijections_within_relation: stored=True recomputed=False" in out
    (bad,) = [r for r in rows if r["name"] == "covers_are_bijections_within_relation"]
    unbound = {"error": "InvalidCertificate",
               "message": "field maps does not hold output first, second"}
    assert bad["witness"] == ({"map": 0, "law": "bijection"} if named == "first" else unbound)


def test_finite_cover_extension_set_to_second_is_a_fail_row(tmp_path, capsys):
    # second is g^-1, a full permutation whose inverse g lies in first; g is
    # no involution, as the seed holds (7, 44) and (44, 49)
    cert = _certificate(capsys, tmp_path, "cover", "--input", str(ROOT / "samples/shifts6.qb"))
    assert {(7, 44), (44, 49)} <= {tuple(p) for p in cert["outputs"]["first"]}
    cert["outputs"]["extension"] = cert["outputs"]["second"]
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and "layout" not in out
    (bad,) = [r for r in rows if not r["agrees"]]
    assert bad["name"] == "extension_is_a_full_permutation"
    assert bad["witness"] == {
        "error": "InvalidCertificate", "message": "output first is not output extension",
    }
    assert "  [FAIL] extension_is_a_full_permutation: stored=True recomputed=False" in out


@pytest.mark.parametrize("corpus", [GOLDEN, SCHEMA2])
def test_finite_cover_first_set_to_another_bijection_is_a_fail_row(tmp_path, capsys, corpus):
    # the identity is a bijection inside the relation, and with second it
    # still holds the seed, its inverse and the extension's inverse
    cert = json.loads((corpus / "cover_five_points.json").read_text())
    cert["outputs"]["first"] = [[x, x] for x in range(5)]
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    failed = {r["name"]: r["witness"] for r in rows if not r["agrees"]}
    assert failed["extension_is_a_full_permutation"]["message"] == (
        "output first is not output extension"
    )


def test_eight_check_finite_cover_replays_only_in_schema_1(tmp_path, capsys):
    cert = json.loads((GOLDEN / "cover_five_points.json").read_text())
    assert len(cert["checks"]) == 8
    assert _verify_rows(capsys, tmp_path, cert)[0] == 0
    cert["schema"] = 2
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and all(r["agrees"] for r in rows)
    assert _layout_line(out) == (
        '  [FAIL] layout: cover: check 7 is '
        '["extension_inside_cover_union","finite_graph_subset"], '
        'not ["extension_inverse_inside_cover_union","finite_inverse_graph_subset"]'
    )


@pytest.mark.parametrize("command", ["probe", "", None, ["cover"]])
def test_unknown_command_fails_the_layout(tmp_path, capsys, command):
    cert = json.loads((SCHEMA2 / "tail_five_points_map_c3.json").read_text())
    cert["command"] = command
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and all(r["agrees"] for r in rows) and "Traceback" not in out
    assert _layout_line(out) == f"  [FAIL] layout: unknown command {json.dumps(command)}"


def test_edited_cover_second_fails_the_inverse_check(tmp_path, capsys):
    shifts6 = str(ROOT / "samples/shifts6.qb")
    cert = _certificate(capsys, tmp_path, "cover", "--input", shifts6)
    # swap the images of 7 and 46, one class: second stays a bijection
    # within the relation, but the extension's pair (29, 7) loses its inverse
    second = dict(cert["outputs"]["second"])
    assert (cert["outputs"]["extension"][29], second[7]) == ([29, 7], 29)
    second[7], second[46] = second[46], second[7]
    cert["outputs"]["second"] = sorted(second.items())
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    assert "[FAIL] extension_inverse_inside_cover_union" in out
    (bad,) = [r for r in rows if not r["agrees"]]
    assert (bad["name"], bad["witness"]) == ("extension_inverse_inside_cover_union", [7, 29])


def test_edited_fm_quotient_generator_fails_its_checks(tmp_path, capsys):
    shifts6 = str(ROOT / "samples/shifts6.qb")
    cert = _certificate(capsys, tmp_path, "fm-quotient", "--input", shifts6)
    (blocks,) = [c["data"]["right"] for c in cert["checks"] if c["kind"] == "partition_equal"]
    # one pair of one map sent outside its class: the images of 0 and of a
    # point of another class swap, so the map stays a bijection
    g = cert["outputs"]["generators"][0]
    z = next(b for b in blocks if 0 not in b)[0]
    images = dict(g)
    images[0], images[z] = images[z], images[0]
    cert["outputs"]["generators"][0] = sorted(images.items())
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    (bad,) = [r for r in rows if not r["agrees"]]
    assert bad["name"] == "generators_are_bijections_within_relation"
    assert bad["witness"]["law"] == "within"


@pytest.mark.parametrize("ref", [{"$output": "nosuch"}, {"$output": 3}, {"$output": None}])
def test_reference_to_no_output_is_a_fail_row_naming_it(tmp_path, capsys, ref):
    cert = json.loads((SCHEMA2 / "cover_five_points.json").read_text())
    cert["checks"][2]["data"]["map"] = ref
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    (bad,) = [r for r in rows if not r["agrees"]]
    assert bad["name"] == "extension_is_a_full_permutation"
    assert bad["witness"] == {
        "error": "InvalidCertificate",
        "message": f"reference {json.dumps(ref, separators=(',', ':'))} names no stored output",
    }


def test_schema2_outputs_that_are_no_object_give_fail_rows(tmp_path, capsys):
    cert = json.loads((SCHEMA2 / "cover_five_points.json").read_text())
    cert["outputs"] = list(cert["outputs"].values())
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out
    # the two checks that refer to no output still pass
    assert [r["name"] for r in rows if r["agrees"]] == [
        "graphs_form_an_enumeration", "seed_within_relation",
    ]
    assert all(r["witness"]["error"] == "InvalidCertificate" for r in rows[2:])


@pytest.mark.parametrize("schema", [3, "2", 2.0, True, None, 0])
def test_unknown_schema_is_an_invalid_certificate(tmp_path, capsys, schema):
    cert = json.loads((SCHEMA2 / "cover_five_points.json").read_text())
    cert["schema"] = schema
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and rows is None
    assert json.loads(out)["error"]["kind"] == "InvalidCertificate"


@pytest.mark.parametrize("schema, agrees", [(None, True), (1, True), (2, False)])
def test_references_are_read_only_in_schema_2(tmp_path, capsys, monkeypatch, schema, agrees):
    # a row whose fields name no output, so only the references are at stake
    monkeypatch.setitem(SPEC, "probe", {"": [
        ("refs", "value_equal", {"left": "left", "right": "right"}),
    ]})
    # two references to equal outputs: unequal as plain data, equal once read
    cert = {
        "command": "probe", "outputs": {"a": [1], "b": [1]},
        "checks": [{"name": "refs", "kind": "value_equal", "ok": False, "witness": None,
                    "data": {"left": {"$output": "a"}, "right": {"$output": "b"}}}],
    }
    if schema is not None:
        cert["schema"] = schema
    code, out, (row,) = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and row["agrees"] is agrees and "layout" not in out
    assert row["recomputed"] is (not agrees)


def test_a_schema_1_reference_does_not_hold_the_output_it_names(tmp_path, capsys):
    # schema 1 never reads references, so the checker judges the literal
    # object, not the output, and the field does not hold the output
    cert = json.loads((GOLDEN / "index_five_points_rel_F_expect_3.json").read_text())
    assert "schema" not in cert and cert["checks"][1]["name"] == "index_matches_expectation"
    cert["outputs"]["index"] = "edited"
    cert["checks"][1]["data"] = {"left": {"$output": "index"}, "right": {"$output": "index"}}
    code, out, rows = _verify_rows(capsys, tmp_path, cert)
    assert code == 1 and "Traceback" not in out and "layout" not in out
    (bad,) = [r for r in rows if not r["agrees"]]
    assert (bad["name"], bad["recomputed"]) == ("index_matches_expectation", False)
    assert bad["witness"]["message"] == "field left does not hold output index"


def test_an_int_or_text_equal_to_an_output_is_stored_as_a_value(monkeypatch):
    monkeypatch.setitem(SPEC, "probe", {"": [
        ("value", "value_equal", {"left": "$output:index", "right": "$output:text"}),
        ("maps", "value_equal", {"left": "$output:maps", "right": "maps"}),
    ]})
    outputs = {"index": 3, "text": "empty", "maps": [[0, 1]]}
    cert = Certificate("probe").certify(outputs, {"maps": [[0, 1]]})
    data = [json.loads(line.rstrip(","))["data"] for line in cert.to_json().splitlines()[9:-2]]
    assert data == [
        {"left": 3, "right": "empty"}, {"left": {"$output": "maps"}, "right": [[0, 1]]},
    ]
    assert cert.checks[1]["ok"] is True


def test_outputs_changed_between_emits_are_read_anew(monkeypatch):
    monkeypatch.setitem(SPEC, "probe", {
        lane: [(lane, "value_equal", {"left": "$output:maps", "right": "want"})]
        for lane in ("before", "after")
    })
    cert, outputs = Certificate("probe"), {"maps": [[0, 1]]}
    cert.certify(outputs, {"want": [[0, 1]]}, "before")
    outputs["maps"].append([1, 0])
    cert.certify(outputs, {"want": [[0, 1]]}, "after")
    assert [c["ok"] for c in cert.checks] == [True, False]
    assert cert.checks[1]["data"]["left"] == {"$output": "maps"}
    assert json.loads(cert.to_json())["outputs"] == {"maps": [[0, 1], [1, 0]]}


def test_a_certificate_certified_in_two_lanes_writes_every_check(monkeypatch):
    monkeypatch.setitem(SPEC, "probe", {
        lane: [(f"{lane}{i}", "value_equal", {"left": "$output:maps", "right": "want"})
               for i in range(2)]
        for lane in ("before", "after")
    })
    cert = Certificate("probe")
    for lane in ("before", "after"):
        cert.certify({"maps": [[0, 1]]}, {"want": [[0, 1]]}, lane)
    written = json.loads(cert.to_json())["checks"]
    assert [c["name"] for c in written] == ["before0", "before1", "after0", "after1"]
    assert written == cert.checks


# -- normalisation -----------------------------------------------------------

def reference_jsonable(value):
    """The recursive normaliser the round trip replaced: the oracle."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(reference_jsonable(v) for v in value)
    return str(value)


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
sortable_sets = (
    st.sets(st.integers() | st.floats(allow_nan=False), max_size=5)
    | st.frozensets(st.text(max_size=3), max_size=5)
    | st.frozensets(st.tuples(st.integers(), st.integers()), max_size=5)
)
values = st.recursive(
    scalars | sortable_sets,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=4)
    ),
    max_leaves=20,
)


@given(values)
def test_round_trip_normalisation_matches_the_recursive_one(value):
    # compared as text, so 1 and 1.0, or NaN and NaN, are told apart or matched
    assert json.dumps(jsonable(value)) == json.dumps(reference_jsonable(value))


def test_unknown_objects_are_stored_as_text():
    class Point:
        def __str__(self):
            return "pt"

    assert jsonable({"p": Point(), "s": {3, 1, 2}, 7: (1, None)}) == {
        "p": "pt", "s": [1, 2, 3], "7": [1, None]
    }


# text a JSON encoder escapes: quotes, backslashes, control characters,
# non-ASCII ones and lone surrogates
escaped_text = st.text(
    st.characters() | st.sampled_from('"\\/\b\n\x00\x7f\u2028\ud800\udfff'), max_size=6
)
encoded = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**300), 2**300) | st.floats() | escaped_text
    | sortable_sets | st.frozensets(escaped_text, max_size=4)
    | st.builds(Fraction, st.integers(), st.integers(1, 9)),  # no JSON type: str() of it
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(escaped_text | st.integers(), inner, max_size=4)
    ),
    max_leaves=20,
)


@given(encoded)
def test_encoders_write_the_text_json_dumps_writes(value):
    # the encoders skip the cycle walk; on a tree that changes nothing
    assert _compact(value) == json.dumps(value, separators=(",", ":"), default=_plain)
    assert _spaced(value) == json.dumps(value, default=_plain)


# -- emission ----------------------------------------------------------------

# the values emitters store: keys are text, as in the JSON they decode from
text_keyed = st.recursive(
    scalars | sortable_sets,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=20,
)


@given(text_keyed)
def test_emitted_text_is_what_encoding_the_stored_check_gives(value):
    probe = {"": [("same", "value_equal", {"left": "value", "right": "value"})]}
    with mock.patch.dict(SPEC, probe=probe):
        cert = Certificate("probe").certify({}, {"value": value})
    text = cert.to_json()
    assert Certificate.from_json(text).to_json() == text


def test_check_edited_after_emit_is_written_as_edited(monkeypatch):
    monkeypatch.setitem(SPEC, "probe", {"": [
        (name, "value_equal", {"left": "value", "right": "value"}) for name in "abcd"
    ]})
    cert = Certificate("probe").certify({}, {"value": [1, [2]]})
    cert.checks[0]["data"]["left"][1].append(3)
    cert.checks[1]["ok"] = False
    cert.checks[2] = dict(cert.checks[2], name="c2")
    cert.checks[3]["witness"] = {"note": "by hand"}
    assert json.loads(cert.to_json())["checks"] == cert.checks

    class Note:
        def __str__(self):
            return "by hand"

    cert.checks[3]["witness"] = Note()  # not plain JSON: written as its text
    assert json.loads(cert.to_json())["checks"][3]["witness"] == "by hand"


# -- argument parsing --------------------------------------------------------

def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    ray = str(ROOT / "samples/shifted_ray.qb")
    bounds = []
    for extra, name in ((["--K", "64"], "k64.json"), ([], "default.json")):
        cert_file = tmp_path / name
        code, _ = run(capsys, "cover", "--input", ray, *extra, "--out", str(cert_file))
        assert code == 0
        checks = json.loads(cert_file.read_text())["checks"]
        bounds += [c["data"]["bound"] for c in checks if c["kind"] == "int_levels"]
    assert bounds == [64, 32]


def _env() -> dict:
    """This process's environment, with the qborel under test importable."""
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(qborel.__file__).resolve().parents[1])}


def test_parser_is_not_built_at_import():
    script = (
        "import sys, qborel.cli; "
        "print(sys.modules['qborel.cli.main']._parser.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=_env(),
    )
    assert out.stdout.strip() == "0"


# -- bounded replay ----------------------------------------------------------

CAPPED_VERIFY = """
import json, resource, sys, time
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from qborel.cli.main import main
seconds = {}
for cert, rows in zip(sys.argv[1::2], sys.argv[2::2]):
    t = time.perf_counter()
    main(["verify", "--input", cert, "--out", rows])
    seconds[cert] = time.perf_counter() - t
print(json.dumps(seconds))
"""

# error each checker reports once the stored n is 10**9 (None: a plain FAIL)
HUGE_N_ERRORS = {
    "selector_laws": "InvalidPartition",
    "closure_partition": "InvalidPartition",
    "tail_partition": "InvalidPartition",
    "bijection_family_within": "InvalidPartition",
    "partition_equal": "InvalidPartition",
    "pair_coverage": "InvalidPartition",
    "involution_family_within": "InvalidPartition",
    "finite_graph_in_partition": "InvalidPartition",
    "finite_levels_empty": None,
    "enumeration_laws": None,
    "cocycle_laws": "ValueError",
    "gallery": "BadParameters",
}


def test_stored_n_of_a_billion_replays_to_fail_rows_quickly(tmp_path):
    sources = [
        "selector_five_points_rel_E.json",
        "generate_five_points_maps_c3-fin.json",
        "tail_five_points_map_c3.json",
        "cover_five_points.json",
        "fm-quotient_five_points.json",
        "fm-classical_five_points.json",
        "cocycle_rotation.json",
        "gallery_ex35.json",
    ]
    argv, kinds = [], {}
    for name in sources:
        cert = json.loads((GOLDEN / name).read_text())
        for c in cert["checks"]:
            if "n" in c["data"]:
                c["data"]["n"] = 10**9
                kinds[c["name"]] = c["kind"]
        edited, rows = tmp_path / name, tmp_path / ("rows_" + name)
        edited.write_text(json.dumps(cert))
        argv += [str(edited), str(rows)]
    out = subprocess.run(
        [sys.executable, "-c", CAPPED_VERIFY, *argv], capture_output=True, text=True,
        env=_env(), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    seconds = json.loads(out.stdout.splitlines()[-1])
    assert max(seconds.values()) < 1.0
    seen = set()
    for rows_file in argv[1::2]:
        for r in json.loads(pathlib.Path(rows_file).read_text())["rows"]:
            if r["name"] not in kinds:
                continue
            kind = kinds[r["name"]]
            seen.add(kind)
            assert r["recomputed"] is False and not r["agrees"]
            w = r["witness"]
            error = w.get("error") if isinstance(w, dict) else None
            assert error == HUGE_N_ERRORS[kind], (r["name"], r["witness"])
    assert seen == set(HUGE_N_ERRORS)


def test_late_partition_disagreement_replays_quickly(tmp_path, capsys):
    # two partitions of 20,000 points that differ only in the last two
    n = 20_000
    singles = [[x] for x in range(n)]
    check = {
        "name": "late", "kind": "partition_equal", "ok": True, "witness": None,
        "data": {"n": n, "left": singles[:-2] + [[n - 2, n - 1]], "right": singles},
    }
    cert_file, rows_file = tmp_path / "cert.json", tmp_path / "rows.json"
    cert_file.write_text(json.dumps({"command": "fm-quotient", "checks": [check]}))
    t = time.perf_counter()
    code, out = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    assert time.perf_counter() - t < 2.0
    assert code == 1 and "Traceback" not in out
    assert _layout_line(out) == (
        '  [FAIL] layout: fm-quotient: check 1 is ["late","partition_equal"], '
        'not ["graphs_form_an_enumeration","enumeration_laws"]'
    )
    (row,) = json.loads(rows_file.read_text())["rows"]
    assert row["recomputed"] is False and row["witness"] == [n - 2, n - 1]


def ref_partitions_agree(left, right):
    """The first disagreeing pair x < y, found by trying every pair in order."""
    if left == right:
        return True, None
    for x in range(left.n):
        for y in range(x + 1, left.n):
            if left.same(x, y) != right.same(x, y):
                return False, (x, y)
    return False, None


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(1, 14))
    labels = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    left = draw(labels)
    # a relabelling of a few points, or an unrelated partition
    right = list(left)
    for x in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        right[x] = draw(st.integers(0, 5))
    right = draw(st.sampled_from([right, draw(labels)]))
    return Partition.from_class_map(left), Partition.from_class_map(right)


@given(partition_pairs())
# the blocks of 0 differ in 1 and in 2: the witness is the least, (0, 1)
@example((Partition.from_class_map([0, 0, 0, 1]), Partition.from_class_map([0, 1, 2, 3])))
def test_partition_witness_is_the_first_disagreeing_pair(pair):
    assert _partitions_agree(*pair) == ref_partitions_agree(*pair)


def ref_pair_coverage(data):
    """The pair_coverage checker as it was: each related pair tried on each map."""
    rel = Partition.from_blocks(data["n"], [[int(x) for x in b] for b in data["blocks"]])
    maps = [{int(x): int(y) for x, y in g} for g in data["maps"]]
    for block in rel.blocks:
        for x in block:
            for y in block:
                if x != y and not any(f.get(x) == y for f in maps):
                    return False, (x, y)
    return True, None


@st.composite
def coverage_data(draw):
    n = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = Partition.from_class_map(labels).blocks
    # maps may name points outside 0..n-1 and repeat a source, as edits can
    pairs = st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=2 * n)
    maps = draw(st.lists(pairs, max_size=4))
    return {"n": n, "blocks": [list(b) for b in blocks], "maps": maps}


@given(coverage_data())
def test_pair_coverage_verdict_and_witness_match_the_pairwise_search(data):
    assert run_check("pair_coverage", data) == ref_pair_coverage(data)


def test_pair_coverage_is_linear_in_the_stored_pairs():
    # one class of 400 points and its 400 cyclic shifts: 160,000 stored pairs
    c = 400
    data = {
        "n": c,
        "blocks": [list(range(c))],
        "maps": [[[x, (x + s) % c] for x in range(c)] for s in range(c)],
    }
    start = time.perf_counter()
    assert run_check("pair_coverage", data) == (True, None)
    assert time.perf_counter() - start < 0.5


def test_certificate_with_a_repeated_group_label_is_a_fail_row(tmp_path, capsys):
    cert = json.loads((GOLDEN / "cocycle_rotation.json").read_text())
    (check,) = cert["checks"]
    check["data"]["labels"] = ["e", "r", "r"]
    cert_file, rows_file = tmp_path / "cert.json", tmp_path / "rows.json"
    cert_file.write_text(json.dumps(cert))
    code, _ = run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
    (row,) = json.loads(rows_file.read_text())["rows"]
    assert code == 1 and row["recomputed"] is False and not row["agrees"]
    assert row["witness"] == {
        "error": "ValueError", "message": "label r names two elements"
    }


# by probe parameter and stored value, the error of the FAIL row, or None
# where the replay agrees. SPEC fixes the orbit window at 64, so any other
# stored window is a FAIL row; the checker refuses one above MAX_PROBE first
REPLAYS = {
    "bound": {MAX_PROBE: None, 10**9: "BadParameters"},
    "window": {MAX_PROBE: "InvalidCertificate", 10**9: "BadParameters"},
}


@pytest.mark.parametrize("name,key", [
    ("cover_shifted_ray.json", "bound"),
    ("fm-quotient_shifted_ray.json", "window"),
])
def test_stored_probe_parameters_bound_the_replay(tmp_path, capsys, name, key):
    for value, error in REPLAYS[key].items():
        cert = json.loads((GOLDEN / name).read_text())
        edited = {c["name"] for c in cert["checks"] if key in c["data"]}
        assert edited
        for c in cert["checks"]:
            if c["name"] in edited:
                c["data"][key] = value
        cert_file, rows_file = tmp_path / name, tmp_path / "rows.json"
        cert_file.write_text(json.dumps(cert))
        start = time.perf_counter()
        run(capsys, "verify", "--input", str(cert_file), "--out", str(rows_file))
        assert time.perf_counter() - start < 1.0
        for r in json.loads(rows_file.read_text())["rows"]:
            if r["name"] in edited:
                assert r["agrees"] is (error is None), (value, r)
                if error:
                    assert r["witness"]["error"] == error



def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the error is what a replay row would show
        return type(e).__name__, str(e)


def ref_graph_subset(data):
    """The finite_graph_subset checker as it was before its union was memoised."""
    union = set()
    for g in data["others"]:
        union.update((int(x), int(y)) for x, y in g)
    for x, y in dict((int(x), int(y)) for x, y in data["left"]).items():
        if (x, y) not in union:
            return False, (x, y)
    return True, None


@pytest.mark.parametrize("others, left", [
    ([[[0, 1], [1, 0]]], [[1, 0]]),
    ([[[0, 1]]], [[1, 0]]),
    # hand-edited pairs are converted with int(), as they always were
    ([[[0.0, 1.5]]], [[0, 1]]),
    ([[["0", " 1"]]], [[0, 1]]),
    ([[[True, False]]], [[1, 0]]),
    ([[[[0], [1]]]], [[0, 1]]),
    ([[[None, 1]]], [[0, 1]]),
    ([[[0, 1, 2]]], [[0, 1]]),
    ([[{"a": 1, "b": 2}]], [[0, 1]]),
    ([[5]], [[0, 1]]),
    ([["01"]], [[0, 1]]),
    # the first bad graph in order is the one reported
    ([[["a", 1]], 5], [[0, 1]]),
    ([5, [["a", 1]]], [[0, 1]]),
    ("ab", [[0, 1]]),
], ids=[
    "inside", "outside", "floats", "strings", "bools", "nested", "none", "triple",
    "dict", "int_pair", "text_pair", "text_first", "int_first", "text",
])
def test_finite_graph_subset_reads_each_stored_union_as_before(others, left):
    data = {"left": left, "others": others}
    want = _outcome(ref_graph_subset, data)
    # a second replay gives the same outcome: nothing is kept between replays
    assert _outcome(run_check, "finite_graph_subset", data) == want
    assert _outcome(run_check, "finite_graph_subset", data) == want
