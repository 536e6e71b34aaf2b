"""What a fresh `python -m qborel` process imports, and what it prints.

In-process tests share the modules an earlier test imported, so only a
fresh interpreter shows a broken first import (a circular import, a name
a handler no longer imports) or a module a command loads without using.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import qborel
from qborel.cli.main import COMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
FIVE = "samples/five_points.qb"
DEFERRED = {"qborel.cantor", "qborel.actions", "qborel.feldman_moore"}

# the qborel modules the process holds, printed as the last line
LOADED = 'print(json.dumps(sorted(m for m in sys.modules if m.startswith("qborel"))))'

# standard-library modules that a run imports for nothing it uses: they
# cost a fresh process more than most commands take
UNUSED_STDLIB = ["dataclasses", "inspect"]

# `python -m qborel ARGS`, then the UNUSED_STDLIB modules the process
# holds as the last line of stderr, or null when one was loaded before
# qborel was (by site customisation, say), so a run cannot be judged
RUN_MODULE = f"""import json, runpy, sys
unused = set({UNUSED_STDLIB!r})
held = unused & set(sys.modules)
try:
    runpy.run_module("qborel", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(None if held else sorted(unused & set(sys.modules))), file=sys.stderr)
"""


def _env() -> dict:
    """This process's environment, with the qborel under test importable."""
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(qborel.__file__).resolve().parents[1])}


def _fresh(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=60,
    )


def test_import_qborel_loads_no_submodule():
    out = _fresh("-c", f"import json, sys, qborel; {LOADED}")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["qborel"]


def test_closure_commands_load_no_construction(tmp_path):
    cert = str(tmp_path / "generate.json")
    runs = [
        ["generate", "--input", FIVE, "--maps", "c3,fin", "--out", cert],
        ["tail", "--input", FIVE, "--map", "c3"],
        ["verify", "--input", cert],
    ]
    script = f"import json, sys, qborel.cli; qborel.cli.main(sys.argv[1:]); {LOADED}"
    for argv in runs:
        out = _fresh("-c", script, *argv)
        assert out.returncode == 0, out.stderr
        loaded = set(json.loads(out.stdout.splitlines()[-1]))
        assert "qborel.cli.main" in loaded
        assert not loaded & DEFERRED, (argv, loaded & DEFERRED)


# the modules a run on finite data has no use for: the integer carrier, and
# the construction module, whose two lanes share it
INTEGER_LANE = {"qborel.carriers", "qborel.feldman_moore"}

FINITE_RUNS = {
    "generate": ["generate", "--input", FIVE, "--maps", "c3,fin"],
    "tail": ["tail", "--input", FIVE, "--map", "c3"],
    "index": ["index", "--input", FIVE],
    "selector": ["selector", "--input", FIVE],
    "involution2": ["involution2", "--input", "samples/swap.qb"],
    # the gallery's finite examples, and a replay of one
    "gallery": ["gallery", "ex34"],
    "index-gallery": ["index", "--gallery", "ex35"],
    "verify-gallery_ex36": ["verify", "--input", "tests/golden/gallery_ex36.json"],
    **{f"verify-{name}": ["verify", "--input", f"tests/golden/{name}.json"] for name in (
        "generate_five_points_maps_c3-fin", "tail_five_points_map_c3",
        "fm-quotient_five_points", "cover_five_points", "involution2_swap",
    )},
}


def test_import_cli_loads_no_integer_carrier():
    out = _fresh("-c", f"import json, sys, qborel.cli; {LOADED}")
    assert out.returncode == 0, out.stderr
    assert "qborel.carriers" not in json.loads(out.stdout)


@pytest.mark.parametrize("argv", FINITE_RUNS.values(), ids=FINITE_RUNS)
def test_finite_runs_load_no_integer_lane(argv):
    script = (
        "import json, sys, qborel.cli; code = qborel.cli.main(sys.argv[1:]); "
        f"{LOADED}; sys.exit(code)"
    )
    out = _fresh("-c", script, *argv)
    assert out.returncode == 0, out.stdout + out.stderr
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert not loaded & INTEGER_LANE, sorted(loaded & INTEGER_LANE)


# the modules every command loads, verify included: all that `import qborel.cli` loads
EVERY_COMMAND = [
    "qborel", "qborel.cli", "qborel.cli.certificates", "qborel.cli.main", "qborel.errors",
    "qborel.quotient", "qborel.record", "qborel.relations",
]
# what a run that reads an instance file or a gallery example loads, and verify does not
CERTIFYING = {"qborel.cli.commands", "qborel.cli.instance"}

# `qborel.cli.main(ARGS)`, or the import alone when there are no ARGS; the last
# line of stdout is the qborel modules the process holds and whether it holds
# hashlib, or null for the latter when hashlib was loaded before qborel.cli was
# (by site customisation, say)
RUN_DIGESTING = """import json, sys
held = "hashlib" in sys.modules
import qborel.cli
code = qborel.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
qborel = sorted(m for m in sys.modules if m.startswith("qborel"))
print(json.dumps([qborel, None if held else "hashlib" in sys.modules]))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "--input", "tests/golden/schema2/fm-quotient_five_points.json"],
    ["verify", "--input", "tests/golden/schema2/cover_shifted_ray.json"],
    ["verify", "--input", "tests/golden/schema2/generate_five_points_maps_c3-fin.json"],
], ids=["import", "verify_finite", "verify_integer", "verify_generate"])
def test_import_and_verify_load_no_handler_parser_or_digest(argv):
    out = _fresh("-c", RUN_DIGESTING, *argv)
    assert out.returncode == 0, out.stdout + out.stderr
    loaded, hashlib = json.loads(out.stdout.splitlines()[-1])
    assert not set(loaded) & CERTIFYING and hashlib in (None, False), (loaded, hashlib)
    if not argv:
        assert loaded == EVERY_COMMAND


def test_a_certifying_run_loads_the_handlers_parser_and_digest():
    out = _fresh("-c", RUN_DIGESTING, "fm-quotient", "--input", FIVE)
    assert out.returncode == 0, out.stdout + out.stderr
    loaded, hashlib = json.loads(out.stdout.splitlines()[-1])
    assert CERTIFYING <= set(loaded) and hashlib in (None, True), (loaded, hashlib)


def test_a_bad_index_expect_exits_2_before_loading_the_handlers_or_parser():
    script = f"""import json, sys, qborel.cli
try:
    qborel.cli.main(sys.argv[1:])
finally:
    {LOADED}
"""
    out = _fresh("-c", script, "index", "--input", FIVE, "--expect", "abc")
    assert out.returncode == 2, out.stdout + out.stderr
    assert out.stderr.endswith(
        "qborel: error: --expect takes an integer or 'unbounded', got 'abc'\n"
    ), out.stderr
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert "qborel.cli.main" in loaded and not loaded & CERTIFYING, sorted(loaded)


def test_cli_serves_the_instance_parser_on_first_use():
    script = (
        "import json, sys, qborel.cli; before = 'qborel.cli.instance' in sys.modules; "
        "from qborel.cli import *; "
        "print(json.dumps([before, parse_instance.__module__, InstanceFile.__module__]))"
    )
    out = _fresh("-c", script)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [False, "qborel.cli.instance", "qborel.cli.instance"]


# `python -m qborel ARGS` after `import qborel.cli`; the last line of stderr
# says whether the integer carrier was loaded before the run and after it
RUN_LOADING = """import json, runpy, sys
import qborel.cli
before = "qborel.carriers" in sys.modules
try:
    runpy.run_module("qborel", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps([before, "qborel.carriers" in sys.modules]), file=sys.stderr)
"""


def test_integer_cover_loads_the_carrier_when_it_runs(tmp_path):
    cert = str(tmp_path / "cover.json")
    out = _fresh("-c", RUN_LOADING, "cover", "--input", "samples/shifted_ray.qb", "--out", cert)
    assert "Traceback" not in out.stderr, out.stderr
    assert json.loads(out.stderr.splitlines()[-1]) == [False, True]
    stdout, tail = (GOLDEN / "cover_shifted_ray.stdout").read_text().rsplit("[exit", 1)
    assert out.stdout + f"[exit {out.returncode}]\n" == (
        f"{stdout}certificate written to {cert}\n[exit{tail}"
    )
    assert json.loads(pathlib.Path(cert).read_text()) == json.loads(
        (GOLDEN / "schema2" / "cover_shifted_ray.json").read_text()
    )
    out = _fresh("-c", RUN_LOADING, "verify", "--input", cert)
    assert json.loads(out.stderr.splitlines()[-1]) == [False, True]
    checks = json.loads((GOLDEN / "cover_shifted_ray.json").read_text())["checks"]
    assert (out.stdout, out.returncode) == ("\n".join([
        f"verify {cert}: {len(checks)} stored checks",
        *(f"  [pass] {c['name']}: stored=True recomputed=True" for c in checks),
        "verdicts reproduce and all checks pass",
    ]) + "\n", 0)


def test_integer_checkers_load_with_the_first_integer_kind():
    script = (
        "import json; from qborel.cli.certificates import CHECKERS, INT_KINDS, run_check; "
        "before = sorted(INT_KINDS & CHECKERS.keys()); "
        "assert run_check('intset_equal', {'left': '0..', 'right': '0:+1*inf'}) == (True, None); "
        "mine = sorted(k for k, f in CHECKERS.items() if f.__module__ == 'qborel.cli.int_checks'); "
        "print(json.dumps([before, mine, sorted(INT_KINDS)]))"
    )
    out = _fresh("-c", script)
    assert out.returncode == 0, out.stderr
    before, registered, kinds = json.loads(out.stdout)
    assert before == [] and registered == kinds and len(kinds) == 7


# the first manifest entry of each command
FIRST = {}
for _entry in MANIFEST:
    FIRST.setdefault(_entry["argv"][0], _entry)


def test_manifest_has_an_entry_for_each_certifying_command():
    assert set(FIRST) == set(COMMANDS) - {"verify", "export-graph"}


@pytest.mark.parametrize("entry", FIRST.values(), ids=FIRST)
def test_fresh_process_prints_the_golden_stdout(entry):
    out = _fresh("-c", RUN_MODULE, *entry["argv"])
    assert "Traceback" not in out.stderr, out.stderr
    got = out.stdout + f"[exit {out.returncode}]\n"
    assert got == (GOLDEN / (entry["file"][:-5] + ".stdout")).read_text()
    loaded = json.loads(out.stderr.splitlines()[-1])
    assert not loaded, (entry["argv"], loaded)


@pytest.mark.parametrize("argv", [
    ["verify", "--input", "tests/golden/generate_five_points_maps_c3-fin.json"],
    ["export-graph", "--input", "samples/rotation.qb"],
], ids=["verify", "export-graph"])
def test_fresh_process_prints_what_an_in_process_run_prints(capsys, monkeypatch, argv):
    out = _fresh("-m", "qborel", *argv)
    assert "Traceback" not in out.stderr, out.stderr
    monkeypatch.chdir(ROOT)
    code = main(argv)
    assert (out.stdout, out.returncode) == (capsys.readouterr().out, code)


# the modules argparse brings: a run of a plain argv reads it without them
PARSER_MODULES = ["argparse", "gettext"]

# `qborel.cli.main(ARGS)`, or the import alone when there are no ARGS; the last
# line of stdout is the PARSER_MODULES the process holds, or null when one was
# loaded before qborel.cli was (by site customisation, say)
RUN_PLAIN = f"""import json, sys
parser = set({PARSER_MODULES!r})
held = parser & set(sys.modules)
import qborel.cli
code = qborel.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(None if held else sorted(parser & set(sys.modules))))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "--input", "tests/golden/generate_five_points_maps_c3-fin.json"],
    ["cover", "--input", FIVE],
], ids=["import", "verify", "finite_cover"])
def test_a_plain_run_loads_no_argument_parser(argv):
    out = _fresh("-c", RUN_PLAIN, *argv)
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) in (None, [])


KEPT_BY_ARGPARSE = {
    c["id"]: c for c in json.loads((GOLDEN / "argv" / "kept_by_argparse.json").read_text("utf-8"))
}


@pytest.mark.parametrize("case", ["help", "verify_help", "no_command", "bad_K", "both_sources"])
def test_fresh_process_prints_argparse_text(tmp_path, case):
    """Help exits 0 and a usage error 2, each with its pinned argparse text."""
    shutil.copy(ROOT / FIVE, tmp_path / "P.qb")
    shutil.copy(GOLDEN / "generate_five_points_maps_c3-fin.json", tmp_path / "Q.json")
    pinned = KEPT_BY_ARGPARSE[case]
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qborel", *pinned["argv"]], cwd=tmp_path,
        env={**_env(), "COLUMNS": "80"}, capture_output=True, text=True, timeout=60,
    )
    assert (out.stdout, out.stderr, out.returncode) == (
        pinned["stdout"], pinned["stderr"], pinned["exit"]
    )
