"""What a fresh `python -m qborel` process imports, and what it prints.

In-process tests share the modules an earlier test imported, so only a
fresh interpreter shows a broken first import (a circular import, a name
a handler no longer imports) or a module a command loads without using.
"""

import json
import os
import pathlib
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


# the first manifest entry of each command
FIRST = {}
for _entry in MANIFEST:
    FIRST.setdefault(_entry["argv"][0], _entry)


def test_manifest_has_an_entry_for_each_certifying_command():
    assert set(FIRST) == set(COMMANDS) - {"verify", "export-graph"}


@pytest.mark.parametrize("entry", FIRST.values(), ids=FIRST)
def test_fresh_process_prints_the_golden_stdout(entry):
    out = _fresh("-m", "qborel", *entry["argv"])
    assert "Traceback" not in out.stderr, out.stderr
    got = out.stdout + f"[exit {out.returncode}]\n"
    assert got == (GOLDEN / (entry["file"][:-5] + ".stdout")).read_text()


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
