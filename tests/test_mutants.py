"""The recorded-mutant runner, tests/mutants.py, on a two-entry fixture."""

import importlib.util
import io
import pathlib

spec = importlib.util.spec_from_file_location(
    "mutants", pathlib.Path(__file__).resolve().parent / "mutants.py"
)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

QUICK = ("tests/test_carriers.py::test_decided_pairs_skip_the_residue_algebra",)


def test_runner_reports_the_surviving_mutant():
    fixture = [
        mutants.Mutant(
            mutants.CARRIERS,
            "        if a == b or _holds(b, a):\n            return _EMPTY\n",
            "        if _holds(b, a):\n            return _EMPTY\n",
            QUICK, "difference of equal operands left to the general path",
        ),
        # a docstring edit changes no behaviour
        mutants.Mutant(
            mutants.CARRIERS, '"""Least element, None when unbounded below; raises on empty."""',
            '"""Least member, None when unbounded below; raises on empty."""',
            QUICK, "a docstring reworded",
        ),
    ]
    out = io.StringIO()
    assert mutants.run(fixture, out=out) == 1
    assert out.getvalue().splitlines() == [
        "killed: #1 qborel/carriers.py: difference of equal operands left to the general path",
        "survived: #2 qborel/carriers.py: a docstring reworded",
        "1 of 2 mutants killed",
    ]


def test_old_text_not_found_exactly_once_is_stale():
    for old in ("no such text in the file", "return"):
        mutant = mutants.Mutant(mutants.CARRIERS, old, "", QUICK, "stale")
        assert mutants.judge(mutant) == "stale"
