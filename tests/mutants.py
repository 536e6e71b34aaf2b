"""Recorded mutants of src/: each must make at least one of its named tests fail.

    python tests/mutants.py

For each entry of MUTANTS the runner copies src/ to a temporary
directory, replaces the entry's old text, which must occur exactly once
in its file, by the new text, and runs the named tests against that copy
with pytest.  A mutant is killed when at least one of them fails.  An
entry whose old text does not occur exactly once is stale.  The runner
prints one line per entry, with the seconds it took, then the total, and
exits 1 when any mutant survives, is stale or cannot be run.

pytest does not collect this file (its name does not start with test_).
A change that reports a mutant it tried adds it here, with the tests
that kill it, so a later refactor that makes those tests vacuous shows.
It needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# seconds one entry's tests may run; a mutant that hangs them is killed
TIMEOUT_S = 300


class Mutant(NamedTuple):
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    why: str  # what the mutant breaks


CARRIERS = "qborel/carriers.py"
RECORD = "qborel/record.py"
FM = "qborel/feldman_moore.py"
RELATIONS = "qborel/relations.py"
COMMANDS = "qborel/cli/commands.py"
COUNT = "tests/test_finite_oracles.py::test_enumerated_partition_is_the_union_find_partition"
ORACLES = ("tests/test_finite_oracles.py::test_classical_construction_matches_per_point_walk",)
MIRROR = "tests/test_cross_lane.py::test_an_inverse_is_covered_from_the_mirrored_levels"
PLAIN = "tests/test_cli.py::test_plain_reader_reads_what_argparse_reads"
MEMOS = "tests/test_cli.py::test_each_run_starts_from_empty_memos"
FAILING_LAWS = ("tests/test_cli.py::"
                "test_graphs_that_fail_the_laws_still_give_the_partition_they_join")
CLOSURE = ("tests/test_certificates.py::"
           "test_closure_and_tail_checkers_give_the_regenerating_verdicts")
HULL_TESTS = (
    "tests/test_carriers.py::test_decided_pairs_skip_the_residue_algebra",
    "tests/test_carriers.py::test_hull_rules_give_the_general_paths_pieces",
)

MUTANTS = [
    # the hull rules of IntSet.intersect and IntSet.difference
    Mutant(CARRIERS, "return hi < blo or bhi < lo", "return hi <= blo or bhi <= lo",
           HULL_TESTS, "hulls that touch at one point taken as apart"),
    Mutant(CARRIERS, "if not ((len(a) == 1 or a == _ALL) and a[0].stride == 1):",
           "if not (len(a) == 1 or a == _ALL):",
           HULL_TESTS, "one piece of stride above 1 taken as an interval"),
    Mutant(CARRIERS, "        if a == b or _holds(other, self):\n            return _EMPTY\n",
           "        if a == b:\n            return self\n        if _holds(other, self):\n"
           "            return _EMPTY\n",
           HULL_TESTS, "difference of equal operands returns the operand"),
    # what a normal form carries: its hull and its shifts
    Mutant(CARRIERS, "        if _residue_classes(form):\n", "        if not form:\n",
           ("tests/test_carriers.py::test_translate_is_the_normalised_shift",),
           "translate shifts a residue-class form without normalising it"),
    # the overlap sweep
    Mutant(CARRIERS, "return min(pairs, default=None)", "return next(iter(pairs), None)",
           ("tests/test_int_oracles.py::test_ptmap_overlap_matches_the_pairwise_search",
            "tests/test_int_oracles.py::test_block_relation_make_matches_the_pairwise_search"),
           "first meeting pair found, not the least"),
    Mutant(CARRIERS, "return lo + (x - lo) % (a.stride * m) <= hi",
           "return lo + (x - lo) % (a.stride * m) < hi",
           ("tests/test_carriers.py::test_union_requires_disjoint_domains",
            "tests/test_int_oracles.py::test_meets_finds_exactly_the_meeting_pairs"),
           "a common point at the end of the hull overlap missed"),
    Mutant(CARRIERS, "while heap and heap[0][0] < lo:", "while heap and heap[0][0] <= lo:",
           ("tests/test_int_oracles.py::test_meets_finds_exactly_the_meeting_pairs",),
           "an open piece ending where the next one starts expired early"),
    Mutant(CARRIERS,
           "            meeting[j].add(i)\n", "            meeting[j] = {i}\n",
           ("tests/test_int_oracles.py::test_graph_within_witness_reads_every_block_it_needs",),
           "one meeting block per piece in graph_within_witness"),
    # the count that settles the enumeration laws
    Mutant(RELATIONS, "            if sum(len(b) * len(b) for b in rel.blocks) == len(union):\n",
           "            if True:\n", (COUNT,), "the count dropped: any union inside 0..n-1 passes"),
    Mutant(RELATIONS, "for b in rel.blocks) == len(union):", "for b in rel.blocks) >= len(union):",
           (COUNT,), "the classes only need as many cells as the union has pairs"),
    # the partition a family that fails the laws joins, which index, selector,
    # fm-classical and involution2 still print
    Mutant(COMMANDS, "        rel = Partition.from_pairs(enum.n, union)\n",
           "        rel = enumerated_partition(enum.graph_dicts(), enum.n)\n",
           (FAILING_LAWS,), "no partition when the laws fail"),
    Mutant(COMMANDS, "        rel = Partition.from_pairs(enum.n, union)\n",
           "        rel = Partition.discrete(enum.n)\n", (FAILING_LAWS,),
           "the discrete partition in place of the one the graphs join"),
    # the per-run registry of both lanes, and the finite lane's memos
    Mutant(RECORD, "        if len(self) == MEMO_SIZE:\n            self.clear()\n", "",
           ("tests/test_record.py::test_a_memo_keeps_at_most_memo_size_entries",),
           "a Memo grows past MEMO_SIZE"),
    Mutant(RECORD, "    for memo in _MEMOS:\n        memo.cache_clear()",
           "    for memo in _MEMOS[:-1]:\n        memo.cache_clear()", (MEMOS,),
           "_clear_memos skips the last memo"),
    Mutant(RECORD, "    for memo in _MEMOS:\n        memo.cache_clear()",
           "    for memo in _MEMOS:\n        if type(memo) is not Memo:\n"
           "            memo.cache_clear()", (MEMOS,),
           "_clear_memos skips the Memo dicts: _JOINED keeps an earlier run's partitions"),
    Mutant("qborel/quotient.py", "        if _JOINED and type(n) is int:\n",
           "        if _JOINED:\n",
           ("tests/test_cli.py::test_a_stored_n_that_is_no_int_reads_no_joined_partition",
            "tests/test_quotient.py::test_joined_gives_what_from_blocks_gives"),
           "a stored n of 5.0 reads the partition joined on 5"),
    Mutant("qborel/quotient.py", "        if type(n) is int:\n            _JOINED.keep(",
           "        if True:\n            _JOINED.keep(",
           ("tests/test_quotient.py::"
            "test_a_partition_joined_on_an_n_that_is_no_int_is_not_kept",),
           "a partition joined on n = True is kept for an int 1 to read"),
    Mutant(RELATIONS, "(_verdict_of if type(n) is int else _enumeration_check)(union, n)",
           "_verdict_of(union, n)",
           ("tests/test_relations.py::"
            "test_verify_enumeration_after_a_kept_verdict_gives_the_cold_report",),
           "an n of 5.0 reads the verdict kept for 5"),
    Mutant(RELATIONS, "(_verdict_of if type(n) is int else _enumeration_check)(union, n)",
           "_enumeration_check(union, n)",
           ("tests/test_feldman_moore.py::"
            "test_finite_construction_checks_the_enumeration_once[cover]",),
           "no verdict kept: the enumeration_laws row checks the graphs again"),
    # the scope of a run: empty memos, the cycle collector paused
    Mutant(RECORD, "        if self.collecting:\n            gc.enable()",
           "        if self.collecting and exc[0] is not SystemExit:\n"
           "            gc.enable()",
           ("tests/test_cli.py::test_a_run_leaves_the_cycle_collector_as_it_found_it",),
           "the collector left paused after a usage error"),
    Mutant(RECORD, "        gc.disable()\n", "",
           ("tests/test_cli.py::test_no_cycle_collection_runs_during_a_run",),
           "the collector runs during a run"),
    Mutant(RECORD, "        _clear_memos()\n", "",
           ("tests/test_cli.py::test_a_finite_run_after_an_integer_one_starts_from_empty_memos",),
           "a run leaves the memos of an earlier run"),
    # the shared construction loop
    Mutant(FM, "                if f_key not in seen:\n",
           "                if True:\n",
           ("tests/test_feldman_moore.py::test_construction_does_each_step_once",),
           "no seen de-duplication of cover maps in _cover_each"),
    Mutant(FM, "    if levels.positive.union.is_empty() and levels.negative.union.is_empty():\n",
           "    if levels.positive.union.is_empty() or levels.negative.union.is_empty():\n",
           ("tests/test_feldman_moore.py::"
            "test_cover_int_of_an_extension_with_no_sides_is_its_assembly",),
           "cover_int skips the assembly when only one side is empty"),
    Mutant(FM, "lambda cp: CoverPair(cp.second, cp.first),", "lambda cp: cp,",
           ("tests/test_feldman_moore.py::test_quotient_construction_matches_per_seed_pipeline",),
           "a finite inverse takes its extension's cover unswapped"),
    Mutant(FM, "    if on == back:\n", "    if True:\n", (MIRROR,),
           "an inverse takes its extension's cover even where the two differ on X_0"),
    Mutant(FM, "    return type(levels)(head, ginv, g, negative, positive, zero)\n",
           "    return type(levels)(head, ginv, g, positive, negative, zero)\n", (MIRROR,),
           "the levels of an inverse keep the sides unswapped"),
    Mutant(FM, "        return tuple(map(f.__getitem__, range(len(f))))\n",
           "        return tuple(f.values())\n",
           ("tests/test_finite_oracles.py::"
            "test_signature_tells_maps_apart_exactly_when_they_differ",),
           "_signature keys every map by its images in insertion order"),
    Mutant(FM, "    if g.keys() == set(range(rel.n)):\n", "    if len(g) == rel.n:\n",
           ("tests/test_finite_oracles.py::test_witness_searches_match",),
           "maximality_witness passes a map of n pairs without reading its sources"),
    Mutant(FM, "            free_tgt = free_tgt.difference(fresh.range_set())\n", "",
           ("tests/test_int_oracles.py::test_greedy_extend_int_matches_the_recomputing_loop",),
           "no free_tgt update in greedy_extend_int"),
    Mutant(FM, "queue = [PiecewiseTranslation.identity(ambient)] + list(psis)",
           "queue = ([PiecewiseTranslation.identity(ambient)] + list(psis))[::-1]",
           ("tests/test_int_oracles.py::test_greedy_extend_int_matches_the_recomputing_loop",),
           "greedy_extend_int's queue reversed"),
    Mutant(FM, "        w = graph_within_partition(g0, rel)\n", "        w = None\n",
           ("tests/test_cli.py::test_finite_cover_rejects_a_faulty_seed"
            "[escaping-NotWithinRelation-seed pair (2, 3) leaves the relation-witness0]",),
           "greedy_extend does not check its seed against the relation"),
    # weak uniformization
    Mutant(FM, "        fresh = f.domain().difference(taken)\n", "        fresh = f.domain()\n",
           ("tests/test_int_oracles.py::"
            "test_weak_uniformize_int_is_the_least_index_selection_from_the_union",),
           "weak_uniformize_int gives each graph points an earlier graph took"),
    Mutant(FM, "            if x not in phi:\n", "            if True:\n",
           ("tests/test_finite_oracles.py::"
            "test_weak_uniformize_is_the_least_index_selection_from_the_union",),
           "weak_uniformize lets a later graph overwrite an earlier choice"),
    # fm-classical
    Mutant(FM, "if len(b) > max(m, nn)]", "if len(b) >= max(m, nn)]", ORACLES,
           "class filter admits classes of max(m, n) points"),
    Mutant(FM, "if len(b) > max(m, nn)]", "if len(b) > m]", ORACLES,
           "class filter reads only m"),
    Mutant(FM, "if not x >> p & 1 and y >> p & 1]", "if not x >> p & 1 and x >> p & 1]",
           ORACLES, "bit test reads B[m] twice"),
    Mutant(FM, "if not x >> p & 1 and y >> p & 1]", "if x >> p & 1 and not y >> p & 1]",
           ORACLES, "bit roles of B[m] and B[n] exchanged"),
    Mutant(FM, "moved = frozenset(map(frozenset, swaps))", "moved = frozenset(swaps)",
           ORACLES, "generators deduped on ordered pairs"),
    Mutant(FM, "if moved and moved not in seen:", "if moved not in seen:", ORACLES,
           "the identity table kept as a generator"),
    Mutant(FM, "if moved and moved not in seen:", "if moved:", ORACLES,
           "generators not deduped"),
    # the counting closure check
    Mutant("qborel/quotient.py", " and len(set(zip(label, self.class_of))) == k", "",
           (CLOSURE,), "generated_by without its label-pair count"),
    Mutant("qborel/quotient.py", "return joins == self.n - k and ", "return ", (CLOSURE,),
           "generated_by without its join count"),
    Mutant("qborel/quotient.py",
           "            raise InvalidPartition(\n"
           '                f"pair ({a}, {b}) outside 0..{n - 1}", witness=(a, b)\n'
           "            )\n",
           "            continue\n", (CLOSURE,),
           "a pair outside 0..n-1 counted as joined"),
    Mutant("qborel/cli/certificates.py",
           '    left = _blocks_partition(data["n"], data["left"])\n'
           '    if data["right"] == data["left"]:  # an equal list reads as the same partition\n'
           "        return True, None\n",
           '    if data["right"] == data["left"]:\n'
           "        return True, None\n"
           '    left = _blocks_partition(data["n"], data["left"])\n',
           ("tests/test_certificates.py::test_partition_equal_gives_the_two_partition_verdict",),
           "the partition_equal shortcut taken before the left list is read"),
    # certificates and the command line
    Mutant("qborel/cli/certificates.py",
           "min(set(block).symmetric_difference(other))",
           "max(set(block).symmetric_difference(other))",
           ("tests/test_certificates.py::test_partition_witness_is_the_first_disagreeing_pair",),
           "partition witness is not the least point"),
    Mutant("qborel/cli/certificates.py", """if text is not None and '"' not in text else""",
           "if text is not None else",
           ("tests/test_certificates.py::test_an_output_is_spaced_from_its_compact_text",),
           "an output holding text spaced by its commas alone"),
    Mutant("qborel/cli/certificates.py",
           "x for x, y in f.items() if label[x] != label[y]]",
           "x for x, y in f.items() if False]",
           ("tests/test_finite_oracles.py::"
            "test_bijection_checker_passes_maps_as_stored_and_judges_the_rest_as_before",),
           "the passing-map path of bijection_family_within skips the labels"),
    Mutant("qborel/cli/certificates.py", "_first_unheld(zip(f.values(), f),",
           "_first_unheld(zip(f, f.values()),",
           ("tests/test_certificates.py::test_edited_cover_second_fails_the_inverse_check",),
           "the inverse subset check reads the map's own pairs"),
    Mutant("qborel/cantor.py",
           '"ex35": (_gallery_ex35, (2, 3, 1)),\n    "ex36": (_gallery_ex36, (3, 3, 1)),',
           '"ex35": (_gallery_ex35, (3, 3, 1)),\n    "ex36": (_gallery_ex36, (2, 3, 1)),',
           ("tests/test_cantor.py::test_gallery_ex35_values",),
           "ex35 and ex36 take each other's default parameters"),
    Mutant("qborel/record.py", 'f"{f}={getattr(self, f)!r}"', 'f"{f}: {getattr(self, f)!r}"',
           ("tests/test_cli.py::test_enumeration_report_repr_in_stdout_is_pinned",
            "tests/test_cli.py::test_enumeration_laws_witness_bytes_are_pinned"),
           "Record.__repr__ writes field: value"),
    Mutant(COMMANDS, "    check_maps_within_int(rel, phis)\n", "",
           ("tests/test_cli.py::test_integer_cover_rejects_a_stray_map_as_fm_quotient_does",),
           "_cover_int does not check its maps against the relation"),
    Mutant("qborel/cli/main.py", '"fm-classical": ("input", "out", "rel"),',
           '"fm-classical": ("input", "out"),',
           ("tests/test_cli.py::test_flags_of_lists_the_flags_each_command_reads",),
           "rel dropped from fm-classical's flags"),
    Mutant("qborel/cli/main.py", '"tail": ("input", "out", "map_"),',
           '"tail": ("input", "out", "map_", "phi"),',
           ("tests/test_cli.py::test_flags_of_lists_the_flags_each_command_reads",),
           "phi added to tail's flags"),
    Mutant("qborel/cli/main.py", 'Certificate.from_json(text.removeprefix("\\ufeff"))',
           "Certificate.from_json(text)",
           ("tests/test_cli.py::test_verify_reads_past_a_byte_order_mark",),
           "a certificate's byte-order mark left for the JSON reader"),
    # the plain command-line reader
    Mutant("qborel/cli/main.py", ' or any(v[:1] == "-" for v in values.values())', "", (PLAIN,),
           "the plain reader takes a VALUE led by '-'"),
    Mutant("qborel/cli/main.py", " or given != 1\n", "\n", (PLAIN,),
           "the plain reader takes an argv with no source flag, or with both"),
    Mutant("qborel/cli/main.py",
           "values = dict(zip(argv[1::2], argv[2::2]))\n"
           '    given = sum(f"--{dest}" in values for dest in source.split("|"))\n'
           '    if (source == "gallery" or len(argv) != 2 * len(values) + 1',
           "values = dict(reversed([*zip(argv[1::2], argv[2::2])]))\n"
           '    given = sum(f"--{dest}" in values for dest in source.split("|"))\n'
           '    if (source == "gallery" or len(argv) % 2 == 0', (PLAIN,),
           "the plain reader keeps the first of a repeated flag"),
]


def judge(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error: ...' for one mutant of src/."""
    text = (SRC / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        # run from the temporary directory, so Hypothesis keeps the failing
        # examples it finds there and not in the repository's database
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--rootdir", str(ROOT), *(str(ROOT / t) for t in mutant.tests)]
        try:
            done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if done.returncode in (0, 1):
        return ("survived", "killed")[done.returncode]
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode}: {' '.join(tail)}"


def run(mutants, out=None) -> int:
    """Judge each mutant, print one line each with its seconds, then the count
    killed and the total seconds; 0 when every one is killed."""
    out = out or sys.stdout
    bad = 0
    began = time.perf_counter()
    for i, mutant in enumerate(mutants, 1):
        t0 = time.perf_counter()
        verdict = judge(mutant)
        bad += verdict != "killed"
        print(f"{verdict}: #{i} {mutant.path}: {mutant.why} "
              f"({time.perf_counter() - t0:.1f} s)", file=out, flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - began:.1f} s", file=out)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
