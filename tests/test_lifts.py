"""Plain lifts: on a periodic lift of a finite instance, the integer lane
returns the finite lane's answers, lifted (see lifts.py).

The integer-lane answers are read back on a few copies, among them copies
near +-10^12 / n, where the integers are far from any piece start the
lifted texts write.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from lifts import instance_text, lift_classes, lift_map, on_copy
from qborel.carriers import parse_ptmap
from qborel.cli.main import main
from qborel.feldman_moore import (
    cover_int,
    greedy_extend_int,
    levels_int,
    psi_split_int,
    weak_uniformize,
    weak_uniformize_int,
)
from test_cross_lane import finite_cover, shifts


def copies(n: int) -> list[int]:
    far = 10**12 // n
    return [-3, 0, 5, far, -far, far - 1]


@st.composite
def plain_instances(draw):
    """n <= 12 points in classes of 1-4, an enumeration of them in some order,
    one seed pair inside a class, and partial maps for uniformize."""
    n = draw(st.integers(1, 12))
    points = draw(st.permutations(range(n)))
    classes, i = [], 0
    while i < n:
        size = draw(st.integers(1, 4))
        classes.append(points[i:i + size])
        i += size
    # the cyclic shifts of every class by 0..3 points enumerate classes of 1-4 points
    maps = draw(st.permutations(shifts(classes, 4)))
    c = draw(st.sampled_from(classes))
    seed = {draw(st.sampled_from(c)): draw(st.sampled_from(c))}
    partial = [{x: y for x, y in f.items() if draw(st.booleans())} for f in maps]
    return n, classes, maps, seed, partial


def int_cover(n, classes, maps, seed):
    rel = lift_classes(classes, n)
    g = greedy_extend_int(
        lift_map(seed, n), psi_split_int([lift_map(f, n) for f in maps]), rel.ambient, rel
    )
    pair = cover_int(levels_int(g, rel))
    return g, pair.first, pair.second


@settings(max_examples=200)
@given(plain_instances())
def test_plain_lifts_cover_and_uniformize_as_the_finite_lane(instance):
    n, classes, maps, seed, partial = instance
    want = finite_cover(n, maps, seed)
    got = int_cover(n, classes, maps, seed)
    selection = weak_uniformize(partial).phi
    lifted = weak_uniformize_int([lift_map(f, n) for f in partial]).phi
    for k in copies(n):
        assert tuple(on_copy(f, n, k) for f in got) == want
        assert on_copy(lifted, n, k) == selection


def run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def test_a_plain_lift_certifies_the_finite_answers(tmp_path):
    # five_points' classes, {0, 1, 2} and {3, 4}, with a 3-cycle and the swap of 3 and 4
    n, classes = 5, [[0, 1, 2], [3, 4]]
    maps = {"e": dict(zip(range(n), range(n))), "c": {0: 1, 1: 2, 2: 0, 3: 4, 4: 3},
            "ci": {0: 2, 1: 0, 2: 1, 3: 4, 4: 3}, "g0": {1: 2}, "half": {0: 1, 3: 4}}
    inst, cert = tmp_path / "lift.qb", tmp_path / "lift.json"
    inst.write_text(instance_text(classes, n, maps), encoding="utf-8")
    enum = [maps["e"], maps["c"], maps["ci"]]
    outputs = {}
    for command, flags in [("cover", ["--rel", "B", "--maps", "e,c,ci", "--g0", "g0"]),
                           ("uniformize", ["--maps", "half,c"])]:
        assert run_cli(command, "--input", str(inst), *flags, "--out", str(cert)) == 0
        assert run_cli("verify", "--input", str(cert)) == 0
        outputs.update(json.loads(cert.read_text())["outputs"])
    want = finite_cover(n, enum, maps["g0"])
    selection = weak_uniformize([maps["half"], maps["c"]]).phi
    for k in copies(n):
        got = [on_copy(parse_ptmap(outputs[key]), n, k)
               for key in ("extension", "first", "second")]
        assert tuple(got) == want
        assert on_copy(parse_ptmap(outputs["selection"]), n, k) == selection

